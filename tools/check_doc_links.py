#!/usr/bin/env python3
"""Fail on dead relative links, dead anchors, and dead code refs in docs.

Scans the given markdown files (default: docs/*.md and README.md) for:

* inline links ``[text](target)`` whose target is a relative path —
  resolved against the containing file's directory; external
  (``http(s)://``, ``mailto:``) links are ignored;
* ``#fragment`` anchors on those links (and pure ``#...`` self links) —
  validated against the GitHub-style slugs of the target file's headings;
* backticked code references that look like repository paths
  (`` `src/...` ``, `` `tools/...` ``, `` `tests/...` ``,
  `` `docs/...` ``, `` `repro/...` ``, or any backticked token ending in
  ``.py`` / ``.md`` / ``.json`` with a directory separator) — checked for
  existence from the repository root, so a doc cannot keep pointing at a
  module that was moved or deleted;
* backticked ``Class.member`` references (`` `RoundSpeculator.begin_round` ``,
  `` `LMCConfig.optimized()` ``) whose class is defined under ``src/repro`` —
  the member must exist on that class or a base class defined there
  (methods, class-level names, ``__slots__`` entries and ``self.x``
  attributes count; resolved from the AST, nothing is imported), so a doc
  cannot keep citing a method a refactor deleted;
* backticked bare CamelCase names (`` `ExplorationStats` ``, `` `Incr` ``)
  — the name must be a class (or a module-level type alias such as
  ``Event = Union[...]``) defined under ``src/``, ``tests/`` or
  ``tools/``, a class defined in one of the doc's own code blocks, or a
  builtin name, so a doc cannot keep naming a class that was renamed.  A
  stdlib class is written in full (`` `concurrent.futures.X` ``), which
  this check does not read.

Exits non-zero listing every violation.

Usage::

    python tools/check_doc_links.py [FILE.md ...]
"""

from __future__ import annotations

import ast
import builtins
import re
import sys
from pathlib import Path

#: Inline markdown links; deliberately simple — no reference-style links
#: or angle-bracket targets are used in this repository's docs.
LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: ATX headings, for anchor validation.
HEADING = re.compile(r"^(#{1,6})\s+(.*?)\s*#*\s*$")

#: Backticked tokens that look like repository file references.  Two
#: shapes: rooted in a known top-level directory, or any path-like token
#: with a checkable suffix.  Trailing ``:line`` qualifiers are allowed.
CODE_REF = re.compile(
    r"`((?:src|tools|tests|docs|benchmarks|examples)/[\w./-]+"
    r"|[\w-]+(?:/[\w.-]+)+\.(?:py|md|json))(?::\d+)?`"
)

#: Backticked ``Class.member`` tokens, optionally with a call suffix.  Only
#: checked when ``Class`` is defined under ``src/repro``.
SYMBOL_REF = re.compile(r"`(_?[A-Z]\w*)\.(\w+)(?:\([^`]*\))?`")

#: Backticked bare CamelCase names: a capital, at least one lowercase
#: letter, no dots or inner underscores (``LS_n`` and ``SHARD_MIN`` are
#: notation and constants, not classes).
CLASS_REF = re.compile(r"`(_?[A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`")

#: Class definitions inside a doc's fenced code blocks.
FENCED_CLASS = re.compile(r"^\s*class\s+(\w+)")

#: Code-ref prefixes that name packages as *imported*, not as checked out:
#: ``repro/...`` maps to ``src/repro/...``.
CODE_REF_ALIASES = {"repro": "src/repro"}

SKIP_PREFIXES = ("http://", "https://", "mailto:")


def github_slug(heading: str) -> str:
    """GitHub's anchor slug for a heading.

    Lowercase; markup characters (backticks, emphasis) and punctuation
    dropped; spaces become hyphens.  This matches GitHub's slugger closely
    enough for the ASCII-plus-section-signs headings this repository uses.
    """
    text = heading.strip().lower()
    # Strip inline code/emphasis markers but keep their contents
    # (underscores survive: GitHub slugs `LMCConfig.explore_workers` as
    # lmcconfigexplore_workers).
    text = text.replace("`", "").replace("*", "")
    # Markdown links in headings contribute only their text.
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    out = []
    for char in text:
        if char.isalnum() or char in ("-", "_"):
            out.append(char)
        elif char == " ":
            out.append("-")
        # Everything else (punctuation, →, §, parens, dots) is dropped.
    return "".join(out)


def heading_slugs(path: Path, cache: dict) -> set:
    """All anchor slugs defined by ``path``'s headings (with -1 dedup)."""
    cached = cache.get(path)
    if cached is not None:
        return cached
    slugs: set = set()
    counts: dict = {}
    in_fence = False
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        cache[path] = slugs
        return slugs
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        if in_fence:
            continue
        match = HEADING.match(line)
        if not match:
            continue
        slug = github_slug(match.group(2))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        slugs.add(slug if seen == 0 else f"{slug}-{seen}")
    cache[path] = slugs
    return slugs


def class_members(root: Path) -> dict:
    """Class name -> member names, for every class under ``src/repro``.

    Members are what a doc may legitimately cite: names bound in the class
    body (methods, fields, nested classes), ``__slots__`` entries, and
    attributes assigned through ``self`` in any method — plus everything
    inherited from base classes that are themselves defined under
    ``src/repro``.  Same-named classes in different modules are merged.
    """
    own: dict = {}
    bases: dict = {}
    for source in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(source.read_text(encoding="utf-8"))
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            members = own.setdefault(cls.name, set())
            bases.setdefault(cls.name, set()).update(
                base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
                for base in cls.bases
            )
            for node in cls.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    members.add(node.name)
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = {t.id for t in targets if isinstance(t, ast.Name)}
                    members.update(names)
                    if "__slots__" in names:
                        members.update(
                            elt.value
                            for elt in getattr(node.value, "elts", ())
                            if isinstance(elt, ast.Constant)
                        )
            members.update(
                node.attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            )
    resolved: dict = {}

    def resolve(name: str) -> set:
        if name not in resolved:
            resolved[name] = set(own[name])  # placed first: cycles terminate
            for base in bases[name]:
                if base in own:
                    resolved[name] |= resolve(base)
        return resolved[name]

    return {name: resolve(name) for name in own}


def type_names(root: Path) -> set:
    """Every class and module-level type alias defined under ``src/``,
    ``tests/`` or ``tools/``, plus every builtin name (``None`` included)."""
    names = set(dir(builtins))
    for top in ("src", "tests", "tools"):
        for source in sorted((root / top).rglob("*.py")):
            tree = ast.parse(source.read_text(encoding="utf-8"))
            names.update(n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef))
            names.update(
                target.id
                for node in tree.body
                if isinstance(node, ast.Assign) and isinstance(node.value, ast.Subscript)
                for target in node.targets
                if isinstance(target, ast.Name)
            )
    return names


def fenced_classes(lines: list) -> set:
    """Names of the classes defined in a doc's own fenced code blocks."""
    names: set = set()
    in_fence = False
    for line in lines:
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
        elif in_fence:
            names.update(FENCED_CLASS.findall(line))
    return names


def dead_links(
    path: Path, root: Path, slug_cache: dict, members: dict, types: set
) -> list:
    """(line number, problem) pairs for ``path``."""
    found = []
    lines = path.read_text(encoding="utf-8").splitlines()
    local_types = fenced_classes(lines)
    in_fence = False
    for lineno, line in enumerate(lines, start=1):
        if line.lstrip().startswith("```"):
            in_fence = not in_fence
            continue
        for match in LINK.finditer(line):
            target = match.group(1)
            if target.startswith(SKIP_PREFIXES):
                continue
            relative, _, fragment = target.partition("#")
            dest = path if not relative else (path.parent / relative)
            if not dest.exists():
                found.append((lineno, f"dead link: {target}"))
                continue
            if fragment and dest.suffix == ".md":
                if fragment not in heading_slugs(dest, slug_cache):
                    found.append(
                        (lineno, f"dead anchor: {target} (no such heading)")
                    )
        if in_fence:
            continue
        for match in CODE_REF.finditer(line):
            ref = match.group(1)
            head = ref.split("/", 1)[0]
            resolved = CODE_REF_ALIASES.get(head)
            candidates = [
                root / (resolved + ref[len(head):]) if resolved else root / ref,
                # Package-relative refs (`core/checker.py`, `model/events.py`)
                # name modules as seen from inside the installed package.
                root / "src" / "repro" / ref,
            ]
            if not any(candidate.exists() for candidate in candidates):
                found.append((lineno, f"dead code ref: `{ref}`"))
        for match in SYMBOL_REF.finditer(line):
            cls, member = match.groups()
            if cls in members and member not in members[cls]:
                found.append((lineno, f"dead symbol ref: `{cls}.{member}`"))
        for name in CLASS_REF.findall(line):
            if name not in types and name not in local_types:
                found.append((lineno, f"dead class ref: `{name}`"))
    return found


def main(argv: list) -> int:
    root = Path(__file__).resolve().parent.parent
    if argv:
        files = [Path(arg) for arg in argv]
    else:
        files = sorted(root.glob("docs/*.md")) + [root / "README.md"]
    broken = 0
    slug_cache: dict = {}
    members = class_members(root)
    types = type_names(root)
    for path in files:
        if not path.exists():
            print(f"{path}: file not found", file=sys.stderr)
            broken += 1
            continue
        for lineno, problem in dead_links(path, root, slug_cache, members, types):
            print(f"{path}:{lineno}: {problem}", file=sys.stderr)
            broken += 1
    if broken:
        print(f"{broken} problem(s)", file=sys.stderr)
        return 1
    print(
        f"checked {len(files)} file(s): links, anchors, code, symbol and class refs resolve"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
