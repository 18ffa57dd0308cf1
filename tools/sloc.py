#!/usr/bin/env python3
"""Code lines per module: the yardstick of the "least code" ROADMAP aim.

A *code line* is a physical line carrying at least one token that is neither
a comment nor part of a docstring, so documentation and reason-giving
comments are free and only executable text is counted.  Blank lines and
pure-punctuation continuation lines of a docstring expression do not count.

Usage::

    python tools/sloc.py [PATH ...]      # default: src/repro/core

Each PATH is a ``.py`` file or a directory (walked recursively).  Prints one
row per module plus a total per directory argument.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIPPED = frozenset(
    {
        tokenize.COMMENT,
        tokenize.NL,
        tokenize.NEWLINE,
        tokenize.INDENT,
        tokenize.DEDENT,
        tokenize.ENCODING,
        tokenize.ENDMARKER,
    }
)


def _docstring_lines(tree: ast.AST) -> set:
    """Line numbers covered by module/class/function docstrings."""
    lines: set = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """Number of code lines in one Python source file."""
    source = path.read_text(encoding="utf-8")
    docstrings = _docstring_lines(ast.parse(source))
    counted: set = set()
    with path.open("rb") as handle:
        for token in tokenize.tokenize(handle.readline):
            if token.type in _SKIPPED:
                continue
            for line in range(token.start[0], token.end[0] + 1):
                if line not in docstrings:
                    counted.add(line)
    return len(counted)


def main(argv: list) -> int:
    root = Path(__file__).resolve().parent.parent
    targets = [Path(arg) for arg in argv] or [root / "src" / "repro" / "core"]
    for target in targets:
        files = sorted(target.rglob("*.py")) if target.is_dir() else [target]
        total = 0
        for path in files:
            count = code_lines(path)
            total += count
            print(f"{count:6d}  {path}")
        if target.is_dir():
            print(f"{total:6d}  {target}/ (total)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
