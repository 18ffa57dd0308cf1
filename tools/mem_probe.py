#!/usr/bin/env python3
"""Live bytes per node state, by layer, at the end of an exploration pass.

Runs correct two-proposal Paxos (the ``paxos2_explore`` workload of
``bench/`` at its default seed: three nodes, LMC-OPT, no faults) to a
depth bound under
``tracemalloc``, snapshots every live allocation when the exploration pass
returns — before the checker drops it — and charges each allocation site to
a layer:

* ``interner`` — ``model/hashing.py``: the identity and cons tables, the
  eviction order, the entries with their digests and the canonical bytes
  they hold, and the canonical copies the interner builds;
* ``records`` — ``core/records.py`` and the history masks the checker
  builds for a new record;
* ``links`` — the stores' link rows and each record's first-link offset,
  the step table with its steps and generated-hash tuples (and, in an
  older checkout, ``PredecessorLink`` objects, per-record link lists and
  any per-record dedup structure);
* ``deferred`` — the sweeps' depth-deferred record indexes;
* ``network`` — the monotonic ``I+`` log;
* ``other`` — everything else: the node states, messages and events the
  handlers built, the LMC-OPT summary index, interpreter overhead.

A site is a source line; it is mapped to its enclosing function and
statement through the AST, so the rules below name functions, not line
numbers.  The interner's entries, the distinct values (canonical encodings)
they stand for and how many of them hold their bytes are printed alongside.

Usage::

    python tools/mem_probe.py [--depth 6] [--sites N] [--src DIR] [--repeat N]

``--src`` probes another checkout's ``src`` (for a before/after table);
``--sites N`` also lists the N largest allocation sites; ``--repeat N``
explores N times in one process, as the online loop restarts, and prints
the interner's entries and the live bytes after each run (the layer table
is the first run's).  Prints markdown.
"""

from __future__ import annotations

import argparse
import ast
import functools
import gc
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``(file suffix, function-name prefix, statement substring, layer)``;
#: the first row that matches a site wins.  Empty strings match anything.
#: The ``PredecessorLink`` rows, the ``predecessors`` row and the
#: ``_link_keys`` row match only older checkouts' link objects, per-record
#: link lists and key sets, so ``--src`` can probe them for a before/after
#: table.
RULES = (
    ("repro/model/hashing.py", "", "", "interner"),
    ("repro/core/checker.py", "_ExplorationPass._integrate", "steps.intern", "links"),
    ("repro/core/checker.py", "_ExplorationPass._integrate", "PredecessorLink(", "links"),
    ("repro/core/checker.py", "_ExplorationPass._integrate", "history", "records"),
    ("repro/core/checker.py", "_ExplorationPass._offer", "", "deferred"),
    ("repro/core/checker.py", "_ExplorationPass._sweep_lane", "", "deferred"),
    ("repro/core/event_kinds.py", "Cursor.", "", "deferred"),
    ("repro/network/monotonic.py", "", "deferred", "deferred"),
    ("repro/network/monotonic.py", "", "", "network"),
    ("repro/core/records.py", "StepTable", "", "links"),
    ("repro/core/records.py", "PredecessorLink", "", "links"),
    ("repro/core/records.py", "NodeStateRecord.add_predecessor", "", "links"),
    ("repro/core/records.py", "NodeStateRecord.__init__", "predecessors", "links"),
    ("repro/core/records.py", "NodeStateRecord.__init__", "_link_keys", "links"),
    ("repro/core/records.py", "", "", "records"),
)
LAYERS = ("interner", "records", "links", "deferred", "network", "other")


@functools.lru_cache(maxsize=None)
def site_index(filename: str) -> dict:
    """Source line -> (enclosing function, enclosing statement) of a file."""
    lines: dict = {}
    try:
        source = Path(filename).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError):
        return lines
    text = source.splitlines()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            name = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.stmt):
                # Outer statements first, so the innermost one wins.
                for line in range(child.lineno, child.end_lineno + 1):
                    lines[line] = (name, (child.lineno, child.end_lineno))
            visit(child, name)

    visit(ast.parse(source), "")
    return {
        line: (name, "\n".join(text[start - 1 : end]))
        for line, (name, (start, end)) in lines.items()
    }


def layer_of(filename: str, function: str, statement: str) -> str:
    if filename.startswith("<cons "):
        return "interner"  # the cons functions model/hashing.py generates
    path = filename.replace("\\", "/")
    for suffix, prefix, needle, layer in RULES:
        if path.endswith(suffix) and function.startswith(prefix) and needle in statement:
            return layer
    return "other"


def interner_counts() -> tuple:
    """(entries, distinct canonical encodings, entries holding their bytes)
    of the shared interner.  In an older checkout every entry holds them."""
    from repro.model import hashing

    interner = hashing._DEFAULT_INTERNER
    if hasattr(interner, "entries"):
        encodings = [encoded for _value, encoded in interner.entries()]
        held = sum(
            getattr(entry, "_encoded", True) is not None
            for entry in interner._cons.values()
        )
    else:  # an older checkout: identity-table entries are [value, bytes, digest]
        encodings = [entry[1] for entry in interner._table.values()]
        held = len(encodings)
    return len(interner), len(set(encodings)), held


def probe(depth: int, repeat: int = 1) -> list:
    """Run the pass ``repeat`` times in this process; per run, the snapshot
    at the end of the pass, its gauges and the interner's counts."""
    from repro import LMCConfig, LocalModelChecker
    from repro.core import checker
    from repro.explore.budget import SearchBudget
    from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

    runs: list = []
    execute = checker._ExplorationPass.execute

    def execute_and_snapshot(run_pass):
        outcome = execute(run_pass)
        seen = {"snapshot": tracemalloc.take_snapshot()}
        seen.update(run_pass._metric_gauges())
        runs.append(seen)
        return outcome

    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1")))
    checker._ExplorationPass.execute = execute_and_snapshot
    tracemalloc.start()
    try:
        for _ in range(repeat):
            # The last run's pass is garbage (reference cycles included):
            # what stays live is what the process keeps across runs.
            gc.collect()
            lmc = LocalModelChecker(
                protocol,
                PaxosAgreement(0),
                SearchBudget(max_depth=depth),
                LMCConfig.optimized(),
            )
            result = lmc.run()
            if result.bugs or not result.completed:
                raise SystemExit("expected a clean run completed to its bound")
            runs[-1]["entries"], runs[-1]["distinct"], runs[-1]["held"] = interner_counts()
    finally:
        tracemalloc.stop()
        checker._ExplorationPass.execute = execute
    return runs


def by_layer(snapshot) -> tuple:
    """Live bytes per layer and per allocation site of ``snapshot``."""
    snapshot = snapshot.filter_traces([tracemalloc.Filter(False, tracemalloc.__file__)])
    layers = dict.fromkeys(LAYERS, 0)
    sites: dict = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        function, statement = site_index(frame.filename).get(frame.lineno, ("", ""))
        layer = layer_of(frame.filename, function, statement)
        layers[layer] += stat.size
        name = frame.filename.replace("\\", "/")
        name = name.rsplit("/repro/", 1)[1] if "/repro/" in name else Path(name).name
        site = (layer, name, function)
        sites[site] = sites.get(site, 0) + stat.size
    return layers, sites


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--sites", type=int, default=0, metavar="N")
    parser.add_argument("--src", default=str(REPO_ROOT / "src"), metavar="DIR")
    parser.add_argument("--repeat", type=int, default=1, metavar="N")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    sys.path.insert(0, str(Path(args.src).resolve()))
    runs = probe(args.depth, args.repeat)
    first = runs[0]
    layers, sites = by_layer(first["snapshot"])
    states = first["node_states"]
    total = sum(layers.values())
    print(
        f"Correct two-proposal Paxos, d={args.depth}: {states:,} node states; "
        f"live at the end of the pass (tracemalloc) {total:,} B; "
        f"interner {first['entries']:,} entries for {first['distinct']:,} "
        f"distinct values, {first['held']:,} holding their bytes.\n"
    )
    print("| layer | live bytes | bytes per node state |")
    print("|---|---:|---:|")
    for layer in LAYERS:
        print(f"| {layer} | {layers[layer]:,} | {layers[layer] / states:,.0f} |")
    print(f"| total | {total:,} | {total / states:,.0f} |")
    if args.sites:
        print("\n| layer | site | live bytes |")
        print("|---|---|---:|")
        ranked = sorted(sites.items(), key=lambda item: -item[1])[: args.sites]
        for (layer, filename, function), size in ranked:
            print(f"| {layer} | `{filename}` {function or '(module)'} | {size:,} |")
    if args.repeat > 1:
        print(
            "\n| run | node states | interner entries | distinct values "
            "| holding bytes | interner live bytes | total live bytes |"
        )
        print("|---:|---:|---:|---:|---:|---:|---:|")
        for number, run in enumerate(runs, 1):
            layers = by_layer(run["snapshot"])[0]
            print(
                f"| {number} | {run['node_states']:,} | {run['entries']:,} "
                f"| {run['distinct']:,} | {run['held']:,} | {layers['interner']:,} "
                f"| {sum(layers.values()):,} |"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
