#!/usr/bin/env python3
"""Live bytes per node state, by layer, at the end of an exploration pass.

Runs correct two-proposal Paxos (the ``paxos2_explore`` workload of
``bench/`` at its default seed: three nodes, LMC-OPT, no faults) to a
depth bound under
``tracemalloc``, snapshots every live allocation when the exploration pass
returns — before the checker drops it — and charges each allocation site to
a layer:

* ``interner`` — ``model/hashing.py``: the identity table, the value memo,
  their order structures, the canonical bytes and digests;
* ``records`` — ``core/records.py`` and the history sets the checker builds
  for a new record;
* ``links`` — predecessor links, their generated-hash tuples and the
  per-record link lists (and any per-record dedup structure);
* ``deferred`` — the sweeps' depth-deferred record indexes;
* ``network`` — the monotonic ``I+`` log;
* ``other`` — everything else: the node states, messages and events the
  handlers built, the LMC-OPT summary index, interpreter overhead.

A site is a source line; it is mapped to its enclosing function and
statement through the AST, so the rules below name functions, not line
numbers.  The deterministic Fig. 12 model (``memory_bytes``, what the
checker charges itself) is printed alongside.

Usage::

    python tools/mem_probe.py [--depth 6] [--sites N] [--src DIR]

``--src`` probes another checkout's ``src`` (for a before/after table);
``--sites N`` also lists the N largest allocation sites.  Prints markdown.
"""

from __future__ import annotations

import argparse
import ast
import functools
import sys
import tracemalloc
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``(file suffix, function-name prefix, statement substring, layer)``;
#: the first row that matches a site wins.  Empty strings match anything.
#: The ``_link_keys`` row (and ``PredecessorLink.identity`` under the
#: ``PredecessorLink`` row) match only an older checkout's per-record link
#: key sets, so ``--src`` can probe it for a before/after table.
RULES = (
    ("repro/model/hashing.py", "", "", "interner"),
    ("repro/core/checker.py", "_ExplorationPass._integrate", "PredecessorLink(", "links"),
    ("repro/core/checker.py", "_ExplorationPass._integrate", "history", "records"),
    ("repro/core/checker.py", "_ExplorationPass._offer", "", "deferred"),
    ("repro/core/checker.py", "_ExplorationPass._sweep_lane", "", "deferred"),
    ("repro/core/event_kinds.py", "Cursor.", "", "deferred"),
    ("repro/network/monotonic.py", "", "deferred", "deferred"),
    ("repro/network/monotonic.py", "", "", "network"),
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
    path = filename.replace("\\", "/")
    for suffix, prefix, needle, layer in RULES:
        if path.endswith(suffix) and function.startswith(prefix) and needle in statement:
            return layer
    return "other"


def probe(depth: int) -> dict:
    """Run the pass and return its snapshot, node-state count and model bytes."""
    from repro import LMCConfig, LocalModelChecker
    from repro.core import checker
    from repro.explore.budget import SearchBudget
    from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

    seen: dict = {}
    execute = checker._ExplorationPass.execute

    def execute_and_snapshot(run_pass):
        outcome = execute(run_pass)
        seen["snapshot"] = tracemalloc.take_snapshot()
        seen.update(run_pass._metric_gauges())
        return outcome

    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1")))
    lmc = LocalModelChecker(
        protocol, PaxosAgreement(0), SearchBudget(max_depth=depth), LMCConfig.optimized()
    )
    checker._ExplorationPass.execute = execute_and_snapshot
    tracemalloc.start()
    try:
        result = lmc.run()
    finally:
        tracemalloc.stop()
        checker._ExplorationPass.execute = execute
    if result.bugs or not result.completed:
        raise SystemExit("expected a clean run completed to its bound")
    return seen


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--sites", type=int, default=0, metavar="N")
    parser.add_argument("--src", default=str(REPO_ROOT / "src"), metavar="DIR")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    seen = probe(args.depth)
    snapshot = seen["snapshot"].filter_traces(
        [tracemalloc.Filter(False, tracemalloc.__file__)]
    )
    by_layer = dict.fromkeys(LAYERS, 0)
    by_site: dict = {}
    for stat in snapshot.statistics("lineno"):
        frame = stat.traceback[0]
        function, statement = site_index(frame.filename).get(frame.lineno, ("", ""))
        layer = layer_of(frame.filename, function, statement)
        by_layer[layer] += stat.size
        name = frame.filename.replace("\\", "/")
        name = name.rsplit("/repro/", 1)[1] if "/repro/" in name else Path(name).name
        site = (layer, name, function)
        by_site[site] = by_site.get(site, 0) + stat.size
    states = seen["node_states"]
    total = sum(by_layer.values())
    print(
        f"Correct two-proposal Paxos, d={args.depth}: {states:,} node states; "
        f"live at the end of the pass (tracemalloc) {total:,} B; "
        f"Fig. 12 model (memory_bytes) {seen['memory_bytes']:,} B.\n"
    )
    print("| layer | live bytes | bytes per node state |")
    print("|---|---:|---:|")
    for layer in LAYERS:
        print(f"| {layer} | {by_layer[layer]:,} | {by_layer[layer] / states:,.0f} |")
    print(f"| total | {total:,} | {total / states:,.0f} |")
    print(f"| Fig. 12 model | {seen['memory_bytes']:,} | {seen['memory_bytes'] / states:,.0f} |")
    if args.sites:
        print("\n| layer | site | live bytes |")
        print("|---|---|---:|")
        ranked = sorted(by_site.items(), key=lambda item: -item[1])[: args.sites]
        for (layer, filename, function), size in ranked:
            print(f"| {layer} | `{filename}` {function or '(module)'} | {size:,} |")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
