#!/usr/bin/env python3
"""Before/after benchmark harness for the LMC hot-path caches.

Runs the Fig. 10/11 workloads (and the §5.5/§5.6 snapshot experiments) in
two modes — *cached* (every cache enabled, the library default) and
*uncached* (hash interning, soundness memoization and
incremental enumeration all disabled, reproducing the pre-optimization hot
path) — and writes ``BENCH_lmc.json`` with wall-clock, transition counts,
peak RSS and cache hit rates.

Every (workload, mode) pair executes in a fresh child process so each
measurement sees cold caches, an honest ``ru_maxrss``, and no JIT-warm
interpreter state from the other mode.  Wall-clock is the **minimum** over
``--repeat`` runs (minimum, not mean: scheduling noise only ever adds time).

A third leg (``--explore-workers N``, default 2; 0 disables) reruns every
workload with parallel frontier exploration on — caches as in cached mode —
and asserts the same counter/verdict/trace equality against the serial
cached run (docs/PERFORMANCE.md: the parallel merge must be semantics-
preserving, exactly like the caches).  The measured wall clock and
serial/parallel speedup are recorded; the payload also records ``cpus`` so
a reader can tell a real speedup environment from a single-core container,
where the speculative executor can only break even at best.

A fourth leg (on by default; ``--no-reduction`` disables) reruns every
workload with symmetry reduction and commutativity pruning on
(docs/REDUCTION.md).  Reduction legitimately shrinks visit counts, so this
leg gates only verdicts and bug sets and records ``reduction_ratio`` —
unreduced over reduced ``system_states_created``.  The dedicated
``paxos_sym`` workload (four nodes, three interchangeable acceptors, LMC-GEN)
must show at least the 2x ratio the reduction promises; the gate is
count-based and therefore deterministic.

A fifth leg (full suite only; ``--no-incremental`` disables) measures
checkpoint-based depth extension (docs/CHECKPOINTS.md): one child runs the
Fig. 10 sweep *incrementally* — cold at d=4 with a final checkpoint, then
``extend_depth`` through d=6, 8, 10, each leg exploring only the frontier
the larger bound unblocks.  Per-depth counters must equal the cold
``fig10_dN`` runs exactly; the gated ``incremental_speedup`` is the
deterministic work ratio — transitions the cold sweep executes over
transitions the incremental chain executes — and must reach 1.5x, while
``wall_speedup`` records the measured wall-clock ratio (noisy, never
gated, and dominated by snapshot serialization on these sub-second
workloads).

The harness *asserts* that all modes produce identical counters, verdicts
and witness traces — the caches are required to be semantics-preserving —
and exits non-zero on any divergence, which is what the CI perf-smoke job
keys on.  Wall-clock is recorded but never gated in ``--quick`` mode:
shared CI runners are too noisy to assert timing.

Usage::

    PYTHONPATH=src python tools/bench.py                 # full suite
    PYTHONPATH=src python tools/bench.py --quick         # CI smoke subset
    PYTHONPATH=src python tools/bench.py --verify-counts BENCH_lmc.json
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC_ROOT = os.path.join(REPO_ROOT, "src")
if SRC_ROOT not in sys.path:
    sys.path.insert(0, SRC_ROOT)

#: Counter keys excluded from the cross-mode equality check: phase timers
#: are wall-clock, and the cache-hit counters are *about* the caches (the
#: uncached mode reports zeros for them by construction).
NONDETERMINISTIC_KEYS = ("phase_",)
CACHE_ONLY_KEYS = frozenset(
    {"sequence_cache_hits", "replay_cache_hits", "rejected_cache_evictions"}
)
#: Likewise excluded: these count parallel-exploration machinery (rounds
#: dispatched, shards, merge-suppressed rediscoveries), so serial runs
#: report zeros for them by construction.
EXPLORE_ONLY_KEYS = frozenset(
    {
        "explore_rounds_parallel",
        "explore_shards",
        "explore_merge_conflicts_suppressed",
    }
)
#: And these count the reduction machinery (docs/REDUCTION.md): orbit skips
#: and suppressed delivery orderings are zero with the knobs off and are
#: reported in the ``reduced`` leg's own section, not in ``counts``.
REDUCTION_ONLY_KEYS = frozenset({"symmetry_skips", "por_links_suppressed"})

#: Depths for the Fig. 10 sweep.  ``max_depth`` bounds *per-node* discovery
#: depth, which saturates around 9 on the single-proposal space, so this
#: brackets early, middle and full exploration.
FIG10_DEPTHS = (4, 6, 8, 10)

#: Synthetic workload name for the incremental-extension leg (the child
#: chains the whole ``fig10_dN`` series in one process, so it is not one of
#: the per-depth workloads).
INCREMENTAL_SERIES = "fig10_series"


def _filtered_counts(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The deterministic, mode-independent subset of a stats snapshot."""
    return {
        key: value
        for key, value in snapshot.items()
        if not key.startswith(NONDETERMINISTIC_KEYS)
        and key not in CACHE_ONLY_KEYS
        and key not in EXPLORE_ONLY_KEYS
        and key not in REDUCTION_ONLY_KEYS
    }


# -- workload definitions (imported lazily, children only) ---------------------


def _build_checker(workload: str, config_overrides: Dict[str, Any]):
    """Return ``(checker, initial_system)`` for a workload name.

    Imports live here so the parent process never loads ``repro`` — parents
    only fork children and compare their JSON reports.
    """
    from repro.core.checker import LocalModelChecker
    from repro.core.config import LMCConfig
    from repro.explore.budget import SearchBudget

    if workload == "paxos2_d6":
        # The deep parallel-exploration workload: two competing proposals
        # make the frontier wide enough (thousands of items per round) that
        # round sharding has real work to amortize dispatch against.
        from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

        protocol = PaxosProtocol(
            num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1"))
        )
        config = LMCConfig.optimized(**config_overrides)
        return (
            LocalModelChecker(
                protocol, PaxosAgreement(0), SearchBudget(max_depth=6), config
            ),
            None,
        )

    if workload in ("paxos_opt", "paxos_gen") or workload.startswith("fig10_d"):
        from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        invariant = PaxosAgreement(0)
        if workload == "paxos_gen":
            config = LMCConfig.general(**config_overrides)
            budget = SearchBudget.unbounded()
        else:
            config = LMCConfig.optimized(**config_overrides)
            budget = (
                SearchBudget(max_depth=int(workload[len("fig10_d") :]))
                if workload.startswith("fig10_d")
                else SearchBudget.unbounded()
            )
        return LocalModelChecker(protocol, invariant, budget, config), None

    if workload == "paxos_sym":
        # The symmetry-reduction workload (docs/REDUCTION.md): four nodes,
        # one scripted proposer, so the three passive acceptors form one
        # symmetry class (group size 6).  LMC-GEN so the full Cartesian
        # product is actually enumerated — LMC-OPT on the correct protocol
        # creates no system states at all, leaving nothing to reduce — and
        # depth-bounded because the four-node product explodes past d=4.
        from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

        protocol = PaxosProtocol(num_nodes=4, proposals=((0, 0, "v0"),))
        config = LMCConfig.general(**config_overrides)
        return (
            LocalModelChecker(
                protocol, PaxosAgreement(0), SearchBudget(max_depth=4), config
            ),
            None,
        )

    if workload == "paxos_faults":
        # Crash–restart scheduling on (docs/FAULTS.md): the single-proposal
        # space with one crash per node.  Count-equality gated like every
        # workload; wall-clock never gated.
        from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        config = LMCConfig.optimized(fault_events_enabled=True, **config_overrides)
        return (
            LocalModelChecker(
                protocol, PaxosAgreement(0), SearchBudget.unbounded(), config
            ),
            None,
        )

    if workload == "twophase_drops":
        # Omission-fault scheduling on (docs/FAULTS.md): presumed-abort 2PC
        # whose atomicity invariant only breaks when the checker drops the
        # coordinator's Decision message.  Bug-found gated in main() — this
        # leg exists to prove the drop sweep reaches real violations, and
        # count-equality gated across modes like every workload.
        from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit

        protocol = TimeoutTwoPhaseCommit(3)
        config = LMCConfig.optimized(drop_faults=True, **config_overrides)
        return (
            LocalModelChecker(
                protocol, Atomicity(), SearchBudget.unbounded(), config
            ),
            None,
        )

    if workload == "s55_snapshot":
        from repro.protocols.paxos import PaxosAgreement
        from repro.protocols.paxos.scenarios import (
            partial_choice_state,
            scenario_protocol,
        )

        checker = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            config=LMCConfig.optimized(**config_overrides),
        )
        return checker, partial_choice_state()

    if workload == "s56_onepaxos":
        from repro.protocols.onepaxos import OnePaxosAgreement
        from repro.protocols.onepaxos.scenarios import (
            post_leaderchange_state,
            scenario_protocol,
        )

        protocol = scenario_protocol(buggy=True)
        checker = LocalModelChecker(
            protocol,
            OnePaxosAgreement(0),
            config=LMCConfig.optimized(**config_overrides),
        )
        return checker, post_leaderchange_state(protocol)

    raise SystemExit(f"unknown workload: {workload}")


def _run_child(workload: str, mode: str) -> None:
    """Child entry: run one (workload, mode) and print a JSON report."""
    if mode == "incremental":
        if workload != INCREMENTAL_SERIES:
            raise SystemExit(
                f"incremental mode runs the whole {INCREMENTAL_SERIES} chain, "
                f"not {workload!r}"
            )
        _run_incremental_child()
        return

    import resource

    from repro.model import hashing

    if mode == "uncached":
        hashing.configure_interning(False)
        overrides: Dict[str, Any] = {
            "memoize_soundness": False,
            "incremental_enumeration": False,
        }
    elif mode.startswith("explore"):
        # Parallel frontier exploration on top of the cached defaults.  Low
        # threshold/shard floor so even the smaller workloads actually cross
        # the dispatch path instead of silently staying serial.
        overrides = {
            "explore_workers": int(mode[len("explore") :]),
            "explore_round_threshold": 32,
            "explore_shard_min": 8,
        }
    elif mode == "reduced":
        # Symmetry + commutativity reduction on top of the cached defaults
        # (docs/REDUCTION.md).  Visit counts legitimately shrink, so this
        # leg is gated on verdicts and bug sets, never on counts.
        overrides = {"symmetry_reduction": True, "por_pruning": True}
    else:
        overrides = {}

    checker, initial = _build_checker(workload, overrides)
    # Register with the run registry (docs/OBSERVABILITY.md "Live
    # operations") so `repro runs`/`repro status` can watch long bench
    # children.  Best effort: a read-only checkout still benches.
    handle = None
    try:
        from repro.obs.registry import RunRegistry

        handle = RunRegistry().register(
            command="bench", workload=workload, algorithm=mode
        )
        checker.run_handle = handle
    except OSError:
        pass
    start = time.perf_counter()
    try:
        result = checker.run(initial)
    except BaseException as exc:
        if handle is not None:
            handle.finish(status="failed", error=repr(exc))
        raise
    wall_s = time.perf_counter() - start
    if handle is not None:
        handle.finish(
            status="finished",
            completed=result.completed,
            stop_reason=result.stop_reason,
            transitions=result.stats.transitions,
            wall_s=wall_s,
        )

    counts = _filtered_counts(result.stats.snapshot())
    report = {
        "wall_s": wall_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "config": {
            "fault_events_enabled": checker.config.fault_events_enabled,
            "max_crashes_per_node": checker.config.max_crashes_per_node,
            "max_total_crashes": checker.config.max_total_crashes,
            "drop_faults": checker.config.drop_faults,
            "max_drops": checker.config.max_drops,
            "duplicate_faults": checker.config.duplicate_faults,
            "duplicate_limit": checker.config.duplicate_limit,
            "partition_schedules": [
                [start, end, list(srcs), list(dests)]
                for start, end, srcs, dests in checker.config.partition_schedules
            ],
            "explore_workers": checker.config.explore_workers,
            "symmetry_reduction": checker.config.symmetry_reduction,
            "por_pruning": checker.config.por_pruning,
        },
        "counts": counts,
        "completed": result.completed,
        "bugs": [bug.description for bug in result.bugs],
        "traces": [bug.trace_lines() for bug in result.bugs],
        "intern": hashing.intern_stats(),
        "cache_hits": {
            key: result.stats.snapshot()[key] for key in sorted(CACHE_ONLY_KEYS)
        },
        "explore": {
            key: result.stats.snapshot()[key] for key in sorted(EXPLORE_ONLY_KEYS)
        },
        "reduction": {
            key: result.stats.snapshot()[key] for key in sorted(REDUCTION_ONLY_KEYS)
        },
    }
    json.dump(report, sys.stdout)


def _run_incremental_child() -> None:
    """Child entry for the incremental leg: one chained Fig. 10 sweep.

    Runs ``fig10_d4`` cold with a final checkpoint, then builds a fresh
    checker per larger depth and feeds it the previous leg's snapshot via
    :meth:`~repro.core.checker.LocalModelChecker.extend_depth`, so each leg
    pays only for the frontier the new bound unblocks.  Reports per-depth
    wall clock and the same filtered counters as the normal child so the
    parent can assert equality against the cold ``fig10_dN`` runs.

    No run-registry handle here: four chained checkers sharing one
    heartbeat file would report a garbled depth series.
    """
    import resource
    import tempfile

    from repro.core.checkpoint import Checkpointer, load_checkpoint

    legs: Dict[str, Any] = {}
    with tempfile.TemporaryDirectory(prefix="bench-incremental-") as tmp:
        prev_path: Optional[str] = None
        for depth in FIG10_DEPTHS:
            workload = f"fig10_d{depth}"
            checker, _ = _build_checker(workload, {})
            path = os.path.join(tmp, f"{workload}.checkpoint.json")
            # ``every_rounds=None`` writes only the completed-pass snapshot
            # the next leg extends from — no mid-run cadence overhead.  The
            # deepest leg feeds no one, so it skips the write entirely.
            if depth != FIG10_DEPTHS[-1]:
                checker.checkpointer = Checkpointer(path)
            start = time.perf_counter()
            if prev_path is None:
                result = checker.run()
            else:
                result = checker.extend_depth(load_checkpoint(prev_path))
            wall_s = time.perf_counter() - start
            prev_path = path
            legs[workload] = {
                "wall_s": wall_s,
                "counts": _filtered_counts(result.stats.snapshot()),
                "completed": result.completed,
                "bugs": [bug.description for bug in result.bugs],
            }
    json.dump(
        {
            "legs": legs,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        },
        sys.stdout,
    )


# -- parent-side orchestration -------------------------------------------------


def _spawn(workload: str, mode: str) -> Dict[str, Any]:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_ROOT + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", workload, mode],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )
    if proc.returncode != 0:
        raise SystemExit(
            f"child {workload}/{mode} failed:\n{proc.stderr}\n{proc.stdout}"
        )
    return json.loads(proc.stdout)


def _measure(workload: str, mode: str, repeat: int) -> Dict[str, Any]:
    """Best-of-``repeat`` child runs; counts must agree across repeats."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeat):
        report = _spawn(workload, mode)
        if best is None:
            best = report
        else:
            if report["counts"] != best["counts"]:
                raise SystemExit(
                    f"{workload}/{mode}: counts differ between repeats "
                    "(the checker must be deterministic)"
                )
            if report["wall_s"] < best["wall_s"]:
                best["wall_s"] = report["wall_s"]
            best["peak_rss_kb"] = min(best["peak_rss_kb"], report["peak_rss_kb"])
    assert best is not None
    return best


def _measure_incremental(repeat: int) -> Dict[str, Any]:
    """Best-of-``repeat`` incremental children; counts must agree across repeats."""
    best: Optional[Dict[str, Any]] = None
    for _ in range(repeat):
        report = _spawn(INCREMENTAL_SERIES, "incremental")
        if best is None:
            best = report
            continue
        for workload, leg in report["legs"].items():
            kept = best["legs"][workload]
            if leg["counts"] != kept["counts"]:
                raise SystemExit(
                    f"{INCREMENTAL_SERIES}/{workload}: counts differ between "
                    "repeats (the checker must be deterministic)"
                )
            kept["wall_s"] = min(kept["wall_s"], leg["wall_s"])
        best["peak_rss_kb"] = min(best["peak_rss_kb"], report["peak_rss_kb"])
    assert best is not None
    return best


def _hit_rate(intern: Dict[str, int]) -> Optional[float]:
    total = intern.get("hits", 0) + intern.get("misses", 0)
    return round(intern["hits"] / total, 4) if total else None


def _compare_modes(
    workload: str, label: str, base: Dict[str, Any], other: Dict[str, Any]
) -> List[str]:
    """Equality errors between two mode reports ([] when semantics match)."""
    errors = []
    for field in ("counts", "completed", "bugs", "traces"):
        if base[field] != other[field]:
            errors.append(
                f"{workload}: {field} diverge between cached and {label} "
                f"modes:\n  cached: {base[field]}\n  {label}: {other[field]}"
            )
    return errors


def _reduction_ratio(
    base_counts: Dict[str, Any], reduced_counts: Dict[str, Any]
) -> Optional[float]:
    """Unreduced/reduced ``system_states_created`` (None when nothing ran)."""
    base = base_counts.get("system_states_created", 0)
    reduced = reduced_counts.get("system_states_created", 0)
    if base == 0 or reduced == 0:
        return None
    return round(base / reduced, 3)


def run_incremental_leg(
    results: Dict[str, Any], repeat: int, errors: List[str]
) -> None:
    """Measure the chained Fig. 10 extension and gate it against the cold sweep.

    Appends equality errors to ``errors`` and records the leg under
    ``results[INCREMENTAL_SERIES]``.  The entry carries the final depth's
    ``counts``/``completed``/``bugs`` so ``--verify-counts`` gates it like
    any other workload.
    """
    series = [f"fig10_d{depth}" for depth in FIG10_DEPTHS]
    print(f"[bench] {INCREMENTAL_SERIES} (checkpoint depth extension) ...", flush=True)
    report = _measure_incremental(repeat)
    cold_wall = warm_wall = 0.0
    for workload in series:
        leg = report["legs"][workload]
        cold = results[workload]
        for field in ("counts", "completed", "bugs"):
            if cold[field] != leg[field]:
                errors.append(
                    f"{INCREMENTAL_SERIES}/{workload}: {field} diverge between "
                    f"cold and extended runs:\n  cold:     {cold[field]}\n"
                    f"  extended: {leg[field]}"
                )
        cold_wall += cold["cached_wall_s"]
        warm_wall += leg["wall_s"]
    final = report["legs"][series[-1]]
    # The extended chain's stats accumulate across legs and must end equal
    # to the cold run at the final depth, so its ``transitions`` counter IS
    # the total exploration work the chain executed; the cold sweep re-pays
    # every shallower depth from scratch.  ``incremental_speedup`` is this
    # count-based work ratio — deterministic, hence the gated metric —
    # while ``wall_speedup`` records the measured (noisy, never gated)
    # wall-clock ratio.
    cold_transitions = sum(
        results[workload]["counts"]["transitions"] for workload in series
    )
    warm_transitions = final["counts"]["transitions"]
    results[INCREMENTAL_SERIES] = {
        "counts": final["counts"],
        "completed": final["completed"],
        "bugs": final["bugs"],
        "legs": {
            workload: {
                "wall_s": round(report["legs"][workload]["wall_s"], 4),
                "transitions": report["legs"][workload]["counts"]["transitions"],
            }
            for workload in series
        },
        "cold_sweep_wall_s": round(cold_wall, 4),
        "incremental_wall_s": round(warm_wall, 4),
        "wall_speedup": (
            round(cold_wall / warm_wall, 3) if warm_wall > 0 else None
        ),
        "cold_sweep_transitions": cold_transitions,
        "incremental_transitions": warm_transitions,
        "incremental_speedup": (
            round(cold_transitions / warm_transitions, 3) if warm_transitions else None
        ),
        "peak_rss_kb": report["peak_rss_kb"],
    }
    print(
        f"[bench]   cold_sweep={cold_wall:.3f}s incremental={warm_wall:.3f}s "
        f"incremental_speedup={results[INCREMENTAL_SERIES]['incremental_speedup']}x "
        f"(transitions) wall_speedup={results[INCREMENTAL_SERIES]['wall_speedup']}x",
        flush=True,
    )


def run_suite(
    workloads: List[str],
    repeat: int,
    explore_workers: int,
    reduction: bool,
    incremental: bool = True,
) -> Dict[str, Any]:
    results: Dict[str, Any] = {}
    errors: List[str] = []
    for workload in workloads:
        print(f"[bench] {workload} ...", flush=True)
        cached = _measure(workload, "cached", repeat)
        uncached = _measure(workload, "uncached", repeat)
        errors.extend(_compare_modes(workload, "uncached", cached, uncached))
        speedup = (
            round(uncached["wall_s"] / cached["wall_s"], 3)
            if cached["wall_s"] > 0
            else None
        )
        results[workload] = {
            "config": cached["config"],
            "counts": cached["counts"],
            "completed": cached["completed"],
            "bugs": cached["bugs"],
            "cached_wall_s": round(cached["wall_s"], 4),
            "uncached_wall_s": round(uncached["wall_s"], 4),
            "speedup": speedup,
            "cached_peak_rss_kb": cached["peak_rss_kb"],
            "uncached_peak_rss_kb": uncached["peak_rss_kb"],
            "intern_hit_rate": _hit_rate(cached["intern"]),
            "cache_hits": cached["cache_hits"],
        }
        print(
            f"[bench]   cached={cached['wall_s']:.3f}s "
            f"uncached={uncached['wall_s']:.3f}s speedup={speedup}x",
            flush=True,
        )
        if explore_workers > 0:
            # Serial vs parallel exploration, both with warm caches: the
            # parallel merge must reproduce the serial run bit for bit.
            explore = _measure(workload, f"explore{explore_workers}", repeat)
            errors.extend(_compare_modes(workload, "explore", cached, explore))
            speedup_explore = (
                round(cached["wall_s"] / explore["wall_s"], 3)
                if explore["wall_s"] > 0
                else None
            )
            results[workload]["explore"] = {
                "config": explore["config"],
                "wall_s": round(explore["wall_s"], 4),
                "speedup_vs_serial": speedup_explore,
                "peak_rss_kb": explore["peak_rss_kb"],
                "counters": explore["explore"],
            }
            print(
                f"[bench]   explore({explore_workers}w)={explore['wall_s']:.3f}s "
                f"speedup_vs_serial={speedup_explore}x "
                f"rounds={explore['explore']['explore_rounds_parallel']}",
                flush=True,
            )
        if reduction:
            # Symmetry + commutativity reduction on (docs/REDUCTION.md).
            # Visit counts legitimately shrink, so unlike the other legs
            # this one gates only the verdict and the bug set; the witness
            # may be the orbit's canonical representative rather than the
            # unreduced run's, so traces are not compared either.
            reduced = _measure(workload, "reduced", repeat)
            for field in ("completed", "bugs"):
                if cached[field] != reduced[field]:
                    errors.append(
                        f"{workload}: {field} diverge between cached and "
                        f"reduced modes:\n  cached:  {cached[field]}\n"
                        f"  reduced: {reduced[field]}"
                    )
            ratio = _reduction_ratio(cached["counts"], reduced["counts"])
            results[workload]["reduced"] = {
                "config": reduced["config"],
                "wall_s": round(reduced["wall_s"], 4),
                "system_states_created": reduced["counts"].get(
                    "system_states_created", 0
                ),
                "soundness_calls": reduced["counts"].get("soundness_calls", 0),
                "counters": reduced["reduction"],
                "reduction_ratio": ratio,
            }
            print(
                f"[bench]   reduced={reduced['wall_s']:.3f}s "
                f"reduction_ratio={ratio}x "
                f"skips={reduced['reduction']['symmetry_skips']} "
                f"por={reduced['reduction']['por_links_suppressed']}",
                flush=True,
            )
    if incremental and all(f"fig10_d{d}" in results for d in FIG10_DEPTHS):
        run_incremental_leg(results, repeat, errors)
    if errors:
        raise SystemExit("count/verdict divergence:\n" + "\n".join(errors))
    return results


def verify_counts(results: Dict[str, Any], baseline_path: str) -> None:
    """Fail when counts drifted from a committed baseline (timing ignored)."""
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    errors = []
    for workload, entry in results.items():
        base = baseline.get("workloads", {}).get(workload)
        if base is None:
            continue  # baseline predates this workload; not a regression
        for field in ("counts", "completed", "bugs"):
            current = entry[field]
            if field == "counts":
                # A counter the baseline predates is not drift as long as
                # it is zero here — the schema grew, the work did not.
                current = {
                    key: value
                    for key, value in current.items()
                    if key in base[field] or value != 0
                }
            if current != base[field]:
                errors.append(
                    f"{workload}: {field} regressed vs {baseline_path}:\n"
                    f"  baseline: {base[field]}\n  current:  {current}"
                )
    if errors:
        raise SystemExit("baseline regression:\n" + "\n".join(errors))
    print(f"[bench] counts match baseline {baseline_path}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--child", nargs=2, metavar=("WORKLOAD", "MODE"))
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI subset: skips paxos_gen and the full-depth sweep",
    )
    parser.add_argument("--out", default=os.path.join(REPO_ROOT, "BENCH_lmc.json"))
    parser.add_argument(
        "--repeat", type=int, default=3, help="runs per (workload, mode); best kept"
    )
    parser.add_argument(
        "--verify-counts",
        metavar="BASELINE.json",
        help="compare counts/verdicts against a committed baseline "
        "(wall-clock is never compared)",
    )
    parser.add_argument(
        "--no-speedup-gate",
        action="store_true",
        help="skip the >=2x paxos_opt wall-clock assertion (implied by --quick)",
    )
    parser.add_argument(
        "--explore-workers",
        type=int,
        default=2,
        metavar="N",
        help="also run each workload with N-worker parallel exploration and "
        "gate its counts against the serial run (0 skips the leg)",
    )
    parser.add_argument(
        "--no-reduction",
        action="store_true",
        help="skip the symmetry/commutativity reduction leg "
        "(docs/REDUCTION.md); on by default so BENCH_lmc.json records "
        "reduction_ratio per workload",
    )
    parser.add_argument(
        "--no-incremental",
        action="store_true",
        help="skip the checkpoint depth-extension leg (docs/CHECKPOINTS.md); "
        "on by default in the full suite (it needs the whole fig10 series, "
        "so --quick implies it)",
    )
    args = parser.parse_args()

    if args.child:
        _run_child(*args.child)
        return

    if args.quick:
        workloads = [
            "paxos_opt",
            "fig10_d6",
            "s55_snapshot",
            "paxos_faults",
            "twophase_drops",
            "paxos_sym",
        ]
        repeat = max(1, min(args.repeat, 2))
    else:
        workloads = [
            "paxos_opt",
            "paxos_gen",
            *[f"fig10_d{d}" for d in FIG10_DEPTHS],
            "s55_snapshot",
            "s56_onepaxos",
            "paxos_faults",
            "twophase_drops",
            "paxos2_d6",
            "paxos_sym",
        ]
        repeat = args.repeat

    results = run_suite(
        workloads,
        repeat,
        max(0, args.explore_workers),
        not args.no_reduction,
        incremental=not args.no_incremental,
    )

    # Write the report before any gating so a failing gate still leaves the
    # measurements on disk (CI uploads them as an artifact either way).
    payload = {
        "benchmark": "LMC hot-path caches (cached vs uncached)",
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "repeat": repeat,
        "quick": args.quick,
        "explore_workers": max(0, args.explore_workers),
        "workloads": results,
    }
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"[bench] wrote {args.out}")

    if args.verify_counts:
        verify_counts(results, args.verify_counts)

    if not args.quick and not args.no_speedup_gate:
        speedup = results["paxos_opt"]["speedup"]
        if speedup is None or speedup < 2.0:
            raise SystemExit(
                f"paxos_opt speedup {speedup}x below the 2x target "
                "(rerun on an idle machine, or pass --no-speedup-gate)"
            )

    # The incremental gate is count-based, hence deterministic: transitions
    # the cold per-depth sweep executes over transitions the extension
    # chain executes (docs/CHECKPOINTS.md).  Wall-clock incremental_speedup
    # is recorded but never gated.
    inc_entry = results.get(INCREMENTAL_SERIES)
    if inc_entry is not None:
        ratio = inc_entry["incremental_speedup"]
        if ratio is None or ratio < 1.5:
            raise SystemExit(
                f"{INCREMENTAL_SERIES} incremental_speedup {ratio}x below the "
                "1.5x target (depth extension re-explored paid-for state; "
                "see docs/CHECKPOINTS.md)"
            )

    # The drop-fault gate is a bug-found assertion, hence deterministic:
    # the twophase_drops leg exists precisely because its atomicity bug is
    # reachable only through the omission-fault sweep (docs/FAULTS.md), so
    # an empty bug list means the drop machinery silently stopped exploring.
    drops_entry = results.get("twophase_drops")
    if drops_entry is not None and not drops_entry["bugs"]:
        raise SystemExit(
            "twophase_drops found no atomicity violation (the drop-fault "
            "sweep regressed; see docs/FAULTS.md)"
        )

    # The reduction gate is count-based, hence deterministic — unlike the
    # wall-clock speedup it is safe to assert even on noisy CI runners.
    sym_entry = results.get("paxos_sym", {}).get("reduced")
    if sym_entry is not None:
        ratio = sym_entry["reduction_ratio"]
        if ratio is None or ratio < 2.0:
            raise SystemExit(
                f"paxos_sym reduction_ratio {ratio}x below the 2x target "
                "(symmetry reduction regressed; see docs/REDUCTION.md)"
            )


if __name__ == "__main__":
    main()
