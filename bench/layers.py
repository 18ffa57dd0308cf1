"""Per-layer metrics: one traced repetition turned into ``<layer>.<metric>`` values.

A layer is a module under ``src/repro``.  Counts come from the checker's own
result surface (``stats.snapshot()``, ``intern_stats()``,
``Checkpointer.writes``) or the wrappers' call counters; every ``*_s`` is
self time from ``bench/trace.py``, rescaled like the end-to-end times to the
quiet box (the child's ``scale``, or its ``speed`` where no yardstick tick
fell: pool workers, witness replay).
Three ratios need a second workload (:data:`REFERENCES`); a metric that does
not apply to a workload reads 0.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Dict, List, Optional

#: workload -> the workload its cross-workload ratio is taken against.
REFERENCES = {
    "paxos2_explore_par": "paxos2_explore",
    "paxos2_explore_obs": "paxos2_explore",
    "paxos1_gen_reduced": "paxos1_gen_enum",
}


#: Counters that describe a cache or the parallel machinery, not the explored
#: space: left out when two *different* configurations must agree.
_CONFIG_ONLY = frozenset(
    {
        "sequence_cache_hits",
        "replay_cache_hits",
        "rejected_cache_evictions",
        "explore_rounds_parallel",
        "explore_shards",
        "explore_merge_conflicts_suppressed",
    }
)


def space_counters(counters: Dict[str, int]) -> Dict[str, int]:
    """The counters two configurations of the same space must agree on."""
    return {k: v for k, v in counters.items() if k not in _CONFIG_ONLY}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def percentile(samples: List[float], share: float) -> float:
    """Nearest-rank percentile; 0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def derive(
    name: str,
    traced: Dict[str, Any],
    untraced: List[Dict[str, Any]],
    reference: Optional[List[Dict[str, Any]]],
) -> Dict[str, float]:
    """Every per-layer metric of one workload.

    ``traced`` is the traced child's report, ``untraced`` the untraced
    repetitions of the same workload (their median wall is the base of
    every rate and overhead share) and ``reference`` the untraced
    repetitions of ``REFERENCES[name]``, when there is one.
    """
    stats = traced["trace"]["stats"]
    counters = traced["counters"]
    extra = traced["extra"]
    speed, scale = traced["speed"], traced["scale"]
    phases = {phase: scale * s for phase, s in traced["phase_seconds"].items()}
    wall_s = statistics.median(r["end_to_end"]["wall_s"] for r in untraced)

    def count(key: str) -> int:
        return counters.get(key, 0)

    def calls(prefix: str) -> int:
        return int(sum(s[0] for key, s in stats.items() if key.startswith(prefix)))

    def self_s(prefix: str) -> float:
        return scale * sum(s[1] for key, s in stats.items() if key.startswith(prefix))

    def restarts(share: Optional[float]) -> float:
        per_rep = [
            r["scale"] * (
                max(r["extra"]["restart_ms"]) if share is None
                else percentile(r["extra"]["restart_ms"], share)
            )
            for r in untraced
            if r["extra"].get("restart_ms")
        ]
        return statistics.median(per_rep) if per_rep else 0.0

    intern = extra["intern"]
    adds = calls("network.monotonic|MonotonicNetwork.add_hashed")
    soundness_calls = count("soundness_calls")
    created = count("system_states_created")
    ref_wall_s = ref_created = 0.0
    if reference:
        ref_wall_s = statistics.median(r["end_to_end"]["wall_s"] for r in reference)
        ref_created = reference[0]["counters"].get("system_states_created", 0)

    return {
        "model.hashing.calls": calls("model.hashing|"),
        "model.hashing.self_s": self_s("model.hashing|"),
        "model.hashing.intern_hit_share": _ratio(
            intern["hits"], intern["hits"] + intern["misses"]
        ),
        "protocols.handlers.calls": calls("protocols.handlers|"),
        "protocols.handlers.self_s": self_s("protocols.handlers|"),
        "protocols.handlers.noop_share": _ratio(
            count("noop_executions"), count("transitions")
        ),
        "network.monotonic.adds": adds,
        "network.monotonic.self_s": self_s("network.monotonic|"),
        "network.monotonic.dup_share": _ratio(count("suppressed_duplicates"), adds),
        "core.records.adds": calls("core.records|NodeStateStore.add"),
        "core.records.self_s": self_s("core.records|"),
        "core.records.node_states": count("node_states"),
        "core.records.history_skips": count("history_skips"),
        "invariants.checks": count("invariant_checks"),
        "invariants.self_s": self_s("invariants|"),
        "core.system_states.created": created,
        "core.system_states.self_s": self_s("core.system_states|"),
        "core.system_states.violation_share": _ratio(
            count("preliminary_violations"), created
        ),
        "core.symmetry.orbit_calls": calls("core.symmetry|SymmetryReducer.orbit_key"),
        "core.symmetry.self_s": self_s("core.symmetry|"),
        "core.symmetry.skips": count("symmetry_skips"),
        "core.symmetry.por_links_suppressed": count("por_links_suppressed"),
        "core.symmetry.reduction_ratio": (
            _ratio(ref_created, created) if name == "paxos1_gen_reduced" else 0.0
        ),
        "core.soundness.calls": soundness_calls,
        "core.soundness.sequences": count("soundness_sequences"),
        "core.soundness.self_s": self_s("core.soundness|"),
        "core.soundness.ms_per_call": _ratio(
            1000.0 * self_s("core.soundness|"), soundness_calls
        ),
        "core.soundness.confirm_share": _ratio(count("confirmed_bugs"), soundness_calls),
        "core.soundness.replay_cache_hit_share": _ratio(
            count("replay_cache_hits"), count("soundness_sequences")
        ),
        "core.soundness.sequence_cache_hits": count("sequence_cache_hits"),
        "core.checkpoint.writes": extra.get("checkpoint_writes", 0),
        "core.checkpoint.bytes_written": traced["trace"]["bytes_written"],
        "core.checkpoint.encode_s": self_s("core.checkpoint|snapshot_pass"),
        "core.checkpoint.save_s": self_s("core.checkpoint|save_checkpoint"),
        "core.checkpoint.load_s": self_s("core.checkpoint|load_checkpoint"),
        "core.checkpoint.restore_s": self_s("core.checkpoint|restore_pass")
        + self_s("core.checkpoint|verify_fingerprint"),
        "core.explore_parallel.rounds_parallel": count("explore_rounds_parallel"),
        "core.explore_parallel.shards": count("explore_shards"),
        "core.explore_parallel.merge_conflicts_suppressed": count(
            "explore_merge_conflicts_suppressed"
        ),
        "core.explore_parallel.dispatch_wait_s": self_s("core.explore_parallel|"),
        "core.explore_parallel.worker_cpu_s": speed * extra["worker_cpu_s"],
        "core.explore_parallel.speedup_vs_serial": (
            _ratio(ref_wall_s, wall_s) if name == "paxos2_explore_par" else 0.0
        ),
        "core.checker.transitions": count("transitions"),
        "core.checker.transitions_per_s": _ratio(count("transitions"), wall_s),
        "core.checker.self_s": self_s("core.checker|"),
        "core.checker.phase_explore_s": phases.get("explore", 0.0),
        "core.checker.phase_system_states_s": phases.get("system_states", 0.0),
        "core.checker.phase_soundness_s": phases.get("soundness", 0.0),
        "obs.emit_calls": calls("obs|TraceEmitter.") + calls("obs|span.__exit__"),
        "obs.emit_s": self_s("obs|TraceEmitter.") + self_s("obs|span."),
        "obs.heartbeat_s": self_s("obs|RunHandle."),
        "obs.coverage_s": self_s("obs|CoverageTracker."),
        "obs.trace_bytes": extra.get("trace_bytes", 0),
        "obs.overhead_share": (
            _ratio(wall_s - ref_wall_s, ref_wall_s)
            if name == "paxos2_explore_obs"
            else 0.0
        ),
        "online.restarts": count("restarts"),
        "online.live_s": self_s("online|LiveRun."),
        "online.drive_s": self_s("online|PaxosTestDriver.")
        + self_s("online|FreshIndexInjector."),
        "online.check_s": scale * sum(
            s[2] for key, s in stats.items() if key == "online|checker_factory"
        ),
        "online.restart_p50_ms": restarts(0.5),
        "online.restart_p80_ms": restarts(0.8),
        "online.restart_max_s": restarts(None) / 1000.0,
        "online.detection_sim_s": extra.get("detection_sim_s", 0.0),
        "replay.validate_s": speed * extra["validate_s"],
        "replay.witness_events": extra["witness_events"],
        "bench.trace.self_s": self_s("bench.trace|"),
        "bench.trace.overhead_share": _ratio(
            traced["end_to_end"]["wall_s"] - wall_s, wall_s
        ),
    }
