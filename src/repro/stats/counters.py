"""Exploration counters shared by both checkers.

Every quantity the paper reports lives here: transitions executed (the
157,332 vs 1,186 comparison of §5.1), states visited (global / node /
system, Fig. 11), invariant checks, preliminary violations, soundness
verification calls and the number of event sequences those calls examined
(the 773 calls / 427,731 sequences breakdown of §5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple


@dataclass
class ExplorationStats:
    """Mutable counter block carried by a single checker run."""

    #: Handler executions that produced a transition (global MC: every event
    #: executed on a global state; LMC: every event executed on a node state).
    transitions: int = 0
    #: Handler executions that turned out to be no-ops (state unchanged, no
    #: sends); tracked separately because they are work but not transitions.
    noop_executions: int = 0
    #: Distinct global states visited (global checker only).
    global_states: int = 0
    #: Distinct node states visited, summed over nodes (LMC only).
    node_states: int = 0
    #: System states materialised for invariant checking.
    system_states_created: int = 0
    #: Invariant evaluations performed.
    invariant_checks: int = 0
    #: Invariant violations before soundness verification (LMC only).
    preliminary_violations: int = 0
    #: Soundness verification invocations (LMC only).
    soundness_calls: int = 0
    #: Event sequences examined across all soundness calls (LMC only).
    soundness_sequences: int = 0
    #: Violations confirmed valid and reported as bugs.
    confirmed_bugs: int = 0
    #: Node states discarded due to local assertion failures (§4.2).
    states_discarded_by_assert: int = 0
    #: Sends suppressed by the duplicate-message limit (§4.2).
    suppressed_duplicates: int = 0
    #: Deliveries skipped because the message was in the state's history
    #: (§4.2 "Duplicate messages", redundant-execution rule).
    history_skips: int = 0
    #: Soundness sequence enumerations answered from the per-record memo
    #: instead of re-walking the predecessor DAG.
    sequence_cache_hits: int = 0
    #: Soundness replays answered from the verdict cache instead of
    #: re-running the hash replay (the combination is still counted in
    #: ``soundness_sequences`` — the cache changes cost, not semantics).
    replay_cache_hits: int = 0
    #: Rejected-combination cache entries dropped by the LRU bound
    #: (``repro.core.checker.REJECTED_CACHE_LIMIT``).
    rejected_cache_evictions: int = 0
    #: Crash events executed by the fault scheduler (docs/FAULTS.md).
    fault_crashes: int = 0
    #: Restart events executed by the fault scheduler.
    fault_restarts: int = 0
    #: Drop events executed by the fault scheduler (docs/FAULTS.md).
    fault_drops: int = 0
    #: Duplicate redeliveries executed by the fault scheduler.
    fault_duplicates: int = 0
    #: Deliveries blocked (message × round) by an active partition window.
    partition_blocks: int = 0
    #: Exploration rounds whose frontier was dispatched to the worker pool
    #: (docs/PERFORMANCE.md "Parallel frontier exploration").
    explore_rounds_parallel: int = 0
    #: Frontier shards shipped to workers across all parallel rounds.
    explore_shards: int = 0
    #: Speculative successor states whose deterministic merge found the
    #: state already in ``LS_n`` (cross-shard rediscoveries suppressed into
    #: a predecessor pointer, exactly as serial dedup would).
    explore_merge_conflicts_suppressed: int = 0
    #: Candidate system-state combinations skipped because another member of
    #: their symmetry orbit was already checked (docs/REDUCTION.md); zero
    #: unless ``LMCConfig.symmetry_reduction`` is on.
    symmetry_skips: int = 0
    #: Non-canonical predecessor pointers suppressed by commutativity
    #: pruning (docs/REDUCTION.md); zero unless ``LMCConfig.por_pruning``.
    por_links_suppressed: int = 0
    #: Wall-clock seconds attributed to each checker phase; keys are phase
    #: names such as "explore", "system_states", "soundness" (Fig. 13).
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def add_phase_time(self, phase: str, seconds: float) -> None:
        """Accumulate wall-clock time into a named phase bucket."""
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def snapshot(self) -> Dict[str, float]:
        """Plain-dict copy of all counters (cheap, for depth series rows)."""
        snap = {name: getattr(self, name) for name in COUNTERS}
        for name, secs in self.phase_seconds.items():
            snap[f"phase_{name}_s"] = secs
        return snap

    def merge(self, other: "ExplorationStats") -> None:
        """Fold a later pass's counter block into this run total."""
        for name in COUNTERS:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for phase, seconds in other.phase_seconds.items():
            self.add_phase_time(phase, seconds)


#: The integer counters of :class:`ExplorationStats`, in declaration order —
#: the key order of :meth:`ExplorationStats.snapshot` and of the pinned
#: benchmark counters.  ``phase_seconds`` is the one non-counter field.
COUNTERS: Tuple[str, ...] = tuple(
    f.name for f in fields(ExplorationStats) if f.name != "phase_seconds"
)
