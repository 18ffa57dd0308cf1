"""The local model checker (LMC): Fig. 9's ``findBugs`` as a library.

The checker keeps, per node, the set ``LS_n`` of traversed local states and
one shared monotonic network ``I+``.  Exploration proceeds in rounds: every
stored message is executed on the destination node's states it has not seen
yet (the per-message cursor), and every node state executes its enabled
internal actions once.  New node states trigger temporary system-state
creation anchored at them; invariant violations on those states are
*preliminary* until soundness verification finds a valid total order of the
participating event sequences — only then is a bug reported, with the found
order as its witness trace.

Modes (§5):

* **LMC-GEN** — general system-state creation (full anchored product);
* **LMC-OPT** — invariant-specific creation via the invariant's local
  projections (``LMCConfig.optimized()``), the variant that finishes the
  single-proposal Paxos space in milliseconds;
* phase toggles reproduce the Fig. 13 configurations **LMC-explore**
  (``create_system_states=False``) and **LMC-system-state**
  (``verify_soundness=False``).

With ``LMCConfig.fault_events_enabled`` the round additionally runs a
**fault scheduler** (docs/FAULTS.md): every eligible node state is crashed
(producing a :class:`~repro.model.types.CrashedState` marker record that
executes no further events and joins no system state) and every crashed
record is restarted from its durable fragment.  The monotonic ``I+`` makes
this composition cheap — a crashed node's in-flight messages stay available
by construction.  Off by default, and when off the checker is byte-identical
to a build without the scheduler.

Three further fault dimensions compose the same way (docs/FAULTS.md), each
off by default and byte-identical-off:

* ``drop_faults`` — a **drop sweep** offers every undelivered stored copy
  to each destination record whose protocol declares a ``handle_drop``
  timeout hook; the resulting :class:`~repro.model.events.DropEvent`
  consumes the copy, so it is never-deliverable along that branch.
* ``duplicate_faults`` — a **duplication sweep** re-admits each generated
  message once through the network's ``duplicate_limit`` path; deliveries
  of the fault-minted copy bypass the §4.2 at-most-once history skip and
  integrate as :class:`~repro.model.events.DuplicateEvent` steps.
* ``partition_schedules`` — timed src/dest reachability masks applied in
  the delivery sweep: a blocked (message, destination) pair is counted as
  ``partition_blocks`` and retried once its window closes; a pair under a
  permanent window is simply never delivered.

All six event families run through one pipeline: a round walks the cursor
sweeps of :data:`repro.core.event_kinds.SWEEPS` (:meth:`_ExplorationPass._round`),
each offer passes the sweep's pure gate, and a gated-in offer executes
through :meth:`_ExplorationPass._execute` — i.e. through
:meth:`repro.model.protocol.Protocol.execute`, the dispatch witness replay
trusts — and folds into ``LS_n``/``I+`` in :meth:`_ExplorationPass._integrate`
as its :class:`~repro.core.event_kinds.EventKind` row prescribes.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Tuple

from repro.core.checkpoint import (
    CheckpointError,
    Checkpointer,
    CheckpointMismatch,
    apply_stats,
    decode_initial_system,
    restore_pass,
    verify_fingerprint,
)
from repro.core.config import LMCConfig
from repro.core.event_kinds import (
    ASSERT,
    BOUND,
    CURSOR_SWEEPS,
    DEFER,
    DELIVERY,
    DELIVERY_SWEEP,
    NOOP,
    SEEN,
    SWEEPS,
    Cursor,
    EventKind,
    Transition,
    execute,
)
from repro.core.explore_parallel import RoundSpeculator
from repro.core.pool import require_fork
from repro.core.records import (
    LINK_BYTES,
    LocalStateSpace,
    NodeStateRecord,
    PredecessorLink,
)
from repro.core.soundness import SoundnessVerifier
from repro.core.symmetry import SymmetryReducer
from repro.core.system_states import (
    Combination,
    SummaryIndex,
    combination_to_system_state,
    clean_block_size,
    enumerate_general,
    enumerate_optimized,
)
from repro.explore.budget import BudgetClock, SearchBudget
from repro.invariants.base import (
    DecomposableInvariant,
    Invariant,
    LocalInvariant,
    declares_summary,
)
from repro.model.events import DeliveryEvent
from repro.model.hashing import intern_stats, interning_enabled
from repro.model.protocol import Protocol
from repro.model.system_state import SystemState
from repro.model.types import NodeId
from repro.protocols.common import declared_action_names, declared_message_types
from repro.network.monotonic import MonotonicNetwork, StoredMessage
from repro.obs.coverage import NULL_COVERAGE, CoverageTracker
from repro.obs.emitter import NULL_EMITTER, TraceEmitter
from repro.obs.metrics import RunMetrics
from repro.obs.progress import estimate_progress
from repro.obs.registry import RunHandle
from repro.persistence import bug_from_dict
from repro.reports import BugReport, CheckResult
from repro.stats.counters import ExplorationStats
from repro.stats.series import DepthSeries

#: How many handler executions between wall-clock budget checks.
_BUDGET_CHECK_INTERVAL = 256

#: LRU bound on the ``reverify_rejected`` combination cache; evictions trade
#: the §4.2 completeness patch back for bounded memory on long online runs
#: and are surfaced as ``rejected_cache_evictions``.
REJECTED_CACHE_LIMIT = 4096

#: For :class:`~repro.invariants.base.LocalInvariant` violations, how many
#: system-state completions (combinations of the *other* nodes' states) to
#: try before giving the violating node state up as invalid.  A local
#: violation is a bug iff *some* valid system state contains the state, so
#: this cap bounds a secondary search; like the soundness caps it trades
#: completeness for bounded work.
MAX_COMPLETIONS_PER_LOCAL_VIOLATION = 64

#: In the pairwise LMC-OPT enumerator, how many completions over the
#: remaining nodes to build per conflicting pair of node states.
MAX_COMPLETIONS_PER_CONFLICT = 128


class _StopSearch(Exception):
    """Internal control flow: a stop criterion fired mid-exploration."""

    def __init__(self, reason: str, completed: bool):
        super().__init__(reason)
        self.reason = reason
        self.completed = completed


class LocalModelChecker:
    """Local model checking with a-posteriori soundness verification."""

    def __init__(
        self,
        protocol: Protocol,
        invariant: Invariant,
        budget: SearchBudget = SearchBudget.unbounded(),
        config: LMCConfig = LMCConfig(),
        emitter: Optional[TraceEmitter] = None,
        metrics_interval: Optional[float] = None,
        run_handle: Optional[RunHandle] = None,
        coverage: Optional[CoverageTracker] = None,
        checkpointer: Optional[Checkpointer] = None,
    ):
        require_fork(config.explore_workers)
        self.protocol = protocol
        self.invariant = invariant
        self.budget = budget
        self.config = config
        #: Trace sink (docs/OBSERVABILITY.md); ``None`` selects the shared
        #: zero-overhead null emitter.
        self.emitter = emitter if emitter is not None else NULL_EMITTER
        #: Wall-clock cadence (seconds) for trace metric samples while the
        #: explored depth is flat; ``None`` samples only on depth growth.
        self.metrics_interval = metrics_interval
        #: Run-registry handle for cross-process heartbeats ("Live
        #: operations" in docs/OBSERVABILITY.md); ``None`` disables them.
        self.run_handle = run_handle
        #: Coverage tracker (:mod:`repro.obs.coverage`); ``None`` selects
        #: the shared zero-overhead null tracker.
        self.coverage = coverage if coverage is not None else NULL_COVERAGE
        #: Durable-snapshot policy (docs/CHECKPOINTS.md); ``None`` — the
        #: default — writes nothing and leaves the checker byte-identical
        #: to a build without the checkpoint layer.
        self.checkpointer = checkpointer
        #: LMC-OPT's pairwise scan needs an invariant whose every violation
        #: a conflicting pair witnesses; any other invariant runs LMC-GEN.
        self.use_opt = (
            config.invariant_specific_creation
            and isinstance(invariant, DecomposableInvariant)
            and invariant.pairwise
        )
        self.algorithm = "LMC-OPT" if self.use_opt else "LMC-GEN"

    # -- public API ------------------------------------------------------------

    def coverage_report(self) -> Dict[str, object]:
        """JSON-ready coverage counters against the protocol's declared universe.

        Meaningful only when the checker was given an enabled
        :class:`~repro.obs.coverage.CoverageTracker`; with the null tracker
        all counts are empty.  Accumulates across widened passes — the
        tracker lives on the checker, not the pass.
        """
        return self.coverage.as_dict(
            declared_messages=declared_message_types(self.protocol),
            declared_actions=declared_action_names(self.protocol),
        )

    def run(self, initial_system: Optional[SystemState] = None) -> CheckResult:
        """Explore from ``initial_system`` (default: protocol initial state).

        With a local-event bound configured, bounded passes restart from
        scratch with widened bounds (§4.2 "Local events") until the budget is
        spent, a bug is found, or widening stops helping.  Statistics
        accumulate across passes; the depth series comes from the last pass.
        """
        if initial_system is None:
            initial_system = self.protocol.initial_system_state()
        clock = BudgetClock(self.budget)
        total_stats = ExplorationStats()
        result = CheckResult(
            algorithm=self.algorithm, completed=False, stats=total_stats
        )
        run_pass = _ExplorationPass(
            self, initial_system, clock, self.config.local_event_bound
        )
        return self._run_loop(total_stats, result, run_pass)

    def resume(self, payload: Dict[str, object]) -> CheckResult:
        """Continue a checkpointed run to its original budget.

        ``payload`` is a checkpoint loaded by
        :func:`repro.core.checkpoint.load_checkpoint`.  The configuration
        fingerprint and the deterministic budget bounds (``max_depth``,
        ``max_transitions``, ``max_states``) must match the checkpoint —
        mismatches raise :class:`CheckpointMismatch` instead of silently
        exploring a different space.  ``max_seconds`` may differ: granting a
        killed run more wall clock is the point of resuming; the budget
        clock is pre-aged by the checkpointed elapsed time either way.

        Checkpoints are written at round boundaries and the round sweep is
        deterministic, so a resumed run finishes with counters identical to
        the uninterrupted run's (rebuildable caches excepted — see
        docs/CHECKPOINTS.md).
        """
        saved = payload["budget"]
        for name in ("max_depth", "max_transitions", "max_states"):
            if getattr(self.budget, name) != saved[name]:
                raise CheckpointMismatch(
                    f"resume requires the checkpointed budget: {name} was "
                    f"{saved[name]!r}, this run has "
                    f"{getattr(self.budget, name)!r}"
                )
        total_stats, result, run_pass = self._restore(payload)
        return self._run_loop(total_stats, result, run_pass)

    def extend_depth(self, payload: Dict[str, object]) -> CheckResult:
        """Explore only the frontier a larger depth bound unblocks.

        ``payload`` must snapshot a *completed* depth-bounded pass; this
        checker's budget carries the new, strictly larger (or removed)
        ``max_depth``.  The restored pass re-offers exactly the deferred
        (message, record) and (node, record) pairs the old bound blocked —
        the incremental half of docs/CHECKPOINTS.md — instead of
        re-executing the paid-for prefix.
        """
        if not payload.get("pass_completed"):
            raise CheckpointMismatch(
                "depth extension requires a checkpoint of a completed pass "
                f"(this one stopped mid-pass: {payload.get('reason')!r}); "
                "resume() continues an interrupted run"
            )
        saved = payload["budget"]
        if saved["max_depth"] is None:
            raise CheckpointMismatch(
                "the checkpointed run was not depth-bounded; nothing to extend"
            )
        new_depth = self.budget.max_depth
        if new_depth is not None and new_depth <= saved["max_depth"]:
            raise CheckpointMismatch(
                f"extension depth must exceed the checkpointed bound "
                f"{saved['max_depth']} (got {new_depth})"
            )
        for name in ("max_transitions", "max_states"):
            if getattr(self.budget, name) != saved[name]:
                raise CheckpointMismatch(
                    f"depth extension must keep the checkpointed {name} "
                    f"({saved[name]!r}); this run has "
                    f"{getattr(self.budget, name)!r}"
                )
        total_stats, result, run_pass = self._restore(payload)
        run_pass._reoffer = True
        # The old bound's blockage is stale under the new bound; the pass
        # re-learns it from whatever the *new* bound defers.
        run_pass._blocked_by_depth = False
        return self._run_loop(total_stats, result, run_pass)

    def _restore(self, payload: Dict[str, object]):
        """Rebuild run-level state and the in-flight pass from a checkpoint.

        A payload that loaded but does not decode — an unknown event kind or
        class tag, a missing record key — raises :class:`CheckpointError`
        naming the cause, like any other unreadable checkpoint.
        """
        try:
            initial_system, registry = decode_initial_system(payload, self.protocol)
            verify_fingerprint(
                payload, self.protocol, self.invariant, self.config, initial_system
            )
            clock = BudgetClock(self.budget, already_elapsed=payload["elapsed_s"])
            total_stats = ExplorationStats()
            apply_stats(total_stats, payload["run"]["prior_stats"])
            result = CheckResult(
                algorithm=self.algorithm, completed=False, stats=total_stats
            )
            result.bugs.extend(
                bug_from_dict(item, registry) for item in payload["run"]["prior_bugs"]
            )
            run_pass = _ExplorationPass(
                self, initial_system, clock, payload["run"]["bound"]
            )
            restore_pass(run_pass, payload, registry)
        except CheckpointError:
            raise
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"checkpoint does not decode: {type(exc).__name__}: {exc}"
            ) from exc
        return total_stats, result, run_pass

    def _run_loop(
        self,
        total_stats: ExplorationStats,
        result: CheckResult,
        run_pass: "_ExplorationPass",
    ) -> CheckResult:
        """The widening pass loop, shared by run/resume/extend.

        ``run_pass`` is the first pass to execute — freshly seeded for
        :meth:`run`, checkpoint-restored for :meth:`resume` and
        :meth:`extend_depth`.  The attached checkpointer's SIGTERM handler
        is installed around the whole loop (cooperative: the flag is
        checked at round boundaries, where a snapshot is always safe).
        """
        checkpointer = self.checkpointer
        if checkpointer is not None:
            checkpointer.install()
        try:
            while True:
                # During a pass, ``total_stats``/``result.bugs`` hold exactly
                # the earlier passes' counters and bugs (merge/extend happen
                # below, after execute returns), which is what a mid-pass
                # checkpoint must record as run-level context.
                run_pass.prior_stats = total_stats
                run_pass.prior_bugs = result.bugs
                bound = run_pass.local_event_bound
                with self.emitter.span(
                    "pass", algorithm=self.algorithm, local_event_bound=bound
                ) as pass_span:
                    pass_outcome = run_pass.execute()
                    pass_span.add(
                        stop_reason=pass_outcome.reason,
                        transitions=run_pass.stats.transitions,
                    )
                total_stats.merge(run_pass.stats)
                result.bugs.extend(run_pass.bugs)
                result.series = run_pass.series
                if pass_outcome.stopped:
                    result.completed = pass_outcome.completed
                    result.stop_reason = pass_outcome.reason
                    return result
                # The pass saturated within its bound.
                if (
                    bound is None
                    or not run_pass.blocked_by_bound
                    or self.config.widen_increment == 0
                ):
                    result.completed = True
                    result.stop_reason = pass_outcome.reason
                    return result
                run_pass = _ExplorationPass(
                    self,
                    run_pass.initial_system,
                    run_pass.clock,
                    bound + self.config.widen_increment,
                )
        finally:
            if checkpointer is not None:
                checkpointer.uninstall()


class _PassOutcome:
    """How an exploration pass ended."""

    __slots__ = ("stopped", "completed", "reason")

    def __init__(self, stopped: bool, completed: bool, reason: str):
        self.stopped = stopped
        self.completed = completed
        self.reason = reason


class _ExplorationPass:
    """One from-scratch exploration under a fixed local-event bound."""

    def __init__(
        self,
        checker: LocalModelChecker,
        initial_system: SystemState,
        clock: BudgetClock,
        local_event_bound: Optional[int],
    ):
        self.checker = checker
        self.protocol = checker.protocol
        self.invariant = checker.invariant
        self.config = checker.config
        self.budget = checker.budget
        self.clock = clock
        self.local_event_bound = local_event_bound
        self.initial_system = initial_system

        self.stats = ExplorationStats()
        self.bugs: List[BugReport] = []
        self.series = DepthSeries(checker.algorithm)
        self.space = LocalStateSpace(self.protocol.node_ids())
        self.network = MonotonicNetwork(self.config.duplicate_limit)
        self.emitter = checker.emitter
        self.verifier = SoundnessVerifier(
            self.space,
            self.stats,
            max_sequences_per_node=self.config.max_sequences_per_node,
            max_combinations=self.config.max_combinations_per_check,
            emitter=self.emitter,
            memoize=self.config.memoize_soundness,
            replay_cache_limit=self.config.replay_cache_limit,
        )
        self.run_handle = checker.run_handle
        self.coverage = checker.coverage
        #: Round counter, exposed so heartbeats can report it mid-round.
        self.round_number = 0
        #: Counter/memory sampling into the depth series and the trace;
        #: owns the was-ad-hoc "sample when depth grows" bookkeeping.  The
        #: heartbeat hook keeps the interval cadence alive for the run
        #: registry even when tracing is off.
        self.metrics = RunMetrics(
            self.series,
            self.stats,
            clock.elapsed,
            emitter=self.emitter,
            interval=checker.metrics_interval,
            extra=self._metric_gauges,
            heartbeat=self._heartbeat if self.run_handle is not None else None,
        )
        self.blocked_by_bound = False
        self._blocked_by_depth = False
        # Per-node deepest discovery depth.  The exploration depth the paper
        # plots is the length of the longest *combined* event sequence, i.e.
        # the sum of the per-node sequence lengths (the 22-event
        # decomposition of §5.1 sums events across all three nodes), so the
        # series uses sum(per-node maxima).
        self._node_max_depth: Dict[NodeId, int] = {}
        self._retained_bytes = 0
        #: The round's sweeps (:data:`repro.core.event_kinds.SWEEPS`) this
        #: pass runs; a disabled fault sweep is absent, not inert.
        self.sweeps = tuple(sweep for sweep in SWEEPS if sweep.active(self))
        #: Sweep cursors by family name, then by node (``local``, ``fault``)
        #: or stored ``seq`` (``drop``); the delivery sweep's ride on the
        #: stored messages.  Each cursor's ``deferred`` set holds the
        #: depth-blocked record indexes it passed over — write-only
        #: bookkeeping in a fixed-bound run, consumed by depth extension
        #: (docs/CHECKPOINTS.md) under :attr:`_reoffer`.
        self.cursors: Dict[str, Dict[object, Cursor]] = {
            sweep.name: {} for sweep in CURSOR_SWEEPS
        }
        #: The depth budget the gates read (fixed for the pass's lifetime).
        self.max_depth = self.budget.max_depth
        #: Duplication cursor into the network admission log: sends at or
        #: above it have not been offered a fault-minted duplicate yet.
        self._dup_seq_cursor = 0
        #: True when this round blocked a pending delivery behind a partition
        #: window that eventually closes — the pass must keep rounding (the
        #: round number is the partition clock) instead of declaring
        #: fixpoint on a zero-execution round.
        self._partition_retry = False
        #: Run-level context preceding this pass — counters already merged
        #: and bugs already confirmed by earlier widened passes — so a
        #: mid-pass checkpoint can snapshot the whole run.  Rebound by
        #: ``_run_loop`` before each execute.
        self.prior_stats = ExplorationStats()
        self.prior_bugs: List[BugReport] = []
        #: True when this pass was rebuilt from a checkpoint: execute()
        #: then skips seeding (the seeds are among the restored records).
        self._restored = False
        #: Depth-extension mode: round 1 re-offers every deferred pair the
        #: old depth bound blocked, then the normal cursor sweeps take over.
        self._reoffer = False
        # reverify_rejected extension: cached rejected combinations (an LRU
        # ordered dict, bounded by ``REJECTED_CACHE_LIMIT``), indexed by the
        # (node, record index) pairs they contain.  Entry keys are monotone
        # insertion numbers; reverification touches an entry, eviction drops
        # the least recently touched.
        self._rejected_entries: "OrderedDict[int, Combination]" = OrderedDict()
        self._rejected_next = 0
        self._rejected_index: Dict[Tuple[NodeId, int], List[int]] = {}
        #: The invariant calls made (the ``materialise`` span's
        #: ``tuples_checked``; not a stats counter, so a summarised run's
        #: counters stay those of the per-combination walk).
        self._invariant_calls = 0
        #: The round's one ``materialise`` span: every :meth:`_check_new_state`
        #: of a round enters it and adds its counts, and each round's end
        #: flushes it.
        self._materialise = self.emitter.batch_span("materialise")
        #: Every non-crashed record's value, grouped (docs/PERFORMANCE.md):
        #: its projection under LMC-OPT, its summary under summarised
        #: LMC-GEN; ``None`` when the pass reads neither.
        key_of = None
        if self.config.create_system_states:
            if checker.use_opt:
                key_of = self.invariant.local_projection
            elif declares_summary(self.invariant):
                key_of = self.invariant.summary
        self._index: Optional[SummaryIndex] = (
            None if key_of is None else SummaryIndex(self.space.node_ids, key_of)
        )
        #: Parallel frontier exploration (docs/PERFORMANCE.md): per-round
        #: speculative precomputation of handler results and content hashes
        #: in forked children.  ``None`` (``explore_workers`` 0 or 1) keeps
        #: the sweep fully in-process.
        self._speculator: Optional[RoundSpeculator] = RoundSpeculator.for_pass(self)
        #: Symmetry reduction (docs/REDUCTION.md): orbit canonicalisation of
        #: candidate combinations under the protocol-declared node-symmetry
        #: group.  ``None`` — the default, and whenever the protocol declares
        #: no usable classes — leaves enumeration byte-identical to a build
        #: without the reducer.
        self._symmetry: Optional[SymmetryReducer] = SymmetryReducer.for_pass(self)
        #: Commutativity pruning (docs/REDUCTION.md): suppress non-canonical
        #: same-node delivery-order diamonds in the predecessor DAG.
        self._por = self.config.por_pruning

    # -- top level -------------------------------------------------------------

    def execute(self) -> _PassOutcome:
        """Run rounds to fixpoint, a stop criterion, or a confirmed bug."""
        checkpointer = self.checker.checkpointer
        try:
            if not self._restored:
                self._seed()
            while True:
                round_start = time.perf_counter()
                checked_before = self._checking_seconds()
                transitions_before = self.stats.transitions
                self.round_number += 1
                with self.emitter.span("round", number=self.round_number) as span:
                    try:
                        executions = self._round()
                        span.add(executions=executions)
                    finally:
                        self._materialise.flush()
                        # Attribute the round's exploration time even when a
                        # stop criterion (or confirmed bug) aborts it
                        # mid-round, so the Fig. 13 phase decomposition
                        # always accounts for the whole run.
                        round_elapsed = time.perf_counter() - round_start
                        span.add(
                            transitions=self.stats.transitions
                            - transitions_before
                        )
                        self.stats.add_phase_time(
                            "explore",
                            max(
                                0.0,
                                round_elapsed
                                - (self._checking_seconds() - checked_before),
                            ),
                        )
                self._record_depth_sample()
                # Checkpoints happen here and only here: a round boundary,
                # still inside the pass (the ``finally`` below folds
                # network counters into ``stats`` — a snapshot taken after
                # it would double-fold them when the restored pass ends).
                if executions == 0 and not self._partition_retry:
                    reason = (
                        "depth bound reached"
                        if self._blocked_by_depth
                        else "state space exhausted"
                    )
                    if checkpointer is not None:
                        checkpointer.snapshot(
                            self,
                            reason="pass completed",
                            pass_completed=True,
                            pass_reason=reason,
                        )
                        self._heartbeat_now()
                    return _PassOutcome(stopped=False, completed=True, reason=reason)
                if checkpointer is not None and checkpointer.due(self.round_number):
                    interrupted = checkpointer.stop_requested
                    checkpointer.snapshot(
                        self, reason="sigterm" if interrupted else "cadence"
                    )
                    self._heartbeat_now()
                    if interrupted:
                        raise _StopSearch(
                            "interrupted (checkpoint written)", completed=False
                        )
        except _StopSearch as stop:
            return _PassOutcome(
                stopped=True, completed=stop.completed, reason=stop.reason
            )
        finally:
            if self._speculator is not None:
                self._speculator.abort()
            self.stats.suppressed_duplicates += self.network.suppressed_duplicates
            self.stats.node_states = self.space.total_states()
            # Final sample: the series must end at the run's actual end time
            # and final counters, even when the deepest level was reached
            # long before the run stopped.
            self._record_depth_sample(force=True)
            # Hash-interner hit rates go to the trace only: the interner is
            # process-global (warm across runs in one process), so its
            # counters must stay out of the deterministic metric series.
            if self.emitter.enabled and interning_enabled():
                self.emitter.event("hash_cache", **intern_stats())
            # Reduction accounting (docs/REDUCTION.md): one aggregate event
            # per pass, only when a reduction is actually on.
            if self.emitter.enabled and (self._symmetry is not None or self._por):
                payload: Dict[str, int] = {
                    "symmetry_skips": self.stats.symmetry_skips,
                    "por_links_suppressed": self.stats.por_links_suppressed,
                }
                if self._symmetry is not None:
                    payload.update(self._symmetry.summary())
                self.emitter.event("reduction", **payload)

    def _seed(self) -> None:
        """Install the live state (Fig. 9 lines 2-4): seed each ``LS_n``.

        The initial system state is also invariant-checked directly — a
        violation on the live state is sound by definition (§4.1).
        """
        for node, state in self.initial_system.items():
            record = self.space.seed(node, state)
            for sweep in CURSOR_SWEEPS:
                if sweep.per_node:
                    self.cursors[sweep.name][node] = Cursor()
            self._retained_bytes += record.retained_bytes()
            if self._index is not None:
                self._index.note(record)
        if self.config.create_system_states:
            self.stats.invariant_checks += 1
            holds = self.invariant.check(self.initial_system)
            if self.coverage.enabled:
                self.coverage.note_invariant(
                    type(self.invariant).__name__, not holds
                )
            if not holds:
                # The live state itself violates: sound by definition.
                self._report_bug(self.initial_system, trace=())
        self._record_depth_sample(force=True)

    # -- rounds -----------------------------------------------------------------

    def _round(self) -> int:
        """One sweep of network, local and fault events; returns executions.

        Every family walks the same cursor sweep (:meth:`_sweep_lane`) over
        its own lanes and gate — the rows of
        :data:`repro.core.event_kinds.SWEEPS`, in order: deliveries, local
        events, crash/restart faults, drops — followed by duplicate minting.
        """
        executions = 0
        self._partition_retry = False
        partitions = self.config.partition_schedules
        # Parallel frontier exploration: snapshot the round-start frontier
        # and precompute all but its first shard's handler results + content
        # hashes in forked children.  The sweeps below are unchanged — they
        # adopt a child's outcome on a table hit and run the kernel inline
        # otherwise, so order, counters and results are byte-identical to
        # serial.
        if self._speculator is not None:
            self._speculator.begin_round()
        for sweep in self.sweeps:
            gate = sweep.gate
            for cursor, store, subject in sweep.lanes(self):
                if (
                    partitions
                    and sweep is DELIVERY_SWEEP
                    and self._partition_holds(subject, store)
                ):
                    continue
                executions += self._sweep_lane(gate, cursor, store, subject)
        if self.config.duplicate_faults:
            executions += self._mint_duplicates()
        if self._speculator is not None:
            self._speculator.end_round()
        return executions

    def _sweep_lane(self, gate, cursor, store, subject) -> int:
        """Offer one lane's subject to the records its cursor has not passed.

        The cursor discipline advances past depth-blocked records for good,
        which is exactly right for a fixed bound — and exactly wrong for a
        bound that later grows — so blocked indexes are kept in
        ``cursor.deferred`` and, under ``_reoffer`` (depth extension),
        drained first.  The cursor range is taken *after* the re-offers:
        records they mint in this store are swept in the same round.
        """
        executions = 0
        records = store.records
        if self._reoffer and cursor.deferred:
            executions += self._offer(
                gate, cursor, records, subject, sorted(cursor.deferred)
            )
        if cursor.cursor < len(records):
            executions += self._offer(
                gate, cursor, records, subject, range(cursor.cursor, len(records))
            )
        return executions

    def _offer(self, gate, cursor, records, subject, indexes) -> int:
        """Gate each indexed record and apply the outcome's side effects.

        A pair still depth-blocked stays (or becomes) deferred for a further
        extension; every other outcome settles the pair for good — skips,
        spent caps and bound blocks consume-and-drop it, a row executes it.
        Records minted here are swept in a later round, exactly like states
        minted by handlers.
        """
        executions = 0
        speculator = self._speculator
        deferred = cursor.deferred
        for index in indexes:
            if index >= cursor.cursor:
                cursor.cursor = index + 1
            else:
                # A re-offer: settled for good unless deferred again below.
                deferred.discard(index)
            record = records[index]
            outcome = gate(self, record, subject)
            if outcome is DEFER:
                # Remember when the bound bit, so the pass can report
                # "depth bound reached" instead of claiming exhaustion.
                self._blocked_by_depth = True
                deferred.add(index)
                continue
            if outcome.__class__ is not EventKind:
                if outcome is SEEN:
                    self.stats.history_skips += 1
                elif outcome is BOUND:
                    self.blocked_by_bound = True
                continue
            packed = (
                speculator.lookup(outcome, record, subject)
                if speculator is not None
                else None
            )
            if not outcome.fan_out:
                executions += self._execute(outcome, record, subject, packed)
                continue
            actions = self.protocol.enabled_actions(record.state)
            # A child enumerated the same actions of the same state, in the
            # same order, and packed one outcome per action; any other
            # answer holds for every action.
            for action, action_packed in zip(
                actions, packed if packed.__class__ is tuple else repeat(packed)
            ):
                executions += self._execute(outcome, record, action, action_packed)
        return executions

    def _partition_holds(self, stored: StoredMessage, store) -> bool:
        """Is ``stored`` unreachable under an active partition window?

        A window ``(start, end, srcs, dests)`` blocks the pair while the
        pass's round number lies in ``[start, end]`` (``end=None`` =
        forever).  The round number is the partition clock: deterministic,
        checkpointed, and shared with the per-depth series.  A held lane's
        cursor does NOT advance: the pair is merely on hold, and is swept
        normally once the window closes.  Pending pairs count as
        ``partition_blocks``; only a window that eventually closes sets the
        retry flag — under ``end=None`` no later round can deliver the
        pair, so a zero-execution round is a genuine fixpoint.
        """
        src = stored.message.src
        dest = stored.message.dest
        rnd = self.round_number
        held = permanent = False
        for start, end, srcs, dests in self.config.partition_schedules:
            if src in srcs and dest in dests and start <= rnd:
                if end is None:
                    held = permanent = True
                elif rnd <= end:
                    held = True
        if held and (
            stored.cursor < len(store) or (self._reoffer and stored.deferred)
        ):
            self.stats.partition_blocks += 1
            if not permanent:
                self._partition_retry = True
        return held

    def _mint_duplicates(self) -> int:
        """Re-admit each newly generated message once as a duplicate copy.

        The duplication scheduler rides the network's own admission path:
        ``add`` either admits the copy within ``duplicate_limit`` (and the
        copy is marked fault-minted, so its deliveries bypass the history
        skip as :class:`~repro.model.events.DuplicateEvent` steps) or
        suppresses it into the ``suppressed_duplicates`` counter.  Minting
        counts as an execution so the delivery sweep of the next round sees
        the copies before the pass can declare fixpoint.
        """
        executions = 0
        high = self.network.high_water
        for stored in self.network.messages_since(self._dup_seq_cursor):
            if stored.duplicate:
                continue
            copy = self.network.add(stored.message)
            if copy is not None:
                copy.duplicate = True
                executions += 1
        self._dup_seq_cursor = high
        return executions

    # -- handler execution ---------------------------------------------------------

    def _execute(
        self,
        row: EventKind,
        record: NodeStateRecord,
        subject: object,
        packed: Optional[object] = None,
    ) -> int:
        """Execute one event of family ``row`` on one node state.

        Fig. 9 lines 6-7 for every family: a delivery runs the altered
        network handler ``H'_M`` of Fig. 8 (the message is taken from the
        shared monotonic ``I+`` and *not* consumed), an internal action
        runs ``H_A`` unchanged, and the fault families of docs/FAULTS.md
        run their :meth:`~repro.model.protocol.Protocol.execute` branch —
        a crash keeps only the durable fragment, a restart boots from it,
        a drop runs the ``handle_drop`` timeout hook, a duplicate runs the
        message handler again.  ``subject`` is the stored message, the
        action, or ``None``; ``packed`` is what the speculator's
        :meth:`~repro.core.explore_parallel.RoundSpeculator.lookup` answered
        for a parallel round's frontier item, else the kernel
        (:func:`~repro.core.event_kinds.execute`) runs here.  Returns
        handler executions done (always 1).
        """
        self._tick_budget()
        if row.covered and self.coverage.enabled:
            if row.on_message:
                self.coverage.note_delivery(type(subject.message.payload).__name__)
            else:
                self.coverage.note_action(subject.name)
        outcome = (
            execute(self.protocol, row, record, subject)
            if packed is None
            else self._speculator.adopt(row, record, subject, packed)
        )
        if outcome is ASSERT:
            self._handle_assertion_failure(record)
            return 1
        if outcome is NOOP:
            self.stats.noop_executions += 1
            return 1
        self.stats.transitions += 1
        if row.fault is not None:
            setattr(self.stats, row.counter, getattr(self.stats, row.counter) + 1)
            if self.coverage.enabled:
                self.coverage.note_fault(row.fault, record.node)
            if self.emitter.enabled:
                self.emitter.event(
                    "fault", kind=row.fault, node=record.node, depth=record.depth
                )
        self._integrate(row, record, subject, outcome)
        return 1

    def _handle_assertion_failure(self, record: NodeStateRecord) -> None:
        """Apply the §4.2 local-assertion policy to a failing handler.

        "discard" drops the node state the handler would have produced (the
        paper's choice: such assertions mostly flag messages delivered to
        states no real run pairs them with); "ignore" treats the execution
        as a no-op.  Seed states are never discarded — they came from a
        real run.
        """
        if self.config.assertion_policy == "discard" and not record.seed:
            self.space.store(record.node).mark_discarded(record)
            self.stats.states_discarded_by_assert += 1
        # Under "ignore" (or on a seed state) the execution is a no-op.
        self.stats.noop_executions += 1

    def _integrate(
        self,
        row: EventKind,
        record: NodeStateRecord,
        subject: object,
        step: Transition,
    ) -> None:
        """Fold a handler result into ``LS``/``I+`` (Fig. 9 lines 8-9).

        Sends join the monotonic network; the successor state is deduped by
        content hash and linked to its predecessor (the pointer structure
        §4.1's soundness verification walks).  A genuinely new node state
        triggers system-state creation via :meth:`_check_new_state`; a
        state change without novelty may still add a predecessor pointer,
        which under ``reverify_rejected`` re-opens cached rejected
        combinations (§4.2's completeness patch).

        What the successor record inherits is read off ``row``
        (:class:`~repro.core.event_kinds.EventKind`): the history entry the
        event leaves, the local-depth step, and the crash/restart marks of
        docs/FAULTS.md.

        ``step`` is the kernel's :class:`~repro.core.event_kinds.Transition`
        — computed here or adopted from a speculation child — so every hash
        the fold needs (successor hash and size, event hash, per-send hash
        and size) is already in hand: send admission, successor dedup and
        predecessor linking re-encode nothing.
        """
        send_info = step.send_info
        for message, (msg_hash, msg_size) in zip(step.sends, send_info):
            self.network.add_hashed(message, msg_hash, msg_size)
        consumed_hash = subject.hash if row.consumes else None
        link = PredecessorLink(
            prev_hash=record.hash,
            event=step.event,
            event_hash=step.event_hash,
            consumed_hash=consumed_hash,
            generated_hashes=tuple([msg_hash for msg_hash, _size in send_info]),
        )
        new_hash = step.state_hash
        store = self.space.store(record.node)
        if new_hash == record.hash:
            # Sends without a state change: a self-referencing link, ignored
            # by the predecessor closure (§4.2).
            record.add_predecessor(link)
            return
        existing = store.lookup(new_hash)
        if existing is not None:
            if step.speculated:
                # A parallel round's frontier successor the deterministic
                # merge found already in LS_n — exactly the dedup serial
                # would do.
                self.stats.explore_merge_conflicts_suppressed += 1
            if (
                self._por
                and row is DELIVERY
                and self._por_redundant(record, existing, link)
            ):
                # Commutativity pruning (docs/REDUCTION.md): this link would
                # close the non-canonical side of a delivery-order diamond
                # whose deliveries provably commute; the canonical ordering
                # already reaches the same state.
                self.stats.por_links_suppressed += 1
                return
            if existing.add_predecessor(link):
                self._retained_bytes += LINK_BYTES
                # The predecessor DAG changed: invalidate the soundness
                # verifier's memoised sequence enumerations for this node.
                store.note_link()
                if self.config.reverify_rejected:
                    self._reverify_affected(existing)
            return
        if row.reboots:
            history = frozenset()
        else:
            history = record.history
            if consumed_hash is not None:
                history = history | {consumed_hash}
            if row.copy_token:
                history = history | {-(subject.seq + 1)}
        new_record = store.add(
            step.state,
            new_hash,
            depth=record.depth + 1,
            local_depth=record.local_depth + row.local_step,
            history=history,
            crashes=record.crashes + row.crashes,
            crashed=row.crashes,
            state_size=step.state_size,
        )
        new_record.add_predecessor(link)
        self._retained_bytes += new_record.retained_bytes()
        if new_record.depth > self._node_max_depth.get(record.node, 0):
            self._node_max_depth[record.node] = new_record.depth
        if new_record.crashed:
            # A down node joins no system state: no value to index, no
            # anchored invariant checking.  Its only further event is the
            # restart the fault sweep will offer it.
            return
        if self._index is not None:
            self._index.note(new_record)
        self._check_new_state(new_record)

    def _por_redundant(
        self,
        record: NodeStateRecord,
        existing: NodeStateRecord,
        link: PredecessorLink,
    ) -> bool:
        """Would ``link`` close the redundant side of a commuting diamond?

        The link being added delivers message ``m2`` on ``record`` (whose
        own discovery includes a delivery of some ``m1``) and lands on
        ``existing``.  When the mirror path — ``m2`` first, then ``m1``,
        through a sibling record — already reaches ``existing``, both
        orderings of two deliveries to the *same* node are in the DAG.  If
        the deliveries provably commute (neither message was generated by
        the other's execution, so neither ordering is causally required)
        the non-canonical ordering — descending consumed hashes — is
        redundant for path enumeration and may be suppressed.  One-sided by
        construction: suppression removes candidate orderings only, so a
        witness found later is still genuinely replayable (the documented
        conservatism is a possibly *missed* witness, docs/REDUCTION.md).
        """
        m2 = link.consumed_hash
        assert m2 is not None
        store = self.space.store(record.node)
        for lq in record.predecessors:
            m1 = lq.consumed_hash
            # Only delivery→delivery diamonds, and only the non-canonical
            # ordering (m1 before m2 with m1 > m2) is a suppression
            # candidate; the ascending ordering is always kept.  Drop links
            # also carry a consumed hash but are never deliveries: losing a
            # message does not commute with delivering another, so every
            # leg of the diamond must be a genuine delivery.
            if (
                m1 is None
                or lq.prev_hash is None
                or m1 <= m2
                or not isinstance(lq.event, DeliveryEvent)
            ):
                continue
            if m2 in lq.generated_hashes:
                continue  # m2 causally follows m1: not a commuting pair
            for lt in existing.predecessors:
                if (
                    lt.consumed_hash != m1
                    or lt.prev_hash is None
                    or not isinstance(lt.event, DeliveryEvent)
                ):
                    continue
                sibling = store.lookup(lt.prev_hash)
                if sibling is None or sibling is record:
                    continue
                for lr in sibling.predecessors:
                    if (
                        lr.prev_hash == lq.prev_hash
                        and lr.consumed_hash == m2
                        and isinstance(lr.event, DeliveryEvent)
                        and m1 not in lr.generated_hashes
                    ):
                        return True
        return False

    # -- invariant checking over temporary system states -----------------------------

    def _check_new_state(self, new_record: NodeStateRecord) -> None:
        """Materialise and check system states anchored at a new node state.

        Fig. 9 lines 10-16: every new node state triggers temporary
        system-state creation (GEN: the full anchored product of §4;
        OPT: only invariant-relevant combinations via the decomposition of
        §4.2), invariant checks on each, and — for violations — soundness
        verification.  Under GEN with an invariant that declares
        ``summary``, ``check`` runs once per distinct summary tuple; an
        anchor none of whose tuples violates is counted as one block
        (:meth:`_count_clean_block`), and any other anchor is walked
        combination by combination, so every counter reads as if each
        combination had been checked.  Wall time lands in the
        ``system_states`` Fig. 13 bucket (soundness time is compensated out
        by :meth:`_verify_and_report`); with tracing on, the call adds to
        its round's one ``materialise`` span: one anchor, its node, the
        created/violation counts, the invariant calls made
        (``tuples_checked``) and, with symmetry reduction on, the
        combinations skipped as orbit siblings (``orbit_skips``).
        """
        if not self.config.create_system_states:
            return
        started = time.perf_counter()
        traced = self.emitter.enabled
        if traced:
            created_before = self.stats.system_states_created
            violations_before = self.stats.preliminary_violations
            skips_before = self.stats.symmetry_skips
            checks_before = self._invariant_calls
        with self._materialise as span:
            try:
                if isinstance(self.invariant, LocalInvariant):
                    self._check_local_invariant(new_record)
                    return
                use_opt = self.checker.use_opt
                if not use_opt and self._index is not None:
                    size = clean_block_size(
                        self.space, new_record.node, new_record, self._index, self._holds
                    )
                    if size is not None:
                        self._count_clean_block(new_record, size)
                        return
                combos = (
                    enumerate_optimized(
                        self.space,
                        new_record.node,
                        new_record,
                        self.invariant,
                        self._index,
                        MAX_COMPLETIONS_PER_CONFLICT,
                        grouped=self.config.incremental_enumeration,
                    )
                    if use_opt
                    else enumerate_general(self.space, new_record.node, new_record)
                )
                name = type(self.invariant).__name__
                for checked, combo in enumerate(combos):
                    if checked % 64 == 63:
                        # Soundness enumeration dominates hard rounds; keep
                        # the live heartbeat cadence alive from inside it.
                        self._pulse()
                    if self._symmetry is not None and not (
                        self._symmetry.first_occurrence(combo)
                    ):
                        # An orbit sibling was already materialised and
                        # checked; under the declared equivariance its
                        # verdict covers this combination.
                        self.stats.symmetry_skips += 1
                        continue
                    self.stats.system_states_created += 1
                    self.stats.invariant_checks += 1
                    holds = self._holds(combo)
                    if self.coverage.enabled:
                        self.coverage.note_invariant(name, not holds)
                    if holds:
                        continue
                    self.stats.preliminary_violations += 1
                    if not self.config.verify_soundness:
                        continue
                    self._verify_and_report(combo)
            finally:
                if traced:
                    span.add(
                        anchors=1,
                        system_states=self.stats.system_states_created
                        - created_before,
                        violations=self.stats.preliminary_violations
                        - violations_before,
                        tuples_checked=self._invariant_calls - checks_before,
                    )
                    span.tally("nodes", new_record.node)
                    if self._symmetry is not None:
                        span.add(orbit_skips=self.stats.symmetry_skips - skips_before)
                self.stats.add_phase_time(
                    "system_states", time.perf_counter() - started
                )

    def _count_clean_block(self, anchor: NodeStateRecord, size: int) -> None:
        """Book an anchored product none of whose ``size`` combinations violates.

        Each combination counts as one created and one checked system state.
        With symmetry reduction on, only combinations whose orbit is new
        count, the rest are symmetry skips, and the reducer counts them in
        chunks (:meth:`SymmetryReducer.count_block`) with the time budget
        and heartbeat checked after each, so a stop leaves the counters at
        the combinations counted so far.
        """
        if self._symmetry is None:
            chunks: Iterable[Tuple[int, int]] = ((size, size),)
        else:
            chunks = self._symmetry.count_block(self.space, anchor.node, anchor)
        name = type(self.invariant).__name__
        for combinations, new in chunks:
            self.stats.system_states_created += new
            self.stats.invariant_checks += new
            self.stats.symmetry_skips += combinations - new
            if new and self.coverage.enabled:
                self.coverage.note_invariant(name, False, new)
            self._pulse()

    def _pulse(self) -> None:
        """Stop on an exhausted time budget, else keep the heartbeat cadence."""
        if self.clock.out_of_time():
            raise _StopSearch("time budget exhausted", completed=False)
        self.metrics.pulse(self.explored_depth)

    def _holds(self, combo: Combination) -> bool:
        """``check`` on one combination's system state, counted for the trace."""
        self._invariant_calls += 1
        return self.invariant.check(combination_to_system_state(combo))

    def _check_local_invariant(self, new_record: NodeStateRecord) -> None:
        """Check a node-local invariant on one new node state.

        Local invariants need no system-state product at all — the cheapest
        point in the §4.2 creation spectrum.  A violating node state is a
        bug iff *some* valid system state contains it, so confirmation
        still searches completions of the other nodes' states through
        soundness verification, stopping at the first completion that
        confirms.
        """
        assert isinstance(self.invariant, LocalInvariant)
        self.stats.invariant_checks += 1
        holds = self.invariant.check_local(new_record.node, new_record.state)
        if self.coverage.enabled:
            self.coverage.note_invariant(type(self.invariant).__name__, not holds)
        if holds:
            return
        self.stats.preliminary_violations += 1
        if not self.config.verify_soundness:
            return
        # The violating node state is a bug iff it occurs in *some* valid
        # system state; its own event sequence may consume messages other
        # nodes must first generate, so soundness must search over
        # completions of the other nodes' states, not just the seeds.
        bugs_before = len(self.bugs)
        for tried, combo in enumerate(
            enumerate_general(self.space, new_record.node, new_record)
        ):
            if tried >= MAX_COMPLETIONS_PER_LOCAL_VIOLATION:
                return
            if tried % 16 == 15:
                self._pulse()
            if self._symmetry is not None and not (
                self._symmetry.first_occurrence(combo)
            ):
                self.stats.symmetry_skips += 1
                continue
            self.stats.system_states_created += 1
            self._verify_and_report(combo)
            if len(self.bugs) > bugs_before:
                return  # one witness per violating node state is enough

    def _verify_and_report(self, combo: Combination) -> None:
        """Soundness-verify a preliminary violation now; report it if valid.

        Fig. 9 lines 13-16: the a-posteriori check that makes LMC sound
        (§4.1).  Callers skip it with ``verify_soundness`` off (the Fig. 13
        "LMC-system-state" configuration: violations are only counted).  A
        rejection is remembered for ``reverify_rejected``.

        The enclosing :meth:`_check_new_state` measures its whole wall time
        into the Fig. 13 ``system_states`` phase; the verification's share
        is moved into ``soundness`` so the phases stay disjoint.
        """
        started = time.perf_counter()
        try:
            witness = self.verifier.is_state_sound(combo)
            if witness is None and self._symmetry is not None:
                # Orbit-aware fallback (docs/REDUCTION.md): the enumerated
                # representative of a violating orbit may fail replay while a
                # sibling — reached through differently-named nodes, so with
                # a differently-shaped predecessor DAG — carries the valid
                # ordering.  Confirming any sibling confirms the orbit; the
                # sibling's own (violating, by equivariance) system state is
                # reported so the witness replays against it.
                for variant in self._symmetry.orbit_variants(self.space, combo):
                    witness = self.verifier.is_state_sound(variant)
                    if witness is not None:
                        combo = variant
                        break
            if witness is not None:
                self._report_bug(combination_to_system_state(combo), witness)
            elif self.config.reverify_rejected:
                self._cache_rejected(combo)
        finally:
            seconds = time.perf_counter() - started
            self.stats.add_phase_time("soundness", seconds)
            self.stats.add_phase_time("system_states", -seconds)

    def _report_bug(self, system: SystemState, trace: Tuple[Event, ...]) -> None:
        """Record a *confirmed* bug with its witness total order (§4.1).

        Only soundness-verified violations reach here, so every report
        carries an executable trace — LMC's no-false-positives guarantee.
        With tracing on the confirmation also lands in the trace as a
        ``bug`` event.
        """
        self.stats.confirmed_bugs += 1
        description = self.invariant.describe_violation(system)
        if self.emitter.enabled:
            self.emitter.event(
                "bug",
                invariant=type(self.invariant).__name__,
                description=description,
                trace_length=len(trace),
            )
        self.bugs.append(
            BugReport(
                kind="invariant",
                description=description,
                violating_state=system,
                trace=trace,
                initial_state=self.initial_system,
            )
        )
        if self.config.stop_on_first_bug:
            raise _StopSearch("bug found", completed=False)

    # -- reverify extension ------------------------------------------------------

    def _cache_rejected(self, combo: Combination) -> None:
        """Remember a rejected violation for later re-verification.

        The §4.2 completeness patch ("cache the system states in which an
        invariant is violated and reverify them after the changes into LS
        that affect them"); indexed by member record so
        :meth:`_reverify_affected` can find entries cheaply.  The cache is
        an LRU bounded by ``REJECTED_CACHE_LIMIT`` — an eviction trades a
        sliver of the patched-back completeness for bounded memory on long
        online runs and is counted in ``rejected_cache_evictions``.
        """
        entry_index = self._rejected_next
        self._rejected_next += 1
        self._rejected_entries[entry_index] = dict(combo)
        for node, record in combo.items():
            self._rejected_index.setdefault((node, record.index), []).append(
                entry_index
            )
        if len(self._rejected_entries) > REJECTED_CACHE_LIMIT:
            self._rejected_entries.popitem(last=False)
            self.stats.rejected_cache_evictions += 1

    def _reverify_affected(self, record: NodeStateRecord) -> None:
        """Re-run soundness on cached rejections touching ``record`` (§4.2).

        Triggered when a new predecessor pointer lands on an existing node
        state: the new path may supply the event sequence an earlier
        rejection was missing.  Reverifying an entry marks it recently used;
        index lists drop references to entries the LRU has evicted.
        """
        indices = self._rejected_index.get((record.node, record.index))
        if not indices:
            return
        live = [index for index in indices if index in self._rejected_entries]
        self._rejected_index[(record.node, record.index)] = live
        for entry_index in list(live):
            combo = self._rejected_entries.get(entry_index)
            if combo is None:
                continue
            self._rejected_entries.move_to_end(entry_index)
            started = time.perf_counter()
            witness = self.verifier.is_state_sound(combo)
            self.stats.add_phase_time("soundness", time.perf_counter() - started)
            if witness is not None:
                del self._rejected_entries[entry_index]
                self._report_bug(combination_to_system_state(combo), witness)

    # -- bookkeeping ------------------------------------------------------------

    def _checking_seconds(self) -> float:
        """Seconds so far in the two checking phases (Fig. 13 buckets).

        Used to subtract checking time out of a round's wall time so the
        ``explore`` bucket holds pure exploration.
        """
        return self.stats.phase_seconds.get(
            "system_states", 0.0
        ) + self.stats.phase_seconds.get("soundness", 0.0)

    def _tick_budget(self) -> None:
        """Enforce the transition/state/time budgets (§5 bounded searches).

        Called before every handler execution; the wall clock is consulted
        only every ``_BUDGET_CHECK_INTERVAL`` executions to keep the hot
        path cheap.
        """
        executed = self.stats.transitions + self.stats.noop_executions
        budget = self.budget
        if (
            budget.max_transitions is not None
            and self.stats.transitions >= budget.max_transitions
        ):
            raise _StopSearch("transition budget exhausted", completed=False)
        if (
            budget.max_states is not None
            and self.space.total_states() >= budget.max_states
        ):
            raise _StopSearch("state budget exhausted", completed=False)
        if executed % _BUDGET_CHECK_INTERVAL == 0:
            self._pulse()

    def explored_depth(self) -> int:
        """Length of the longest combined event sequence explored so far."""
        return sum(self._node_max_depth.values())

    def _metric_gauges(self) -> Dict[str, float]:
        """Gauges joined onto every metrics sample (Figs. 11-12 quantities)."""
        return {
            "node_states": self.space.total_states(),
            "memory_bytes": self._retained_bytes + self.network.retained_bytes(),
        }

    def _frontier_size(self) -> int:
        """Pending offers the cursors have not reached yet.

        One sum over every active sweep's lanes — per node, the records the
        local-event and fault sweeps have not been offered; per stored
        message, the destination records it has not been delivered (or,
        with drops on, lost) to.  An O(nodes + messages) walk, run only on
        the heartbeat cadence.
        """
        return sum(
            max(0, len(store) - cursor.cursor)
            for sweep in self.sweeps
            for cursor, store, _subject in sweep.lanes(self)
        )

    def _heartbeat(
        self,
        depth: int,
        elapsed: float,
        metrics: Dict[str, float],
        force: bool = False,
    ) -> None:
        """Publish a registry heartbeat snapshot (docs/OBSERVABILITY.md).

        Runs on the metrics cadence only when a :class:`RunHandle` is
        attached, so plain runs never pay for it.  The snapshot carries the
        sampled counters plus live-only gauges (round, frontier) and the
        progress/ETA estimate fitted from the depth series so far.
        """
        handle = self.run_handle
        if handle is None:
            return
        snapshot: Dict[str, object] = dict(metrics)
        snapshot["depth"] = depth
        snapshot["elapsed_s"] = elapsed
        snapshot["round"] = self.round_number
        snapshot["frontier"] = self._frontier_size()
        snapshot["algorithm"] = self.checker.algorithm
        checkpointer = self.checker.checkpointer
        if checkpointer is not None and checkpointer.last_round is not None:
            snapshot["checkpoint"] = {
                "path": checkpointer.path,
                "round": checkpointer.last_round,
                "writes": checkpointer.writes,
                "segments": checkpointer.segments,
                "bytes_written": checkpointer.bytes_written,
            }
        points = [
            (sample.depth, sample.elapsed_s, sample.get("transitions"))
            for sample in self.series.samples
        ]
        points.append((depth, elapsed, float(self.stats.transitions)))
        estimate = estimate_progress(points, self.budget.max_depth)
        if estimate is not None:
            snapshot["progress"] = estimate.as_dict()
        if handle.heartbeat(snapshot, force=force) and self.coverage.enabled:
            handle.write_coverage(self.checker.coverage_report())


    def _heartbeat_now(self) -> None:
        """Publish a heartbeat right after a checkpoint write.

        Goes straight to :meth:`_heartbeat` with the current counters
        rather than through ``metrics.sample`` — a checkpoint must update
        the registry's last-checkpoint record without appending rows to
        the deterministic depth series.
        """
        if self.run_handle is not None:
            self._heartbeat(
                self.explored_depth(),
                self.clock.elapsed(),
                self.stats.snapshot(),
                force=True,
            )

    def _record_depth_sample(self, force: bool = False) -> None:
        """Sample counters via :class:`~repro.obs.metrics.RunMetrics`.

        Called at round boundaries; the registry decides whether the sample
        lands (depth grew, forced seed/end-of-run, or the trace cadence is
        due) — the logic that used to live ad hoc in this method.
        """
        self.metrics.sample(self.explored_depth(), force=force)
