"""Parallel local model checking.

The paper's third contribution bullet: "Having the exploration, system state
creation, and soundness verification decoupled, the model checking process
can be embarrassingly parallelized to benefit from the ever increasing
number of cores."

This module realises the decoupling the way it pays off in CPython: the
exploration pass runs once (it is cheap — Fig. 10's LMC-local curve), all
preliminary violations are *collected* instead of verified inline, and the
expensive soundness verifications — each one an independent search over
per-node event-sequence combinations (§5.4: "LMC-OPT triggers the soundness
verification for 773 times, and each call takes 45 ms in average") — are
fanned out to a process pool.

Work units ship as plain integers: each candidate sequence travels as the
``(consumed_hash, generated_hashes)`` steps its
:class:`~repro.core.soundness.CompiledSequence` already holds, so pickling
is trivial and the worker runs the sequential verifier's own search —
starvation quotient, then the one greedy-then-backtrack replay — on them.
Workers return index paths into the shipped sequences; the parent resolves
them back to real events to build the witness trace.

Dispatch economics (docs/PERFORMANCE.md): workers live in the persistent
process pool shared with parallel exploration
(:func:`repro.core.pool.shared_executor`), units are grouped into batches of
about four per worker, and each batch's candidate sequences — heavily shared
between units through overlapping predecessor chains — are deduplicated into
one table shipped once per batch.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.core.checker import LocalModelChecker, _ExplorationPass
from repro.core.config import LMCConfig
from repro.core.pool import shared_executor, shutdown_worker_pool
from repro.core.records import NodeStateRecord
from repro.core.soundness import (
    CompiledSequence,
    Order,
    PlainStep,
    SoundnessVerifier,
    replay_compiled,
    search_combinations,
)
from repro.core.system_states import Combination, combination_to_system_state
from repro.explore.budget import BudgetClock, SearchBudget
from repro.invariants.base import Invariant
from repro.model.events import Event
from repro.model.protocol import Protocol
from repro.model.system_state import SystemState
from repro.obs.coverage import NULL_COVERAGE
from repro.obs.emitter import NULL_EMITTER, TraceEmitter
from repro.protocols.common import declared_action_names, declared_message_types
from repro.reports import BugReport, CheckResult
from repro.stats.counters import ExplorationStats

#: A work unit: per node, the candidate sequences in plain-step form.
WorkUnit = Dict[int, List[Tuple[PlainStep, ...]]]
#: A worker verdict: the chosen sequence index per node plus the executed
#: total order as (node, step index) pairs — or None if no combination
#: replays.
Verdict = Optional[Tuple[Dict[int, int], Order]]


class WorkerReport(NamedTuple):
    """A worker's answer for one unit: verdict plus its own measurements.

    Workers cannot write to the parent's trace, so each ships the span data
    back over the result channel — the parent re-emits it
    (:meth:`~repro.obs.emitter.TraceEmitter.emit_span`) and folds the
    counters into the run's :class:`ExplorationStats` through the single
    ``merge`` helper, keeping a multiprocess run's trace and counters as
    coherent as a sequential one's.
    """

    verdict: Verdict
    #: Sequence combinations the unit's search examined (§5.4 counter).
    combinations: int
    #: Wall seconds the verification took inside the worker.
    wall_s: float
    #: The worker's OS process id (the parent's own pid when ``workers=0``).
    pid: int

    def to_stats(self) -> ExplorationStats:
        """This unit's counter contribution, ready for ``merge``.

        Bug confirmation is *not* counted here — the parent counts it when
        it actually builds the report (``stop_on_first_bug`` may discard
        later verdicts).
        """
        return ExplorationStats(
            soundness_calls=1, soundness_sequences=self.combinations
        )


def _verify_unit_counted(
    unit: WorkUnit, max_combinations: Optional[int]
) -> Tuple[Verdict, int]:
    """:func:`verify_unit` plus the number of combinations actually tried.

    Compiles the shipped plain sequences and runs the serial verifier's own
    search (:func:`~repro.core.soundness.search_combinations` over
    :func:`~repro.core.soundness.replay_compiled`), so quotient, replay and
    the ``soundness_sequences`` count are the sequential ones by construction.
    """
    per_node = [
        [CompiledSequence(node, plain) for plain in unit[node]]
        for node in sorted(unit)
    ]
    combo, order, tried = search_combinations(
        per_node, max_combinations, replay_compiled
    )
    if order is None:
        return None, tried
    chosen = {
        sequence.node: candidates.index(sequence)
        for sequence, candidates in zip(combo, per_node)
    }
    return (chosen, order), tried


def verify_unit(unit: WorkUnit, max_combinations: Optional[int]) -> Verdict:
    """Search a work unit's sequence combinations for a valid total order.

    The worker-side half of §4.1's ``isStateSound``: the cross-product
    search the paper measures in §5.4, over plain hash steps.  Module-level
    (picklable) so it can run in worker processes; also used directly when
    ``workers == 0`` for a deterministic in-process fallback.
    """
    return _verify_unit_counted(unit, max_combinations)[0]


def verify_unit_profiled(
    unit: WorkUnit, max_combinations: Optional[int]
) -> WorkerReport:
    """Run :func:`verify_unit` and measure it — the pool's actual task.

    Wall time and the combination count travel back with the verdict so the
    parent can emit a ``worker_verify`` trace span and merge the §5.4
    counters that a bare verdict would silently drop.
    """
    started = time.perf_counter()
    verdict, tried = _verify_unit_counted(unit, max_combinations)
    return WorkerReport(
        verdict=verdict,
        combinations=tried,
        wall_s=time.perf_counter() - started,
        pid=os.getpid(),
    )


#: An index-based work unit: per node, indices into a batch's shared
#: sequence table.  Overlapping predecessor chains make many units share
#: candidate sequences; shipping each distinct sequence once per batch keeps
#: pickling cost proportional to distinct data, not to units.
UnitSpec = Dict[int, List[int]]


def _verify_batch_task(
    table: List[Tuple[PlainStep, ...]],
    specs: List[UnitSpec],
    max_combinations: Optional[int],
) -> List[WorkerReport]:
    """Worker-side batch entry point: rebuild units from the table, verify all.

    Batching amortizes per-task dispatch overhead (pickle + queue round
    trip) over many small units, which dominates when individual soundness
    searches are fast.
    """
    reports: List[WorkerReport] = []
    for spec in specs:
        unit: WorkUnit = {
            node: [table[index] for index in indices]
            for node, indices in spec.items()
        }
        reports.append(verify_unit_profiled(unit, max_combinations))
    return reports


def _encode_batch(
    units: Sequence[WorkUnit],
) -> Tuple[List[Tuple[PlainStep, ...]], List[UnitSpec]]:
    """Dedup a batch's sequences into a shared table plus per-unit indices."""
    table: List[Tuple[PlainStep, ...]] = []
    positions: Dict[Tuple[PlainStep, ...], int] = {}
    specs: List[UnitSpec] = []
    for unit in units:
        spec: UnitSpec = {}
        for node, sequences in unit.items():
            indices: List[int] = []
            for sequence in sequences:
                position = positions.get(sequence)
                if position is None:
                    position = len(table)
                    positions[sequence] = position
                    table.append(sequence)
                indices.append(position)
            spec[node] = indices
        specs.append(spec)
    return table, specs


#: Back-compat alias: the pool now lives in :mod:`repro.core.pool`, shared
#: between soundness verification and parallel exploration.
_shared_executor = shared_executor


def shutdown_verification_pool(broken: bool = False) -> None:
    """Deprecated alias for :func:`repro.core.pool.shutdown_worker_pool`.

    Kept for callers that predate the pool's generalization to exploration;
    new code should import ``shutdown_worker_pool`` from ``repro.core.pool``.
    """
    shutdown_worker_pool(broken=broken)


class ParallelLocalModelChecker:
    """LMC with soundness verification fanned out over worker processes.

    ``workers=0`` verifies in-process (useful for determinism and tests);
    ``workers=None`` uses ``os.cpu_count()``.  Semantically equivalent to
    the sequential checker except that *all* preliminary violations are
    verified (there is no early stop during exploration); with
    ``stop_on_first_bug`` the report phase still returns at the first
    confirmed violation.
    """

    def __init__(
        self,
        protocol: Protocol,
        invariant: Invariant,
        budget: SearchBudget = SearchBudget.unbounded(),
        config: LMCConfig = LMCConfig(),
        workers: Optional[int] = 0,
        emitter: Optional[TraceEmitter] = None,
        metrics_interval: Optional[float] = None,
        run_handle=None,
        coverage=None,
    ):
        self.protocol = protocol
        self.invariant = invariant
        self.budget = budget
        self.workers = workers
        self.emitter = emitter if emitter is not None else NULL_EMITTER
        self.metrics_interval = metrics_interval
        #: Registry handle and coverage tracker, passed through to the inner
        #: exploration checker (docs/OBSERVABILITY.md "Live operations").
        self.run_handle = run_handle
        self.coverage = coverage
        # Exploration collects; verification is ours.
        self.config = LMCConfig(
            **{
                **config.__dict__,
                "verify_soundness": False,
                "collect_preliminary": True,
            }
        )
        self._report_config = config
        self.algorithm = "LMC-parallel"

    def coverage_report(self):
        """JSON-ready coverage counters (see :meth:`LocalModelChecker.coverage_report`)."""
        tracker = self.coverage if self.coverage is not None else NULL_COVERAGE
        return tracker.as_dict(
            declared_messages=declared_message_types(self.protocol),
            declared_actions=declared_action_names(self.protocol),
        )

    def run(self, initial_system: Optional[SystemState] = None) -> CheckResult:
        """Explore, then verify collected violations across the pool.

        The decoupled pipeline of §4/§5.4: one sequential exploration pass
        (spans and metric samples flow through the shared emitter exactly
        as in :class:`LocalModelChecker`), then the collected preliminary
        violations fan out to the process pool under one ``dispatch``
        trace span, with each worker's measurements re-emitted as a
        ``worker_verify`` child span.  Worker counters reach the run's
        stats only through :meth:`ExplorationStats.merge`, so a dropped or
        double-counted field is a bug in one place, not scattered ``+=``
        sites.
        """
        if initial_system is None:
            initial_system = self.protocol.initial_system_state()
        checker = LocalModelChecker(
            self.protocol,
            self.invariant,
            self.budget,
            self.config,
            emitter=self.emitter,
            metrics_interval=self.metrics_interval,
            run_handle=self.run_handle,
            coverage=self.coverage,
        )
        clock = BudgetClock(self.budget)
        pass_run = _ExplorationPass(checker, initial_system, clock, None)
        with self.emitter.span("pass", algorithm=self.algorithm) as pass_span:
            outcome = pass_run.execute()
            pass_span.add(
                stop_reason=outcome.reason,
                transitions=pass_run.stats.transitions,
            )

        stats = ExplorationStats()
        stats.merge(pass_run.stats)
        result = CheckResult(
            algorithm=self.algorithm,
            completed=outcome.completed,
            stats=stats,
            series=pass_run.series,
            stop_reason=outcome.reason,
        )

        units: List[
            Tuple[Combination, WorkUnit, Dict[int, List[CompiledSequence]]]
        ] = []
        verifier = SoundnessVerifier(
            pass_run.space,
            stats,
            max_sequences_per_node=self._report_config.max_sequences_per_node,
            max_combinations=self._report_config.max_combinations_per_check,
        )
        for combo in pass_run.unverified:
            unit, resolved = self._build_unit(verifier, combo)
            if unit is None:
                continue
            units.append((combo, unit, resolved))

        dispatch_started = time.perf_counter()
        worker_stats = ExplorationStats()
        with self.emitter.span(
            "dispatch", units=len(units), workers=self.workers
        ) as dispatch_span:
            reports = self._verify_all(
                [unit for _combo, unit, _resolved in units]
            )
            for index, report in enumerate(reports):
                worker_stats.merge(report.to_stats())
                self.emitter.emit_span(
                    "worker_verify",
                    report.wall_s,
                    fields={
                        "unit": index,
                        "combinations": report.combinations,
                        "sound": report.verdict is not None,
                    },
                    pid=report.pid,
                )
            dispatch_span.add(
                confirmed=sum(
                    1 for report in reports if report.verdict is not None
                )
            )
        # Parent-side wall time of the whole fan-out: the parallel run's
        # "soundness" share of the Fig. 13 decomposition.
        worker_stats.add_phase_time(
            "soundness", time.perf_counter() - dispatch_started
        )
        stats.merge(worker_stats)

        for (combo, _unit, resolved), report in zip(units, reports):
            if report.verdict is None:
                continue
            chosen, order = report.verdict
            trace = self._resolve_trace(resolved, chosen, order)
            system = combination_to_system_state(combo)
            stats.confirmed_bugs += 1
            result.bugs.append(
                BugReport(
                    kind="invariant",
                    description=self.invariant.describe_violation(system),
                    violating_state=system,
                    trace=trace,
                    initial_state=initial_system,
                )
            )
            if self._report_config.stop_on_first_bug:
                result.stop_reason = "bug found"
                result.completed = False
                return result
        return result

    # -- helpers ---------------------------------------------------------------

    def _build_unit(
        self, verifier: SoundnessVerifier, combo: Combination
    ) -> Tuple[Optional[WorkUnit], Dict[int, List[CompiledSequence]]]:
        """Reduce a combination to a picklable work unit.

        Returns ``(None, {})`` when some node has no candidate sequence at
        all (the state cannot be validated under the prototype's
        simplifications).
        """
        unit: WorkUnit = {}
        resolved: Dict[int, List[CompiledSequence]] = {}
        for node in sorted(combo):
            record: NodeStateRecord = combo[node]
            sequences = verifier._enumerate_sequences(record)
            if not sequences:
                return None, {}
            resolved[node] = sequences
            unit[node] = [sequence.plain for sequence in sequences]
        return unit, resolved

    def _verify_all(self, units: Sequence[WorkUnit]) -> List[WorkerReport]:
        """Verify every unit, in-process or across the pool (§5.4 fan-out).

        Returns one :class:`WorkerReport` per unit, in unit order.  Units
        are grouped into batches (about four per worker) whose sequences are
        deduplicated into one shared table each, submitted to the persistent
        :func:`repro.core.pool.shared_executor` pool; futures are resolved
        in submission order, so the trace the parent re-emits stays causally
        aligned with the unit list.  A broken pool (a killed worker) is
        rebuilt once and the whole generation retried before giving up.
        """
        max_combinations = self._report_config.max_combinations_per_check
        if not units:
            return []
        if self.workers == 0:
            return [
                verify_unit_profiled(unit, max_combinations) for unit in units
            ]
        workers = self.workers or multiprocessing.cpu_count()
        batch_size = max(1, -(-len(units) // (workers * 4)))
        batches = [
            _encode_batch(units[start : start + batch_size])
            for start in range(0, len(units), batch_size)
        ]
        for attempt in (0, 1):
            executor = shared_executor(workers)
            try:
                futures = [
                    executor.submit(
                        _verify_batch_task, table, specs, max_combinations
                    )
                    for table, specs in batches
                ]
                return [
                    report
                    for future in futures
                    for report in future.result()
                ]
            except BrokenProcessPool:
                shutdown_worker_pool(broken=True)
                if attempt:
                    raise
        raise AssertionError("unreachable")

    @staticmethod
    def _resolve_trace(
        resolved: Dict[int, List[CompiledSequence]],
        chosen: Dict[int, int],
        order: Order,
    ) -> Tuple[Event, ...]:
        """Map a worker's index-path verdict back to real events (§4.1 witness).

        Workers see only integer hashes; the parent owns the
        :class:`~repro.core.soundness.SequenceStep` objects, so the witness
        trace — the paper's executable counter-example — is rebuilt here.
        """
        return tuple(
            resolved[node][chosen[node]].steps[step_index].event
            for node, step_index in order
        )
