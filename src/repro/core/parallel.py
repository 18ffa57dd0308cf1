"""Deferred, pooled soundness verification.

The paper's third contribution bullet: "Having the exploration, system state
creation, and soundness verification decoupled, the model checking process
can be embarrassingly parallelized to benefit from the ever increasing
number of cores."

:class:`ParallelLocalModelChecker` is :class:`~repro.core.checker.LocalModelChecker`
with one stage swapped: a preliminary violation is *buffered* instead of
verified inline, and the buffer — each entry an independent search over
per-node event-sequence combinations (§5.4: "LMC-OPT triggers the soundness
verification for 773 times, and each call takes 45 ms in average") — is
verified across the shared worker pool whenever it fills and once more when
the pass ends.  Everything else (the widening pass loop, checkpoints,
resume and depth extension, the orbit fallback, ``reverify_rejected``, bug
assembly) is the inherited checker; confirmed violations are reported
through the pass's own ``_report_bug``.

Work units ship as plain integers: each candidate sequence travels as the
``(consumed_hash, generated_hashes)`` steps its
:class:`~repro.core.soundness.CompiledSequence` already holds, so pickling
is trivial and the worker runs the sequential verifier's own search —
record-level bound, starvation quotient, then the one
greedy-then-backtrack replay — on them.
Workers return index paths into the shipped sequences; the parent resolves
them back to real events to build the witness trace.

Dispatch economics (docs/PERFORMANCE.md): units are grouped into batches of
about four per worker, each batch one :func:`repro.core.pool.map_ordered`
task, and a batch's candidate sequences — heavily shared between units
through overlapping predecessor chains — are deduplicated into one table
shipped once per batch.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.checker import LocalModelChecker
from repro.core.pool import map_ordered, resolve_workers
from repro.core.soundness import (
    CompiledSequence,
    Order,
    PlainStep,
    combination_count,
    refuted_by_bound,
    replay_compiled,
    search_combinations,
    summarise,
)
from repro.core.system_states import Combination
from repro.model.events import Event

#: A work unit: per node, the candidate sequences in plain-step form.
WorkUnit = Dict[int, List[Tuple[PlainStep, ...]]]
#: A worker verdict: the chosen sequence index per node plus the executed
#: total order as (node, step index) pairs — or None if no combination
#: replays.
Verdict = Optional[Tuple[Dict[int, int], Order]]
#: An index-based work unit: per node, indices into a batch's shared
#: sequence table.  Overlapping predecessor chains make many units share
#: candidate sequences; shipping each distinct sequence once per batch keeps
#: pickling cost proportional to distinct data, not to units.
UnitSpec = Dict[int, List[int]]


def verify_unit(
    unit: WorkUnit, max_combinations: Optional[int]
) -> Tuple[Verdict, int]:
    """Search a work unit's sequence combinations for a valid total order.

    The worker-side half of §4.1's ``isStateSound``, over plain hash steps:
    returns the verdict and the number of combinations tried (the §5.4
    ``soundness_sequences`` unit).  See :func:`audited_verify_unit`.
    """
    verdict, tried, _refuted = audited_verify_unit(unit, max_combinations)
    return verdict, tried


def audited_verify_unit(
    unit: WorkUnit, max_combinations: Optional[int]
) -> Tuple[Verdict, int, bool]:
    """:func:`verify_unit`, also saying whether the record-level bound refuted it.

    Compiles the shipped sequences and runs the serial verifier's own search
    — :func:`~repro.core.soundness.refuted_by_bound` over their summaries,
    then :func:`~repro.core.soundness.search_combinations` over
    :func:`~repro.core.soundness.replay_compiled` — so bound, quotient,
    replay and the combination count are the sequential ones by
    construction.  A node without any candidate sequence makes the cross
    product empty: unsound after zero tries, exactly as the serial verifier
    answers.
    """
    per_node = [
        [CompiledSequence(node, plain) for plain in unit[node]]
        for node in sorted(unit)
    ]
    if refuted_by_bound([summarise(sequences) for sequences in per_node]):
        return None, combination_count(per_node, max_combinations), True
    combo, order, tried = search_combinations(
        per_node, max_combinations, replay_compiled
    )
    if order is None:
        return None, tried, False
    chosen = {
        sequence.node: candidates.index(sequence)
        for sequence, candidates in zip(combo, per_node)
    }
    return (chosen, order), tried, False


def verify_batch_task(
    table: List[Tuple[PlainStep, ...]],
    specs: List[UnitSpec],
    max_combinations: Optional[int],
) -> List[Tuple[Verdict, int, bool]]:
    """The pool task: rebuild a batch's units from its table, verify each.

    Batching amortizes per-task dispatch overhead (pickle + queue round
    trip) over many small units, which dominates when individual soundness
    searches are fast.
    """
    return [
        audited_verify_unit(
            {node: [table[index] for index in spec[node]] for node in spec},
            max_combinations,
        )
        for spec in specs
    ]


def _encode_batch(
    units: Sequence[Dict[int, List[CompiledSequence]]],
) -> Tuple[List[Tuple[PlainStep, ...]], List[UnitSpec]]:
    """Dedup a batch's sequences into a shared table plus per-unit indices."""
    positions: Dict[Tuple[PlainStep, ...], int] = {}
    specs: List[UnitSpec] = [
        {
            node: [
                positions.setdefault(sequence.plain, len(positions))
                for sequence in sequences
            ]
            for node, sequences in unit.items()
        }
        for unit in units
    ]
    return list(positions), specs


class ParallelLocalModelChecker(LocalModelChecker):
    """LMC with soundness verification fanned out over worker processes.

    ``workers=0`` verifies in-process (useful for determinism and tests);
    ``workers=None`` uses ``os.cpu_count()``.  Semantically the sequential
    checker, except that a violation is verified when the buffer it waits in
    is flushed — against a predecessor DAG at least as large as the one the
    inline check would have seen — so ``stop_on_first_bug`` stops the run at
    the first flush that confirms rather than mid-round.
    :class:`~repro.invariants.base.LocalInvariant` violations are confirmed
    inline, as in the sequential checker: their confirmation is an
    early-exit search over completions with nothing to fan out.
    """

    defers_verification = True

    def __init__(self, *args: Any, workers: Optional[int] = 0, **kwargs: Any):
        if workers is not None and workers < 0:
            raise ValueError(f"workers must be >= 0 or None, got {workers}")
        super().__init__(*args, **kwargs)
        self.workers = workers
        self.algorithm = "LMC-parallel"

    def verify_deferred(
        self, run_pass: Any, combos: Sequence[Combination]
    ) -> List[Optional[Tuple[Event, ...]]]:
        """Verify a flushed buffer across the pool: one witness (or ``None``) each.

        The fan-out runs under one ``dispatch`` trace span; every unit's
        share of its batch task's worker-measured wall time is re-emitted as
        a ``worker_verify`` child span carrying the worker's pid, and the
        §5.4 counters land in the pass's stats, so a multiprocess run's
        trace and counters read like a sequential one's.  Workers see only
        integer hashes; the parent owns the
        :class:`~repro.core.soundness.SequenceStep` objects, so the witness
        trace — the paper's executable counter-example — is rebuilt here.
        """
        verifier, stats = run_pass.verifier, run_pass.stats
        units = [
            {node: verifier.enumerate_sequences(combo[node]) for node in sorted(combo)}
            for combo in combos
        ]
        workers = resolve_workers(self.workers)
        batch_size = max(1, -(-len(units) // (max(workers, 1) * 4)))
        cap = self.config.max_combinations_per_check
        batches = [
            _encode_batch(units[start : start + batch_size]) + (cap,)
            for start in range(0, len(units), batch_size)
        ]
        witnesses: List[Optional[Tuple[Event, ...]]] = []
        with self.emitter.span(
            "dispatch", units=len(units), workers=workers
        ) as dispatch_span:
            answers = [
                (verdict, tried, refuted, wall_s / len(verdicts), pid)
                for verdicts, wall_s, pid in map_ordered(
                    workers, verify_batch_task, batches
                )
                for verdict, tried, refuted in verdicts
            ]
            for index, (unit, answer) in enumerate(zip(units, answers)):
                verdict, tried, refuted, share_s, pid = answer
                stats.soundness_calls += 1
                stats.soundness_sequences += tried
                self.emitter.emit_span(
                    "worker_verify",
                    share_s,
                    fields={
                        "unit": index,
                        "combinations": tried,
                        "sound": verdict is not None,
                        "bound_refuted": refuted,
                    },
                    pid=pid,
                )
                if verdict is None:
                    witnesses.append(None)
                    continue
                chosen, order = verdict
                witnesses.append(
                    tuple(
                        unit[node][chosen[node]].steps[step].event
                        for node, step in order
                    )
                )
            dispatch_span.add(
                confirmed=sum(witness is not None for witness in witnesses)
            )
        return witnesses
