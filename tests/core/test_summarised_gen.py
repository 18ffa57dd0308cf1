"""Summarised LMC-GEN against the per-combination walk it replaces.

An invariant that declares ``summary`` lets LMC-GEN check each distinct
summary tuple once and count the combinations behind it in bulk
(:func:`repro.core.system_states.enumerate_summarised`).  The contract is
that nothing observable moves: every counter of ``stats.snapshot()``
(timers excluded), the Fig. 11 depth series, the bug list in order, and
every witness.  The walked reference is the same invariant with its
``summary`` hidden, so the checker takes the per-combination walk.

Cases cover a clean space (the bulk path only), spaces whose tuples violate
(the per-combination fallback at violating anchors, soundness calls,
``stop_on_first_bug`` on and off), drop
and crash faults, the deferring ``ParallelLocalModelChecker``, and
checkpoint kill-and-resume and ``extend_depth``.
"""

import copy
import functools

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import Checkpointer, load_checkpoint
from repro.core.config import LMCConfig
from repro.core.parallel import ParallelLocalModelChecker
from repro.explore.budget import SearchBudget
from repro.invariants.base import Invariant, declares_summary
from repro.protocols.paxos import PaxosAgreement, PaxosAgreementAll, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit


def walked(invariant):
    """``invariant`` with its ``summary`` hidden: GEN walks every combination.

    The copy's class is a same-named subclass, so names in bug reports,
    coverage keys and checkpoint fingerprints are unchanged.
    """
    cls = type(invariant)
    hidden = type(
        cls.__name__,
        (cls,),
        {"summary": Invariant.summary, "__module__": cls.__module__},
    )
    reference = copy.copy(invariant)
    reference.__class__ = hidden
    assert not declares_summary(reference)
    return reference


def counting(invariant):
    """``invariant`` with its ``check`` calls counted in ``invariant.calls``."""
    check = invariant.check
    invariant.calls = 0

    def counted(system):
        invariant.calls += 1
        return check(system)

    invariant.check = counted
    return invariant


def observable(result):
    return {
        "counters": {
            key: value
            for key, value in result.stats.snapshot().items()
            if not key.startswith("phase_")
        },
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "series": [
            (
                sample.depth,
                {
                    key: value
                    for key, value in sample.metrics.items()
                    if not key.startswith("phase_") and key != "rss_bytes"
                },
            )
            for sample in result.series.samples
        ],
        "bugs": [
            (bug.description, [event.describe() for event in bug.trace])
            for bug in result.bugs
        ],
    }


def correct_paxos():
    return PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)), PaxosAgreement(0), None


def s55_snapshot():
    return scenario_protocol(buggy=True), PaxosAgreement(0), partial_choice_state()


def s55_snapshot_all_indexes():
    return scenario_protocol(buggy=True), PaxosAgreementAll(), partial_choice_state()


def two_phase_timeouts():
    return TimeoutTwoPhaseCommit(3), Atomicity(), None


#: name -> (scenario, budget, config).
CASES = {
    "paxos_clean_depth4": (
        correct_paxos,
        SearchBudget(max_depth=4),
        LMCConfig.general(),
    ),
    "s55_all_bugs": (
        s55_snapshot,
        SearchBudget(max_transitions=520),
        LMCConfig.general(stop_on_first_bug=False),
    ),
    "s55_first_bug": (
        s55_snapshot,
        SearchBudget(max_transitions=520),
        LMCConfig.general(),
    ),
    "s55_all_indexes_reverify": (
        s55_snapshot_all_indexes,
        SearchBudget(max_transitions=520),
        LMCConfig.general(stop_on_first_bug=False, reverify_rejected=True),
    ),
    "2pc_drops_and_crashes": (
        two_phase_timeouts,
        SearchBudget(max_depth=5),
        LMCConfig.general(
            stop_on_first_bug=False, drop_faults=True, fault_events_enabled=True
        ),
    ),
    "2pc_first_bug": (
        two_phase_timeouts,
        SearchBudget(max_depth=5),
        LMCConfig.general(drop_faults=True),
    ),
}


@functools.lru_cache(maxsize=None)
def both(case, checker_class=LocalModelChecker, workers=None):
    """The summarised run, its walked reference and the counted invariant.

    Cached: several tests read the same deterministic runs.
    """
    kwargs = {} if workers is None else {"workers": workers}
    scenario, budget, config = CASES[case]
    protocol, invariant, initial = scenario()
    reference = checker_class(protocol, walked(invariant), budget, config, **kwargs)
    summarised = checker_class(protocol, counting(invariant), budget, config, **kwargs)
    return summarised.run(initial), reference.run(initial), invariant


@pytest.mark.parametrize("case", sorted(CASES))
def test_summarised_gen_matches_the_walk(case):
    summarised, reference, invariant = both(case)
    assert observable(summarised) == observable(reference)
    # The fast path really ran: fewer check calls than system states checked.
    assert invariant.calls < summarised.stats.invariant_checks


def test_cases_cover_clean_and_violating_tuples():
    clean, _, _ = both("paxos_clean_depth4")
    assert clean.completed and not clean.bugs
    assert clean.stats.system_states_created == 262383
    violating, _, invariant = both("s55_all_bugs")
    assert len(violating.bugs) > 1
    # Several violating combinations, each checked through soundness; the
    # anchors with a violating tuple are walked, the rest still counted in
    # bulk, so check calls stay far below system states.
    assert violating.stats.preliminary_violations > 1
    assert invariant.calls * 10 < violating.stats.invariant_checks
    faulty, _, _ = both("2pc_drops_and_crashes")
    assert faulty.bugs and faulty.stats.fault_drops and faulty.stats.fault_crashes


def test_deferring_parallel_checker_matches_the_walk():
    summarised, reference, _ = both("s55_all_bugs", ParallelLocalModelChecker, workers=0)
    assert summarised.bugs
    assert observable(summarised) == observable(reference)


class _StopAtRound(Checkpointer):
    """Requests the cooperative stop at one round boundary, as SIGTERM does."""

    def __init__(self, path, stop_round):
        super().__init__(path)
        self.stop_round = stop_round

    def due(self, round_number):
        if round_number == self.stop_round:
            self.stop_requested = True
        return super().due(round_number)


@pytest.mark.parametrize("case", ["paxos_clean_depth4", "2pc_drops_and_crashes"])
def test_kill_and_resume_matches_the_walk(case, tmp_path):
    scenario, budget, config = CASES[case]
    protocol, invariant, initial = scenario()
    results = []
    for label, variant in (("summarised", invariant), ("walked", walked(invariant))):
        path = str(tmp_path / f"{label}.json")
        interrupted = LocalModelChecker(
            protocol, variant, budget, config, checkpointer=_StopAtRound(path, 2)
        ).run(initial)
        assert interrupted.stop_reason == "interrupted (checkpoint written)"
        results.append(
            LocalModelChecker(protocol, variant, budget, config).resume(
                load_checkpoint(path)
            )
        )
    summarised, reference = results
    assert observable(summarised) == observable(reference)
    cold, _, _ = both(case)
    assert observable(summarised)["counters"] == observable(cold)["counters"]


@pytest.mark.parametrize(
    "case, shallow", [("paxos_clean_depth4", 3), ("2pc_drops_and_crashes", 3)]
)
def test_extend_depth_matches_the_walk(case, shallow, tmp_path):
    scenario, budget, config = CASES[case]
    protocol, invariant, initial = scenario()
    results = []
    for label, variant in (("summarised", invariant), ("walked", walked(invariant))):
        path = str(tmp_path / f"{label}.json")
        first = LocalModelChecker(
            protocol,
            variant,
            SearchBudget(max_depth=shallow),
            config,
            checkpointer=Checkpointer(path),
        ).run(initial)
        assert first.completed
        results.append(
            LocalModelChecker(protocol, variant, budget, config).extend_depth(
                load_checkpoint(path)
            )
        )
    summarised, reference = results
    assert observable(summarised) == observable(reference)


def test_symmetry_reduction_keeps_the_walk():
    """Symmetry on: every combination is still checked on its own."""
    protocol, invariant, _ = correct_paxos()
    invariant = counting(invariant)
    result = LocalModelChecker(
        protocol,
        invariant,
        SearchBudget(max_depth=3),
        LMCConfig.general(symmetry_reduction=True),
    ).run()
    assert result.stats.symmetry_skips > 0
    # One check per checked system state, plus the seed check.
    assert invariant.calls == result.stats.invariant_checks
