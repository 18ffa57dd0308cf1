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
and crash faults, two exploration workers, and checkpoint kill-and-resume
and ``extend_depth``.  With symmetry reduction
on, clean anchors count their new orbits in one pass
(``SymmetryReducer.count_block``); those cases also compare the reducer's
orbit keys and hit count, and the checkpoint's ``symmetry`` block.
"""

import copy
import functools
import json
import math
from dataclasses import replace
from unittest import mock

import pytest

from repro.core import symmetry
from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import Checkpointer, load_checkpoint
from repro.core.config import LMCConfig
from repro.core.symmetry import SymmetryReducer
from repro.explore.budget import BudgetClock, SearchBudget
from repro.invariants.base import Invariant, declares_summary
from repro.protocols.paxos import PaxosAgreement, PaxosAgreementAll, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
)


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
def both(case):
    """The summarised run, its walked reference and the counted invariant.

    Cached: several tests read the same deterministic runs.
    """
    scenario, budget, config = CASES[case]
    protocol, invariant, initial = scenario()
    reference = LocalModelChecker(protocol, walked(invariant), budget, config)
    summarised = LocalModelChecker(protocol, counting(invariant), budget, config)
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


@pytest.mark.usefixtures("dispatch_every_round")
def test_explore_workers_match_the_walk():
    """Summarised GEN with every round sharded across two forked children:
    the coordinator still checks tuples, and the run equals the walk."""
    scenario, budget, config = CASES["s55_all_bugs"]
    config = replace(config, explore_workers=2)
    protocol, invariant, initial = scenario()
    summarised = LocalModelChecker(protocol, counting(invariant), budget, config).run(initial)
    reference = LocalModelChecker(protocol, walked(invariant), budget, config).run(initial)
    assert summarised.bugs and summarised.stats.explore_rounds_parallel > 0
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


def reducers_built(run):
    """``run()``'s result, the symmetry reducers its passes built, and the
    number of combinations they counted in blocks (``count_block``)."""
    built, blocked = [], []
    for_pass = SymmetryReducer.for_pass.__func__
    count_block = SymmetryReducer.count_block

    def recording(cls, pass_):
        reducer = for_pass(cls, pass_)
        built.append(reducer)
        return reducer

    def counted(self, *args):
        for combinations, new in count_block(self, *args):
            blocked.append(combinations)
            yield combinations, new

    with mock.patch.object(
        SymmetryReducer, "for_pass", classmethod(recording)
    ), mock.patch.object(SymmetryReducer, "count_block", counted):
        result = run()
    return result, built, sum(blocked)


def four_node_paxos():
    """One scripted proposer, three passive acceptors: a group of 6."""
    return PaxosProtocol(num_nodes=4, proposals=((0, 0, "v0"),)), PaxosAgreement(0), None


def eager_commit():
    """Two yes-voters (a class of 2) beside a no-voter: commit bugs."""
    return EagerCommitCoordinator(4, no_voters=(3,)), CommitValidity(), None


#: name -> (scenario, budget, config), all with symmetry reduction on.
SYMMETRY_CASES = {
    "paxos_sym_depth3": (
        correct_paxos,
        SearchBudget(max_depth=3),
        LMCConfig.general(symmetry_reduction=True),
    ),
    "paxos_sym_depth4": (
        correct_paxos,
        SearchBudget(max_depth=4),
        LMCConfig.general(symmetry_reduction=True),
    ),
    "paxos4_passive_sym": (
        four_node_paxos,
        SearchBudget(max_depth=4),
        LMCConfig.general(symmetry_reduction=True),
    ),
    "2pc_drops_and_crashes_sym": (
        two_phase_timeouts,
        SearchBudget(max_depth=5),
        LMCConfig.general(
            symmetry_reduction=True,
            stop_on_first_bug=False,
            drop_faults=True,
            fault_events_enabled=True,
        ),
    ),
    "eager_commit_sym": (
        eager_commit,
        SearchBudget(max_depth=6),
        LMCConfig.general(symmetry_reduction=True, stop_on_first_bug=False),
    ),
}


@functools.lru_cache(maxsize=None)
def both_reduced(case):
    """Summarised and walked runs of a symmetry case, each with its reducers."""
    scenario, budget, config = SYMMETRY_CASES[case]
    protocol, invariant, initial = scenario()
    return tuple(
        reducers_built(
            lambda: LocalModelChecker(protocol, variant, budget, config).run(initial)
        )
        for variant in (invariant, walked(invariant))
    )


@pytest.mark.parametrize("case", sorted(SYMMETRY_CASES))
def test_symmetry_reduced_gen_matches_the_walk(case):
    """Clean anchors counted per orbit, violating anchors walked: same run."""
    (summarised, counted, blocked), (reference, walked_reducers, _) = both_reduced(case)
    assert observable(summarised) == observable(reference)
    assert summarised.stats.symmetry_skips > 0
    assert [(r._seen, r.orbit_hits) for r in counted] == [
        (r._seen, r.orbit_hits) for r in walked_reducers
    ]
    # Clean anchors were counted in blocks, not walked.
    assert blocked > 0


def test_symmetry_cases_cover_groups_violations_and_faults():
    (_, (reducer,), _), _ = both_reduced("paxos4_passive_sym")
    assert len(reducer.group) == 6
    for case in ("2pc_drops_and_crashes_sym", "eager_commit_sym"):
        (result, _, _), _ = both_reduced(case)
        assert result.bugs and result.stats.preliminary_violations > len(result.bugs)
    (faulty, _, _), _ = both_reduced("2pc_drops_and_crashes_sym")
    assert faulty.stats.fault_drops and faulty.stats.fault_crashes


@pytest.mark.parametrize("case", ["paxos_sym_depth3", "2pc_drops_and_crashes_sym"])
def test_symmetry_checkpoint_block_is_byte_identical(case, tmp_path):
    scenario, budget, config = SYMMETRY_CASES[case]
    protocol, invariant, initial = scenario()
    blocks = []
    for label, variant in (("summarised", invariant), ("walked", walked(invariant))):
        path = str(tmp_path / f"{label}.json")
        LocalModelChecker(
            protocol, variant, budget, config, checkpointer=Checkpointer(path)
        ).run(initial)
        blocks.append(json.dumps(load_checkpoint(path)["pass"]["symmetry"]))
    assert blocks[0] == blocks[1]
    assert json.loads(blocks[0])["seen"]


def test_time_budget_stops_inside_a_counted_block(monkeypatch):
    """Out of time between two chunks: counters hold what was counted.

    Chunks shrink to 4 combinations and the clock runs out as soon as a
    block has yielded a chunk with more of it still to come, so the run
    must stop inside ``_check_new_state`` with every counter, ``_seen`` and
    ``orbit_hits`` covering the counted chunks exactly.
    """
    monkeypatch.setattr(symmetry, "BLOCK_CHUNK", 4)
    partial = []
    count_block = SymmetryReducer.count_block

    def watched(self, space, anchor_node, anchor):
        size = math.prod(
            len(space.store(node).active_records())
            for node in space.node_ids
            if node != anchor_node
        )
        counted = 0
        for combinations, new in count_block(self, space, anchor_node, anchor):
            counted += combinations
            partial.append(counted < size)
            yield combinations, new

    monkeypatch.setattr(SymmetryReducer, "count_block", watched)
    monkeypatch.setattr(BudgetClock, "out_of_time", lambda clock: any(partial))
    protocol, invariant, _ = correct_paxos()
    result, (reducer,), _ = reducers_built(
        lambda: LocalModelChecker(
            protocol,
            invariant,
            SearchBudget(max_depth=4, max_seconds=60),
            LMCConfig.general(symmetry_reduction=True),
        ).run()
    )
    assert not result.completed
    assert result.stop_reason == "time budget exhausted"
    assert partial[-1] and not any(partial[:-1])
    stats = result.stats
    assert len(reducer._seen) == stats.system_states_created
    assert stats.invariant_checks == stats.system_states_created + 1
    assert reducer.orbit_hits == stats.symmetry_skips > 0
