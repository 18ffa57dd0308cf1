"""The record-level soundness bound changes nothing a run reports.

A soundness call whose record summaries already prove that every
combination fails the starvation quotient skips the product walk
(docs/ALGORITHM.md "Soundness verification").  It must still leave every
counter, the verdict cache's hit count, the bug order and each witness
exactly as the per-combination loop leaves them.  Each space below runs
with the bound on and with it patched off; the bound must fire on each.
One space reruns with two exploration workers, dispatching every round:
verification stays inline there too, so the bound must be as invisible.
"""

from dataclasses import replace

import pytest

import repro.core.soundness as soundness
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.obs.emitter import MemoryEmitter
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit
from repro.replay import validate_bug


def s55(transitions):
    def space():
        return (
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            partial_choice_state(),
            SearchBudget(max_transitions=transitions),
            LMCConfig.optimized(stop_on_first_bug=False),
        )

    return space


def s52_contended():
    """The §5.2 two-proposer space at its first soundness calls: 2,400 calls
    and 109,600 combinations at 2,141 transitions, none below 2,141."""
    return (
        PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 0, "v1"))),
        PaxosAgreement(0),
        None,
        SearchBudget(max_transitions=2141),
        LMCConfig.optimized(),
    )


def two_phase_faults():
    """Drops and crashes: the verdict cache hits thousands of times here."""
    return (
        TimeoutTwoPhaseCommit(3),
        Atomicity(),
        None,
        SearchBudget(),
        LMCConfig.optimized(
            drop_faults=True, fault_events_enabled=True, stop_on_first_bug=False
        ),
    )


def two_phase_faults_explore():
    """The same space with its rounds sharded across two forked children."""
    *space, config = two_phase_faults()
    return (*space, replace(config, explore_workers=2))


def _observed(result):
    counts = {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith("phase_")
    }
    return {
        "counts": counts,
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": [bug.description for bug in result.bugs],
        "witnesses": [[event.describe() for event in bug.trace] for bug in result.bugs],
    }


@pytest.mark.usefixtures("dispatch_every_round")
@pytest.mark.parametrize(
    "space",
    [s55(520), s55(760), s52_contended, two_phase_faults, two_phase_faults_explore],
    ids=["s55@520", "s55@760", "s52@2141", "2pc-timeout-faults", "2pc-timeout-faults-explore"],
)
def test_bound_on_and_off_report_the_same_run(space, monkeypatch):
    protocol, invariant, initial, budget, config = space()
    fired = []
    bound = soundness.refuted_by_bound

    def counted(summaries):
        fired.append(bound(summaries))
        return fired[-1]

    def run(refutes):
        monkeypatch.setattr(soundness, "refuted_by_bound", refutes)
        result = LocalModelChecker(protocol, invariant, budget, config).run(initial)
        return _observed(result)

    with_bound = run(counted)
    without_bound = run(lambda summaries: False)
    assert with_bound == without_bound
    assert any(fired)
    assert with_bound["counts"]["soundness_calls"] > 0
    if config.explore_workers:
        assert with_bound["counts"]["explore_rounds_parallel"] > 0


def _s55_at_760(explore_workers):
    protocol, invariant, initial, budget, config = s55(760)()
    emitter = MemoryEmitter()
    result = LocalModelChecker(
        protocol,
        invariant,
        budget,
        replace(config, explore_workers=explore_workers),
        emitter=emitter,
    ).run(initial)
    units = [r["fields"] for r in emitter.records if r.get("name") == "soundness"]
    assert (result.stats.explore_rounds_parallel > 0) == (explore_workers > 0)
    return protocol, invariant, result, units


@pytest.mark.usefixtures("dispatch_every_round")
@pytest.mark.parametrize("explore_workers", [0, 2])
def test_every_violation_of_the_s55_snapshot_is_verified(explore_workers):
    """8,448 preliminary violations at 760 transitions: every one gets a
    soundness call, and all ten real bugs are confirmed and replay."""
    protocol, invariant, result, _units = _s55_at_760(explore_workers)
    assert result.stats.preliminary_violations == result.stats.soundness_calls == 8448
    assert result.stats.confirmed_bugs == len(result.bugs) == 10
    for bug in result.bugs:
        replayed = validate_bug(protocol, bug, invariant)
        assert replayed.complete and replayed.violates


@pytest.mark.usefixtures("dispatch_every_round")
@pytest.mark.parametrize("explore_workers", [0, 2])
def test_the_bound_refutes_most_s55_calls_and_counts_their_product(explore_workers):
    """On the s55@760 snapshot the bound refutes 8,388 of 8,448 calls, and
    each refuted call still counts its whole (capped) product."""
    _protocol, _invariant, result, units = _s55_at_760(explore_workers)
    assert len(units) == result.stats.soundness_calls == 8448
    refuted = [unit for unit in units if unit["bound_refuted"]]
    assert len(refuted) == 8388
    assert all(unit["sequences"] > 0 for unit in refuted)
    assert sum(unit["sequences"] for unit in units) == 134388
    assert result.stats.soundness_sequences == 134388
