"""The record-level soundness bound changes nothing a run reports.

A soundness call whose record summaries already prove that every
combination fails the starvation quotient skips the product walk
(docs/ALGORITHM.md "Soundness verification").  It must still leave every
counter, the verdict cache's hit count, the bug order and each witness
exactly as the per-combination loop leaves them.  Each space below runs
with the bound on and with it patched off; the bound must fire on each.
"""

import pytest

import repro.core.parallel as parallel
import repro.core.soundness as soundness
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.parallel import ParallelLocalModelChecker
from repro.explore.budget import SearchBudget
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit


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


@pytest.mark.parametrize(
    "space, checker",
    [
        (s55(520), LocalModelChecker),
        (s55(760), LocalModelChecker),
        (s52_contended, LocalModelChecker),
        (two_phase_faults, LocalModelChecker),
        (two_phase_faults, ParallelLocalModelChecker),
    ],
    ids=["s55@520", "s55@760", "s52@2141", "2pc-timeout-faults", "2pc-timeout-faults-pooled"],
)
def test_bound_on_and_off_report_the_same_run(space, checker, monkeypatch):
    protocol, invariant, initial, budget, config = space()
    kwargs = {"workers": 0} if checker is ParallelLocalModelChecker else {}
    fired = []
    bound = soundness.refuted_by_bound

    def counted(summaries):
        fired.append(bound(summaries))
        return fired[-1]

    def run(refutes):
        monkeypatch.setattr(soundness, "refuted_by_bound", refutes)
        monkeypatch.setattr(parallel, "refuted_by_bound", refutes)
        result = checker(protocol, invariant, budget, config, **kwargs).run(initial)
        return _observed(result)

    with_bound = run(counted)
    without_bound = run(lambda summaries: False)
    assert with_bound == without_bound
    assert any(fired)
    assert with_bound["counts"]["soundness_calls"] > 0
