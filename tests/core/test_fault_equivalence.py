"""Fault scheduling must be invisible when off and sound when on.

PR 4's crash–restart exploration (docs/FAULTS.md) is gated behind
``LMCConfig.fault_events_enabled``; with the gate closed — or open but with
``max_total_crashes=0`` — every counter, verdict and witness trace must be
byte-identical to a run without the fault scheduler, the same discipline
``test_cache_equivalence`` applies to the PR 3 caches.  With the gate open,
crashes must never manufacture violations the protocol cannot exhibit
(acceptor durability makes Paxos crash-safe), and when a genuine
crash-dependent bug exists the witness must carry the fault schedule and
replay end to end.
"""

from dataclasses import dataclass, replace
from typing import Any, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.invariants.base import DecomposableInvariant
from repro.model.events import CrashEvent, RestartEvent
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, Message, NodeId
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator
from repro.replay import validate_bug
from tests.core.equivalence import observable

#: Small exhaustible workloads: a clean protocol, a clean consensus run and a
#: genuinely buggy one, so the equivalence holds across verdict shapes.
SCENARIOS = {
    "tree": lambda: (TreeProtocol(), ReceivedImpliesSent()),
    "2pc-clean": lambda: (EagerCommitCoordinator(3), CommitValidity()),
    "2pc-buggy": lambda: (EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity()),
}


@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    max_crashes_per_node=st.integers(min_value=0, max_value=2),
    max_transitions=st.one_of(st.none(), st.integers(min_value=20, max_value=200)),
)
@settings(max_examples=15, deadline=None)
def test_zero_crash_budget_is_byte_identical(
    scenario, max_crashes_per_node, max_transitions
):
    """``fault_events_enabled=True, max_total_crashes=0`` == no scheduler."""
    budget = (
        SearchBudget.unbounded()
        if max_transitions is None
        else SearchBudget(max_transitions=max_transitions)
    )
    protocol, invariant = SCENARIOS[scenario]()
    baseline = LocalModelChecker(
        protocol, invariant, budget=budget, config=LMCConfig.optimized()
    ).run()
    protocol, invariant = SCENARIOS[scenario]()
    gated = LocalModelChecker(
        protocol,
        invariant,
        budget=budget,
        config=LMCConfig.optimized(
            fault_events_enabled=True,
            max_total_crashes=0,
            max_crashes_per_node=max_crashes_per_node,
        ),
    ).run()
    assert observable(gated) == observable(baseline)


def test_fault_exploration_is_off_by_default():
    for config in (LMCConfig(), LMCConfig.optimized(), LMCConfig.general()):
        assert config.fault_events_enabled is False


def test_paxos_survives_acceptor_crash_restart():
    """One crash–restart per node must not fabricate an agreement violation.

    Acceptor promises and accepted ballots are declared durable by
    ``PaxosProtocol.durable_state``, so a rebooted acceptor cannot forget a
    promise and re-promise to an older ballot — the classic unsound-crash
    false positive.  The single-proposal space must stay exhaustible and
    bug-free with the fault scheduler on.
    """
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
    result = LocalModelChecker(
        protocol,
        PaxosAgreement(0),
        config=LMCConfig.optimized(fault_events_enabled=True),
    ).run()
    assert result.completed
    assert not result.found_bug
    snapshot = result.stats.snapshot()
    assert snapshot["fault_crashes"] > 0
    assert snapshot["fault_restarts"] > 0


# -- a protocol whose only bug needs a crash ------------------------------------


@dataclass(frozen=True)
class BootState:
    """Node state with a durable boot counter and a volatile decision."""

    node: NodeId
    boots: int = 0
    value: Optional[str] = None


class VolatileDecisionProtocol(Protocol):
    """Each node decides once; the decision depends on the boot generation.

    The boot counter is durable, the decision is volatile — so the only way
    two nodes can disagree is for one of them to crash after the run starts
    and decide again on generation 1.  Any witness of the violation must
    therefore contain the crash and the restart.
    """

    name = "volatile-decision"

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0, 1)

    def initial_state(self, node: NodeId) -> BootState:
        return BootState(node=node)

    def handle_message(self, state: BootState, message: Message) -> HandlerResult:
        return HandlerResult(state)

    def enabled_actions(self, state: BootState) -> Tuple[Action, ...]:
        if state.value is None:
            return (Action(node=state.node, name="decide"),)
        return ()

    def handle_action(self, state: BootState, action: Action) -> HandlerResult:
        if action.name != "decide" or state.value is not None:
            return HandlerResult(state)
        return HandlerResult(
            replace(state, value="a" if state.boots == 0 else "b")
        )

    def durable_state(self, node: NodeId, state: BootState) -> int:
        return state.boots

    def restart_state(self, node: NodeId, durable: int) -> BootState:
        return BootState(node=node, boots=durable + 1)


class DecisionAgreement(DecomposableInvariant):
    """No two nodes may hold different decisions."""

    name = "decision-agreement"

    def local_projection(self, node: NodeId, state: Any) -> Optional[str]:
        return getattr(state, "value", None)


def test_crash_dependent_bug_found_with_fault_witness():
    """A violation that *needs* a crash yields a replayable fault witness."""
    protocol = VolatileDecisionProtocol()
    invariant = DecisionAgreement()

    clean = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized()
    ).run()
    assert clean.completed and not clean.found_bug

    result = LocalModelChecker(
        protocol,
        invariant,
        config=LMCConfig.optimized(fault_events_enabled=True),
    ).run()
    assert result.found_bug
    bug = result.first_bug()
    kinds = {type(event) for event in bug.trace}
    assert CrashEvent in kinds
    assert RestartEvent in kinds

    outcome = validate_bug(protocol, bug, invariant)
    assert outcome.complete and outcome.violates


def test_crash_budget_knobs_bound_the_fault_space():
    """Per-node and global caps actually limit executed faults."""
    protocol = VolatileDecisionProtocol()
    invariant = DecisionAgreement()
    result = LocalModelChecker(
        protocol,
        invariant,
        config=LMCConfig.optimized(
            fault_events_enabled=True,
            max_total_crashes=1,
            stop_on_first_bug=False,
        ),
    ).run()
    snapshot = result.stats.snapshot()
    assert snapshot["fault_crashes"] == 1
    assert snapshot["fault_restarts"] >= 1
