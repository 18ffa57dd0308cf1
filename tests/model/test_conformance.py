"""Conformance sweep: every shipped protocol keeps the Protocol contract."""

import random
from dataclasses import dataclass, field, replace
from typing import Tuple

import pytest

from repro.model.conformance import check_protocol
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, Message, NodeId
from repro.protocols.chain import ChainProtocol
from repro.protocols.echo import EchoProtocol
from repro.protocols.fifo_wrapper import FifoStampedProtocol
from repro.protocols.onepaxos import (
    OnePaxosAgreement,
    OnePaxosAgreementAll,
    OnePaxosProtocol,
)
from repro.protocols.paxos import (
    BuggyPaxosProtocol,
    PaxosAgreement,
    PaxosAgreementAll,
    PaxosProtocol,
)
from repro.protocols.randtree import RandTreeProtocol, SiblingMixupRandTree
from repro.protocols.ring import AtMostOneLeader, GreedyRingElection, RingElection
from repro.protocols.stream import StreamProtocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TwoPhaseCommit,
)

ALL_PROTOCOLS = [
    TreeProtocol(),
    TreeProtocol(track_forwarding=False),
    ChainProtocol(4),
    EchoProtocol(3),
    StreamProtocol(3),
    TwoPhaseCommit(3, no_voters=(2,)),
    EagerCommitCoordinator(3, no_voters=(2,)),
    RandTreeProtocol(4),
    SiblingMixupRandTree(4),
    RingElection(4),
    GreedyRingElection(4),
    PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),), require_init=False),
    BuggyPaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),), require_init=False),
    OnePaxosProtocol(
        num_nodes=3, proposals=((2, 0, "v"),), fault_suspects=(2,),
        require_init=False,
    ),
    FifoStampedProtocol(StreamProtocol(3), mode="reject"),
    FifoStampedProtocol(StreamProtocol(3), mode="reassemble"),
]


@pytest.mark.parametrize(
    "protocol", ALL_PROTOCOLS, ids=lambda p: p.name
)
def test_shipped_protocols_conform(protocol):
    report = check_protocol(protocol, max_states=800)
    assert report.ok, report.summary()
    assert report.states_checked > 0
    assert report.events_checked > 0


# -- deliberately broken protocols must be caught ------------------------------


@dataclass(frozen=True)
class TinyState:
    node: NodeId
    done: bool = False


class NonDeterministicProtocol(Protocol):
    """Handler result depends on a random coin: a contract violation."""

    name = "nondeterministic"

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0, 1)

    def initial_state(self, node):
        return TinyState(node=node)

    def enabled_actions(self, state):
        if state.node == 0 and not state.done:
            return (Action(node=0, name="go"),)
        return ()

    def handle_action(self, state, action):
        if random.random() < 0.5:
            return HandlerResult(replace(state, done=True))
        return HandlerResult(state)

    def handle_message(self, state, message):
        return HandlerResult(state)


class UnhashableStateProtocol(Protocol):
    """Reaches a state containing a list: not content-hashable."""

    name = "unhashable"

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0,)

    def initial_state(self, node):
        return TinyState(node=node)

    def enabled_actions(self, state):
        if isinstance(state, TinyState) and not state.done:
            return (Action(node=0, name="go"),)
        return ()

    def handle_action(self, state, action):
        return HandlerResult((state, [1, 2, 3]))  # list inside a state

    def handle_message(self, state, message):
        return HandlerResult(state)


class CrashingProtocol(Protocol):
    """Crashes on foreign payloads instead of ignoring them."""

    name = "crashing"

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0,)

    def initial_state(self, node):
        return TinyState(node=node)

    def enabled_actions(self, state):
        return ()

    def handle_action(self, state, action):
        return HandlerResult(state)

    def handle_message(self, state, message):
        raise RuntimeError(f"unexpected payload {message.payload!r}")


@dataclass(frozen=True)
class FlagState:
    node: NodeId
    flag: object = None


@dataclass(frozen=True)
class StampedState:
    node: NodeId
    count: int = 0
    stamp: int = field(default=0, compare=False)


class _TwoActionProtocol(Protocol):
    """One node, two actions enabled on the initial state only."""

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0,)

    def enabled_actions(self, state):
        if state == self.initial_state(0):
            return (Action(node=0, name="a"), Action(node=0, name="b"))
        return ()

    def handle_message(self, state, message):
        return HandlerResult(state)


class TypeUnstableProtocol(_TwoActionProtocol):
    """Writes ``1`` on one path and ``True`` on another into the same field:
    the two successors compare equal but encode differently."""

    name = "type-unstable"

    def initial_state(self, node):
        return FlagState(node=node)

    def handle_action(self, state, action):
        return HandlerResult(replace(state, flag=1 if action.name == "a" else True))


class HiddenFieldProtocol(_TwoActionProtocol):
    """Successors differ only in a ``compare=False`` field."""

    name = "hidden-field"

    def initial_state(self, node):
        return StampedState(node=node)

    def handle_action(self, state, action):
        return HandlerResult(
            replace(state, count=1, stamp=1 if action.name == "a" else 2)
        )


def test_type_unstable_field_is_hashed_exactly():
    """``FlagState(0, 1) == FlagState(0, True)`` in Python, but they encode
    differently; the interner keys them apart, so nothing is reported and
    both successors are explored."""
    report = check_protocol(TypeUnstableProtocol())
    assert report.ok, report.summary()
    assert report.states_checked == 3


def test_compare_false_field_is_hashed_exactly():
    """``==`` ignores ``stamp`` but the encoding does not: both successors
    are distinct states, with the walk's digests."""
    report = check_protocol(HiddenFieldProtocol())
    assert report.ok, report.summary()
    assert report.states_checked == 3


def test_nondeterminism_detected():
    random.seed(1234)
    report = check_protocol(NonDeterministicProtocol())
    assert not report.ok
    assert any("non-deterministic" in problem for problem in report.problems)


def test_unhashable_state_detected():
    report = check_protocol(UnhashableStateProtocol())
    assert not report.ok
    assert any("unhashable" in problem for problem in report.problems)


def test_crash_on_foreign_payload_detected():
    report = check_protocol(CrashingProtocol())
    assert not report.ok
    assert any("raised" in problem for problem in report.problems)


def test_report_summary_renders():
    report = check_protocol(CrashingProtocol())
    text = report.summary()
    assert "problems" in text
    assert "RuntimeError" in text


# -- the optional ``summary`` hook of an invariant -------------------------------

SUMMARISED = [
    (BuggyPaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 0, "v1")),
                        require_init=False), PaxosAgreement(0)),
    (BuggyPaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 0, "v1")),
                        require_init=False), PaxosAgreementAll()),
    (OnePaxosProtocol(num_nodes=3, proposals=((2, 0, "v"),), fault_suspects=(2,),
                      require_init=False), OnePaxosAgreement(0)),
    (OnePaxosProtocol(num_nodes=3, proposals=((2, 0, "v"),), fault_suspects=(2,),
                      require_init=False), OnePaxosAgreementAll()),
    (EagerCommitCoordinator(3, no_voters=(2,)), Atomicity()),
    (EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity()),
    (GreedyRingElection(3, initiators=(0,)), AtMostOneLeader()),
    (TreeProtocol(), ReceivedImpliesSent()),
]


@pytest.mark.parametrize(
    "protocol, invariant", SUMMARISED, ids=lambda value: value.name
)
def test_shipped_summaries_conform(protocol, invariant):
    report = check_protocol(protocol, max_states=300, invariant=invariant)
    assert report.ok, report.summary()


class BlindAtomicity(Atomicity):
    """Summarises what ``check`` does not read: equal tuples, other verdicts."""

    def summary(self, node, state):
        return state.voted


class UnpicklableSummary(Atomicity):
    def summary(self, node, state):
        return object()


def test_summary_hiding_the_verdict_detected():
    report = check_protocol(
        EagerCommitCoordinator(3, no_voters=(2,)), invariant=BlindAtomicity()
    )
    assert any("different verdicts" in problem for problem in report.problems), (
        report.summary()
    )


def test_summary_without_value_equality_detected():
    report = check_protocol(
        EagerCommitCoordinator(3, no_voters=(2,)), invariant=UnpicklableSummary()
    )
    assert any("pickle round trip" in problem for problem in report.problems), (
        report.summary()
    )
