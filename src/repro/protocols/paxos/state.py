"""Immutable per-node Paxos state: the three roles of §5.

"In usual implementations of Paxos, each node implements three roles:
proposer, acceptor, and learner."  Each role keeps a slot per decree index,
stored in tuple maps (sorted ``(index, slot)`` tuples) so the whole node
state stays hashable and cheap to content-hash.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple

from repro.model.types import NodeId
from repro.protocols.common import TupleMap, tm_get, tm_set
from repro.protocols.paxos.messages import Ballot, Value


@dataclass(frozen=True)
class PromiseInfo:
    """One PrepareResponse as remembered by the proposer, in arrival order."""

    src: NodeId
    accepted_ballot: Optional[Ballot]
    accepted_value: Optional[Value]


@dataclass(frozen=True)
class ProposerSlot:
    """Proposer-side state of one decree.

    ``phase`` walks ``preparing -> accepting``; ``responses`` keeps the
    PrepareResponses in arrival order — order matters because the injected
    §5.5 bug reads the *last* response.
    """

    ballot: Ballot
    value: Value
    phase: str = "preparing"
    responses: Tuple[PromiseInfo, ...] = ()

    def has_response_from(self, src: NodeId) -> bool:
        """True when a response from ``src`` was already recorded."""
        return any(info.src == src for info in self.responses)


@dataclass(frozen=True)
class AcceptorSlot:
    """Acceptor-side state of one decree: promise and accepted proposal."""

    promised: Optional[Ballot] = None
    accepted_ballot: Optional[Ballot] = None
    accepted_value: Optional[Value] = None


@dataclass(frozen=True)
class LearnerSlot:
    """Learner-side state of one decree.

    ``learns`` collects ``(acceptor, ballot, value)`` notifications; a value
    is chosen when a majority of distinct acceptors reported the same
    ``(ballot, value)``.
    """

    learns: FrozenSet[Tuple[NodeId, Ballot, Value]] = frozenset()
    chosen: Optional[Value] = None

    def supporters(self, ballot: Ballot, value: Value) -> FrozenSet[NodeId]:
        """Acceptors that reported accepting ``(ballot, value)``."""
        return frozenset(
            src for src, b, v in self.learns if b == ballot and v == value
        )


#: The slot of a decree the role never touched.  One shared value, not a
#: fresh default per lookup: slots are immutable.
EMPTY_ACCEPTOR = AcceptorSlot()
EMPTY_LEARNER = LearnerSlot()


@dataclass(frozen=True)
class PaxosNodeState:
    """Complete local state of one Paxos node.

    ``pending`` is the test driver's queue of ``(index, value)`` proposals
    this node still has to issue (§4.2 "Test driver"); ``initialized``
    models the explicit initialization event the paper counts in its
    22-event decomposition of the single-proposal space.
    """

    node: NodeId
    initialized: bool = False
    pending: Tuple[Tuple[int, Value], ...] = ()
    proposers: TupleMap = ()
    acceptors: TupleMap = ()
    learners: TupleMap = ()

    # -- slot accessors -----------------------------------------------------

    def proposer(self, index: int) -> Optional[ProposerSlot]:
        """Proposer slot for ``index``, if a proposal was issued."""
        return tm_get(self.proposers, index)

    def acceptor(self, index: int) -> AcceptorSlot:
        """Acceptor slot for ``index`` (:data:`EMPTY_ACCEPTOR` if unbound)."""
        return tm_get(self.acceptors, index, EMPTY_ACCEPTOR)

    def learner(self, index: int) -> LearnerSlot:
        """Learner slot for ``index`` (:data:`EMPTY_LEARNER` if unbound)."""
        return tm_get(self.learners, index, EMPTY_LEARNER)

    def chosen_value(self, index: int) -> Optional[Value]:
        """The value this node's learner chose for ``index``, if any."""
        return self.learner(index).chosen

    # -- functional updates ----------------------------------------------------
    #
    # Each builds the copy with the constructor: ``dataclasses.replace``
    # costs about three times as much, and handlers run on every transition.

    def with_proposer(self, index: int, slot: ProposerSlot) -> "PaxosNodeState":
        """Copy with the proposer slot of ``index`` replaced."""
        return PaxosNodeState(
            self.node,
            self.initialized,
            self.pending,
            tm_set(self.proposers, index, slot),
            self.acceptors,
            self.learners,
        )

    def with_acceptor(self, index: int, slot: AcceptorSlot) -> "PaxosNodeState":
        """Copy with the acceptor slot of ``index`` replaced."""
        return PaxosNodeState(
            self.node,
            self.initialized,
            self.pending,
            self.proposers,
            tm_set(self.acceptors, index, slot),
            self.learners,
        )

    def with_learner(self, index: int, slot: LearnerSlot) -> "PaxosNodeState":
        """Copy with the learner slot of ``index`` replaced."""
        return PaxosNodeState(
            self.node,
            self.initialized,
            self.pending,
            self.proposers,
            self.acceptors,
            tm_set(self.learners, index, slot),
        )
