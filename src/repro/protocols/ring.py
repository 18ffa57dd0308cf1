"""Ring leader election (Chang-Roberts flavour) with an injected bug.

Another chatty workload in the paper's problem domain: nodes on a
unidirectional ring elect the maximum id by circulating tokens.  A node
receiving its own id back has seen its token survive a full round — it is
the leader.  Tokens smaller than the receiver's id are swallowed (and wake
the receiver's own candidacy); larger tokens are forwarded.

:class:`GreedyRingElection` injects a classic confusion: a node declares
itself leader when the arriving token is *the largest it has seen* rather
than exactly its own — every node the winning token passes then crowns
itself, so several leaders coexist.  :class:`AtMostOneLeader` (projections:
the node id of a self-declared leader) catches it; with the correct build
both checkers prove uniqueness.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

from repro.invariants.base import DecomposableInvariant
from repro.model.protocol import Protocol, ProtocolConfigError
from repro.model.system_state import SystemState
from repro.model.types import Action, HandlerResult, Message, NodeId


@dataclass(frozen=True)
class ElectionToken:
    """A circulating candidacy: the id of its originator."""

    uid: int


@dataclass(frozen=True)
class RingNodeState:
    """Per-node election state."""

    node: NodeId
    started: bool = False
    leader: bool = False
    max_seen: int = -1


class RingElection(Protocol):
    """Maximum-id election on the ring ``0 -> 1 -> … -> n-1 -> 0``."""

    name = "ring-election"

    def __init__(self, num_nodes: int = 4, initiators: Tuple[NodeId, ...] = (0,)):
        if num_nodes < 2:
            raise ProtocolConfigError("ring needs at least two nodes")
        self._node_ids = tuple(range(num_nodes))
        self.initiators = tuple(initiators)
        for node in self.initiators:
            if node not in self._node_ids:
                raise ProtocolConfigError(f"unknown initiator {node}")

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self._node_ids

    def successor(self, node: NodeId) -> NodeId:
        """The clockwise neighbour."""
        return (node + 1) % len(self._node_ids)

    def initial_state(self, node: NodeId) -> RingNodeState:
        return RingNodeState(node=node, max_seen=node)

    def enabled_actions(self, state: RingNodeState) -> Tuple[Action, ...]:
        if state.node in self.initiators and not state.started:
            return (Action(node=state.node, name="elect"),)
        return ()

    def handle_action(self, state: RingNodeState, action: Action) -> HandlerResult:
        if action.name != "elect" or state.started:
            return HandlerResult(state)
        return HandlerResult(
            replace(state, started=True),
            (self._forward(state.node, ElectionToken(uid=state.node)),)
        )

    def handle_message(self, state: RingNodeState, message: Message) -> HandlerResult:
        if not isinstance(message.payload, ElectionToken):
            return HandlerResult(state)
        token: ElectionToken = message.payload
        new_state = replace(state, max_seen=max(state.max_seen, token.uid))
        if self._wins(state, token):
            crowned = replace(new_state, leader=True)
            # A foreign token that (buggily) crowned a bystander still
            # travels on — which is how the greedy variant produces several
            # leaders; a node's own token (the correct case) never satisfies
            # ``uid > node`` and stops here.
            if token.uid > state.node:
                return HandlerResult(
                    crowned, (self._forward(state.node, token),)
                )
            return HandlerResult(crowned)
        if token.uid > state.node:
            return HandlerResult(
                new_state, (self._forward(state.node, token),)
            )
        # A smaller token dies here; it wakes this node's own candidacy so
        # the maximum still gets elected with any single initiator.
        if not state.started:
            return HandlerResult(
                replace(new_state, started=True),
                (self._forward(state.node, ElectionToken(uid=state.node)),),
            )
        return HandlerResult(new_state)

    def _wins(self, state: RingNodeState, token: ElectionToken) -> bool:
        """Correct rule: only your own token coming home elects you."""
        return token.uid == state.node

    def _forward(self, node: NodeId, token: ElectionToken) -> Message:
        return Message(dest=self.successor(node), src=node, payload=token)


class GreedyRingElection(RingElection):
    """Ring election with the injected max-confusion bug.

    A node declares itself leader whenever the arriving token is at least
    everything it has seen — mistaking "I am on the winning token's path"
    for "my token survived the round".
    """

    name = "ring-election-greedy"

    def _wins(self, state: RingNodeState, token: ElectionToken) -> bool:
        return token.uid >= state.max_seen


class AtMostOneLeader(DecomposableInvariant):
    """No two nodes may both consider themselves elected."""

    name = "ring-at-most-one-leader"

    def describe_violation(self, system: SystemState) -> str:
        leaders = [node for node, state in system.items() if state.leader]
        return f"multiple ring leaders elected: {leaders}"

    def local_projection(
        self, node: NodeId, state: RingNodeState
    ) -> Optional[NodeId]:
        return node if state.leader else None

    def summary(self, node: NodeId, state: RingNodeState) -> bool:
        return state.leader
