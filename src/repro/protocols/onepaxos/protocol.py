"""The 1Paxos protocol (§5.6), correct and with the initialization bug.

Structure (following [15] as summarised by the paper):

* **Data plane** — the global leader sends ``Propose1`` straight to the
  active acceptor; the single acceptor's acceptance is the decision, which
  it announces to everyone with ``Learn1``.  A re-proposal for a decided
  index is answered by re-sending the ``Learn1`` (the duplicate-message
  source of §4.2).
* **Control plane** — PaxosUtility, a full Paxos instance whose decrees are
  configuration entries (``leader=N`` / ``acceptor=N``).  A node whose fault
  detector fires proposes a LeaderChange naming itself; Paxos arbitrates
  concurrent attempts.
* **Initialization** — "the leader is set to the first node of the members
  and the acceptor is set to the second".  The buggy build reproduces the
  postfix increment mistake ``acceptor = *(members.begin()++)``: the cached
  acceptor ends up being the *first* member — the leader itself — so a node
  that is leader by initialization (and therefore, per the protocol, does
  not consult PaxosUtility) proposes to itself, accepts its own proposal,
  and "learns" a value the rest of the system never saw.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.model.protocol import Protocol, ProtocolConfigError, broadcast
from repro.model.types import Action, HandlerResult, Message, NodeId
from repro.protocols.onepaxos.messages import (
    Learn1,
    Propose1,
    Util,
    Value,
    leader_entry,
)
from repro.protocols.onepaxos.state import OnePaxosNodeState
from repro.protocols.paxos.protocol import PaxosProtocol
from repro.protocols.paxos.state import PaxosNodeState

#: A driver entry: ``(proposer node, decree index, value)`` — issued by the
#: node only while it believes itself leader.
Proposal = Tuple[NodeId, int, Value]


class OnePaxosProtocol(Protocol):
    """1Paxos over ``num_nodes`` nodes with a scripted driver.

    ``fault_suspects`` lists nodes whose fault detector will fire once (the
    §5.6 driver "triggers the fault detector with the probability of 0.1";
    which nodes end up firing is scripted here, and the online simulator
    decides when).  ``buggy_init`` selects the postfix-``++`` build.
    """

    name = "onepaxos"

    def __init__(
        self,
        num_nodes: int = 3,
        proposals: Sequence[Proposal] = (),
        fault_suspects: Tuple[NodeId, ...] = (),
        buggy_init: bool = False,
        require_init: bool = True,
        retransmit: bool = False,
        utility_retransmit: Optional[bool] = None,
    ):
        if num_nodes < 3:
            raise ProtocolConfigError("1Paxos needs at least three nodes")
        self._node_ids = tuple(range(num_nodes))
        self.buggy_init = buggy_init
        self.require_init = require_init
        #: Enable stateless retransmission of outstanding data-plane
        #: ``Propose1`` messages.  Required for live runs over lossy
        #: networks.
        self.retransmit = retransmit
        #: Retransmission of the embedded utility Paxos (``util-retry``
        #: actions).  Defaults to the data-plane setting; the §5.6 online
        #: experiment turns it off — configuration changes there are
        #: fire-and-forget, which is precisely how a node can miss a
        #: LeaderChange and keep believing it leads.
        self.utility_retransmit = (
            retransmit if utility_retransmit is None else utility_retransmit
        )
        self.proposals = tuple(proposals)
        self.fault_suspects = tuple(fault_suspects)
        #: members.begin(): the intended initial leader.
        self.initial_leader: NodeId = self._node_ids[0]
        #: ++members.begin(): the intended (true) initial active acceptor.
        self.initial_acceptor: NodeId = self._node_ids[1]
        # The utility layer: plain Paxos over the same membership, driven
        # programmatically (no scripted driver proposals of its own).
        self.utility = PaxosProtocol(
            num_nodes=num_nodes,
            proposals=(),
            require_init=False,
            retransmit=self.utility_retransmit,
        )
        for node, _index, _value in self.proposals:
            if node not in self._node_ids:
                raise ProtocolConfigError(f"proposal by unknown node {node}")
        for node in self.fault_suspects:
            if node not in self._node_ids:
                raise ProtocolConfigError(f"unknown fault suspect {node}")

    # -- Protocol interface -----------------------------------------------------

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self._node_ids

    def initial_state(self, node: NodeId) -> OnePaxosNodeState:
        cached_acceptor = (
            # acceptor = *(members.begin()++): the iterator is incremented
            # *after* dereferencing, so the acceptor is the first member —
            # the same node as the leader.
            self.initial_leader
            if self.buggy_init
            # acceptor = *(++members.begin()): the intended second member.
            else self.initial_acceptor
        )
        return OnePaxosNodeState(
            node=node,
            initialized=not self.require_init,
            pending=tuple(
                (index, value)
                for who, index, value in self.proposals
                if who == node
            ),
            suspect_armed=node in self.fault_suspects,
            cached_leader=self.initial_leader,
            cached_acceptor=cached_acceptor,
            utility=self.utility.initial_state(node),
        )

    def enabled_actions(self, state: OnePaxosNodeState) -> Tuple[Action, ...]:
        if not state.initialized:
            return (Action(node=state.node, name="init"),)
        actions = []
        if state.pending and state.believed_leader() == state.node:
            index, value = state.pending[0]
            actions.append(
                Action(node=state.node, name="propose", payload=(index, value))
            )
        if state.suspect_armed and state.believed_leader() != state.node:
            actions.append(Action(node=state.node, name="suspect"))
        if self.retransmit:
            for index, _value in state.proposed1:
                if state.chosen_value(index) is None:
                    actions.append(
                        Action(node=state.node, name="retry1", payload=index)
                    )
        if self.utility_retransmit:
            for inner_action in self.utility.enabled_actions(state.utility):
                if inner_action.name == "retry":
                    actions.append(
                        Action(
                            node=state.node,
                            name="util-retry",
                            payload=inner_action.payload,
                        )
                    )
        return tuple(actions)

    def handle_action(self, state: OnePaxosNodeState, action: Action) -> HandlerResult:
        if action.name == "init":
            if state.initialized:
                return HandlerResult(state)
            return HandlerResult(replace(state, initialized=True))
        if action.name == "propose":
            return self._propose(state, action.payload)
        if action.name == "suspect":
            return self._suspect(state)
        if action.name == "retry1":
            return self._retry1(state, action.payload)
        if action.name == "util-retry":
            result = self.utility.handle_action(
                state.utility,
                Action(node=state.node, name="retry", payload=action.payload),
            )
            if result.state == state.utility and not result.sends:
                return HandlerResult(state)
            return HandlerResult(
                replace(state, utility=result.state),
                self._wrap_sends(result.sends),
            )
        return HandlerResult(state)

    def _retry1(self, state: OnePaxosNodeState, payload: object) -> HandlerResult:
        """Re-send an outstanding data-plane proposal (stateless)."""
        index = payload  # type: ignore[assignment]
        value = None
        for proposed_index, proposed_value in state.proposed1:
            if proposed_index == index:
                value = proposed_value
                break
        if (
            not self.retransmit
            or value is None
            or state.chosen_value(index) is not None
        ):
            return HandlerResult(state)
        acceptor = state.acceptor_for_proposing(self.initial_acceptor)
        send = Message(
            dest=acceptor,
            src=state.node,
            payload=Propose1(index=index, value=value),
        )
        return HandlerResult(state, (send,))

    def handle_message(self, state: OnePaxosNodeState, message: Message) -> HandlerResult:
        payload = message.payload
        if isinstance(payload, Util):
            return self._on_utility(state, message, payload)
        if isinstance(payload, Propose1):
            return self._on_propose1(state, payload)
        if isinstance(payload, Learn1):
            return self._on_learn1(state, payload)
        return HandlerResult(state)

    # -- data plane ----------------------------------------------------------------

    def _propose(self, state: OnePaxosNodeState, payload: object) -> HandlerResult:
        index, value = payload  # type: ignore[misc]
        if not state.pending or state.pending[0] != (index, value):
            return HandlerResult(state)
        if state.believed_leader() != state.node:
            return HandlerResult(state)
        acceptor = state.acceptor_for_proposing(self.initial_acceptor)
        new_state = replace(state, pending=state.pending[1:])
        if self.retransmit:
            from repro.protocols.common import tm_set

            new_state = replace(
                new_state, proposed1=tm_set(new_state.proposed1, index, value)
            )
        send = Message(
            dest=acceptor,
            src=state.node,
            payload=Propose1(index=index, value=value),
        )
        return HandlerResult(new_state, (send,))

    def _on_propose1(self, state: OnePaxosNodeState, msg: Propose1) -> HandlerResult:
        existing = state.accepted_value(msg.index)
        if existing is not None:
            # Already decided: remind everyone (idempotent re-announcement;
            # the duplicate-message limit of §4.2 curbs the flood).
            return HandlerResult(
                state,
                broadcast(
                    state.node,
                    self._node_ids,
                    Learn1(index=msg.index, value=existing),
                ),
            )
        new_state = state.with_accepted(msg.index, msg.value)
        return HandlerResult(
            new_state,
            broadcast(
                state.node,
                self._node_ids,
                Learn1(index=msg.index, value=msg.value),
            ),
        )

    def _on_learn1(self, state: OnePaxosNodeState, msg: Learn1) -> HandlerResult:
        if state.chosen_value(msg.index) is not None:
            return HandlerResult(state)
        new_state = state.with_chosen(msg.index, msg.value)
        # Retire the outstanding proposal for this index, if any: the decree
        # is decided, so the proposer stops insisting.
        remaining = tuple(
            entry for entry in new_state.proposed1 if entry[0] != msg.index
        )
        if remaining != new_state.proposed1:
            new_state = replace(new_state, proposed1=remaining)
        return HandlerResult(new_state)

    # -- control plane (PaxosUtility over Paxos) -------------------------------------

    def _suspect(self, state: OnePaxosNodeState) -> HandlerResult:
        if not state.suspect_armed or state.believed_leader() == state.node:
            return HandlerResult(state)
        disarmed = replace(state, suspect_armed=False)
        return self._utility_propose(
            disarmed, state.next_utility_index(), leader_entry(state.node)
        )

    def _utility_propose(
        self, state: OnePaxosNodeState, index: int, value: Value
    ) -> HandlerResult:
        """Drive the inner Paxos node to propose ``value`` at ``index``."""
        inner = state.utility
        queued = replace(inner, pending=((index, value),) + inner.pending)
        result = self.utility.handle_action(
            queued,
            Action(node=state.node, name="propose", payload=(index, value)),
        )
        return HandlerResult(
            replace(state, utility=result.state),
            self._wrap_sends(result.sends),
        )

    def _on_utility(
        self, state: OnePaxosNodeState, message: Message, envelope: Util
    ) -> HandlerResult:
        inner_message = Message(
            dest=message.dest, src=message.src, payload=envelope.inner
        )
        result = self.utility.handle_message(state.utility, inner_message)
        if result.state == state.utility and not result.sends:
            return HandlerResult(state)
        return HandlerResult(
            replace(state, utility=result.state),
            self._wrap_sends(result.sends),
        )

    @staticmethod
    def _wrap_sends(sends: Tuple[Message, ...]) -> Tuple[Message, ...]:
        return tuple(
            Message(dest=m.dest, src=m.src, payload=Util(inner=m.payload))
            for m in sends
        )
