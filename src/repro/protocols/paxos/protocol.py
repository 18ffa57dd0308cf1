"""The Paxos protocol under test, correct and with the §5.5 injected bug.

Every node plays all three roles.  The test driver is folded into the node
state as a queue of pending proposals (§4.2 "Test driver"): a node with a
non-empty queue has a ``propose`` internal action enabled, exactly like the
application issuing propose requests in the paper's setup.

The injected bug reproduces the WiDS-checker-reported defect verbatim:
"once the leader receives the PrepareResponse message from a majority of
nodes, it creates the Accept request by using the submitted value from the
last PrepareResponse message instead of the PrepareResponse message with
highest round number" (§5.5).
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence, Tuple

from repro.model.protocol import Protocol, ProtocolConfigError, broadcast
from repro.model.types import Action, HandlerResult, Message, NodeId
from repro.protocols.common import TupleMap, majority_of
from repro.protocols.paxos.messages import (
    Accept,
    Ballot,
    Learn,
    Prepare,
    PrepareResponse,
    Value,
)
from repro.protocols.paxos.state import (
    AcceptorSlot,
    LearnerSlot,
    PaxosNodeState,
    PromiseInfo,
    ProposerSlot,
)

#: A driver entry: ``(proposer node, decree index, value)``.
Proposal = Tuple[NodeId, int, Value]


class PaxosProtocol(Protocol):
    """Multi-decree Paxos over ``num_nodes`` nodes with a scripted driver.

    ``proposals`` lists the driver's propositions.  The benchmark spaces of
    §5 are ``proposals=((0, 0, "v0"),)`` (single proposal, 22-event space)
    and ``proposals=((0, 0, "v0"), (1, 0, "v1"))`` (two proposers, 41-event
    space).  ``require_init`` adds the per-node initialization events the
    paper counts; the handlers themselves do not depend on it.
    """

    name = "paxos"

    def __init__(
        self,
        num_nodes: int = 3,
        proposals: Sequence[Proposal] = ((0, 0, "v0"),),
        require_init: bool = True,
        retransmit: bool = False,
    ):
        if num_nodes < 2:
            raise ProtocolConfigError("Paxos needs at least two nodes")
        #: Enable the stateless ``retry`` action: an in-flight proposer slot
        #: may re-broadcast its current phase message ("the proposer that
        #: insists", §4.2).  The handler leaves the node state unchanged, so
        #: retries cost LMC nothing beyond network growth — live runs fire
        #: them periodically, and a checker restarted from a snapshot uses a
        #: single retry to regenerate messages that were in flight (and thus
        #: lost) at snapshot time.  Do not combine with the global checker:
        #: its network multiset grows without bound under retransmission.
        self.retransmit = retransmit
        self.num_nodes_config = num_nodes
        self._node_ids = tuple(range(num_nodes))
        self.majority = majority_of(num_nodes)
        self.require_init = require_init
        self.proposals = tuple(proposals)
        for node, _index, _value in self.proposals:
            if node not in self._node_ids:
                raise ProtocolConfigError(f"proposal by unknown node {node}")

    # -- Protocol interface ---------------------------------------------------

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self._node_ids

    def initial_state(self, node: NodeId) -> PaxosNodeState:
        pending = tuple(
            (index, value) for who, index, value in self.proposals if who == node
        )
        return PaxosNodeState(
            node=node,
            initialized=not self.require_init,
            pending=pending,
        )

    # -- durability contract (docs/FAULTS.md) ---------------------------------

    def durable_state(self, node: NodeId, state: PaxosNodeState) -> TupleMap:
        """Acceptor slots survive a crash; everything else is volatile.

        Paxos safety rests on acceptors never forgetting their promises and
        accepted proposals — real implementations fsync the acceptor ledger
        before answering (Lamport's "each acceptor remembers ... in stable
        storage").  Proposer slots, learner tallies, the driver queue and the
        init flag are volatile: losing them can stall a proposal but never
        un-choose a value.
        """
        return state.acceptors

    def restart_state(self, node: NodeId, durable: TupleMap) -> PaxosNodeState:
        """Boot from the initial state with the acceptor ledger recovered.

        The restarted node re-runs initialization and re-issues any scripted
        proposals (the driver queue is part of the initial state), exactly
        like a process coming back up with only its disk.
        """
        return replace(self.initial_state(node), acceptors=durable or ())

    # -- symmetry contract (docs/REDUCTION.md) --------------------------------

    def symmetry_classes(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Passive nodes — those with no scripted proposal — are interchangeable.

        A Paxos node's only asymmetries are its id (inside ballots, promise
        sources and learn sources) and its driver queue; nodes the driver
        never scripts run identical acceptor/learner code, so renaming them
        everywhere permutes executions verbatim.  The agreement invariant
        reads chosen values only, so verdicts are renaming-invariant.
        """
        proposers = {node for node, _index, _value in self.proposals}
        passive = tuple(node for node in self._node_ids if node not in proposers)
        return (passive,) if len(passive) >= 2 else ()

    def rename_state(self, state: PaxosNodeState, mapping) -> PaxosNodeState:
        """Rewrite exactly the node-id positions of a Paxos state.

        Decree indexes and ballot rounds are plain ints too, so the generic
        substitution walker would corrupt them; this hook renames only
        ``state.node``, ballot proposers, promise sources and learn sources.
        """

        def node(n: NodeId) -> NodeId:
            return mapping.get(n, n)

        def ballot(b: Optional[Ballot]) -> Optional[Ballot]:
            if b is None or b.proposer not in mapping:
                return b
            return Ballot(b.round, mapping[b.proposer])

        proposers = tuple(
            (
                index,
                replace(
                    slot,
                    ballot=ballot(slot.ballot),
                    responses=tuple(
                        replace(
                            info,
                            src=node(info.src),
                            accepted_ballot=ballot(info.accepted_ballot),
                        )
                        for info in slot.responses
                    ),
                ),
            )
            for index, slot in state.proposers
        )
        acceptors = tuple(
            (
                index,
                replace(
                    slot,
                    promised=ballot(slot.promised),
                    accepted_ballot=ballot(slot.accepted_ballot),
                ),
            )
            for index, slot in state.acceptors
        )
        learners = tuple(
            (
                index,
                replace(
                    slot,
                    learns=frozenset(
                        (node(src), ballot(b), value)
                        for src, b, value in slot.learns
                    ),
                ),
            )
            for index, slot in state.learners
        )
        return replace(
            state,
            node=node(state.node),
            proposers=proposers,
            acceptors=acceptors,
            learners=learners,
        )

    # -- coverage contract (docs/OBSERVABILITY.md "Live operations") ----------

    def coverage_message_types(self) -> Tuple[str, ...]:
        """The full message-handler universe, for coverage accounting."""
        return ("Prepare", "PrepareResponse", "Accept", "Learn")

    def coverage_action_names(self) -> Tuple[str, ...]:
        """The explorable internal-action universe.

        ``inject`` is deliberately absent: it is a live-run driver call the
        checker never explores (see :meth:`_inject`), so listing it would
        flag a false gap in every coverage report.  ``retry`` appears only
        when retransmission is configured on.
        """
        names = ("init", "propose")
        if self.retransmit:
            names += ("retry",)
        return names

    def enabled_actions(self, state: PaxosNodeState) -> Tuple[Action, ...]:
        if not state.initialized:
            return (Action(node=state.node, name="init"),)
        actions = []
        if state.pending:
            index, value = state.pending[0]
            actions.append(
                Action(node=state.node, name="propose", payload=(index, value))
            )
        if self.retransmit:
            for index, slot in state.proposers:
                if slot.phase in ("preparing", "accepting"):
                    actions.append(
                        Action(node=state.node, name="retry", payload=index)
                    )
        return tuple(actions)

    def handle_action(self, state: PaxosNodeState, action: Action) -> HandlerResult:
        if action.name == "init":
            if state.initialized:
                return HandlerResult(state)
            return HandlerResult(replace(state, initialized=True))
        if action.name == "propose":
            return self._propose(state, action.payload)
        if action.name == "inject":
            return self._inject(state, action.payload)
        if action.name == "retry":
            return self._retry(state, action.payload)
        return HandlerResult(state)

    def _retry(self, state: PaxosNodeState, payload: object) -> HandlerResult:
        """Retransmit the current phase message of one proposer slot.

        Stateless: the node state is unchanged (see ``retransmit``); only
        the network sees the re-broadcast.
        """
        index = payload  # type: ignore[assignment]
        slot = state.proposer(index)
        if (
            not self.retransmit
            or slot is None
            or slot.phase not in ("preparing", "accepting")
        ):
            return HandlerResult(state)
        if slot.phase == "preparing":
            payload_msg: object = Prepare(index=index, ballot=slot.ballot)
        else:
            payload_msg = Accept(index=index, ballot=slot.ballot, value=slot.value)
        return HandlerResult(
            state,
            broadcast(state.node, self._node_ids, payload_msg),
        )

    def _inject(self, state: PaxosNodeState, payload: object) -> HandlerResult:
        """Application call enqueueing a driver proposal (live runs only).

        Never listed in ``enabled_actions``: the online test driver injects
        it into the live system (§4.2 "Test driver"), but the model checker
        does not explore injections — it explores the pending queue the
        injections leave behind.
        """
        index, value = payload  # type: ignore[misc]
        if (index, value) in state.pending or state.proposer(index) is not None:
            return HandlerResult(state)
        return HandlerResult(replace(state, pending=state.pending + ((index, value),)))

    def handle_message(self, state: PaxosNodeState, message: Message) -> HandlerResult:
        payload = message.payload
        if isinstance(payload, Prepare):
            return self._on_prepare(state, message.src, payload)
        if isinstance(payload, PrepareResponse):
            return self._on_prepare_response(state, message.src, payload)
        if isinstance(payload, Accept):
            return self._on_accept(state, payload)
        if isinstance(payload, Learn):
            return self._on_learn(state, message.src, payload)
        return HandlerResult(state)

    # -- proposer --------------------------------------------------------------

    def _propose(self, state: PaxosNodeState, payload: object) -> HandlerResult:
        index, value = payload  # type: ignore[misc]
        if not state.pending or state.pending[0] != (index, value):
            return HandlerResult(state)
        if state.proposer(index) is not None:
            # Already proposing for this index: drop the driver entry.
            return HandlerResult(replace(state, pending=state.pending[1:]))
        ballot = Ballot(1, state.node)
        slot = ProposerSlot(ballot=ballot, value=value)
        new_state = replace(
            state.with_proposer(index, slot), pending=state.pending[1:]
        )
        sends = broadcast(
            state.node, self._node_ids, Prepare(index=index, ballot=ballot)
        )
        return HandlerResult(new_state, sends)

    def _on_prepare_response(
        self, state: PaxosNodeState, src: NodeId, msg: PrepareResponse
    ) -> HandlerResult:
        slot = state.proposer(msg.index)
        if slot is None or slot.ballot != msg.ballot or slot.phase != "preparing":
            return HandlerResult(state)
        if slot.has_response_from(src):
            return HandlerResult(state)
        info = PromiseInfo(src, msg.accepted_ballot, msg.accepted_value)
        responses = slot.responses + (info,)
        grown = ProposerSlot(slot.ballot, slot.value, slot.phase, responses)
        if len(responses) < self.majority:
            return HandlerResult(state.with_proposer(msg.index, grown))
        value = self._select_value(grown)
        new_slot = ProposerSlot(slot.ballot, value, "accepting", responses)
        sends = broadcast(
            state.node,
            self._node_ids,
            Accept(index=msg.index, ballot=slot.ballot, value=value),
        )
        return HandlerResult(state.with_proposer(msg.index, new_slot), sends)

    def _select_value(self, slot: ProposerSlot) -> Value:
        """Pick the Accept value from a quorum of responses (correct rule).

        The value of the response with the **highest accepted ballot** must
        be adopted; only if no acceptor reported an accepted value may the
        proposer use its own.
        """
        best: Optional[PromiseInfo] = None
        for info in slot.responses:
            if info.accepted_ballot is None:
                continue
            if best is None or info.accepted_ballot > best.accepted_ballot:
                best = info
        if best is not None and best.accepted_value is not None:
            return best.accepted_value
        return slot.value

    # -- acceptor ---------------------------------------------------------------

    def _on_prepare(
        self, state: PaxosNodeState, src: NodeId, msg: Prepare
    ) -> HandlerResult:
        slot = state.acceptor(msg.index)
        if slot.promised is not None and msg.ballot < slot.promised:
            return HandlerResult(state)
        new_slot = AcceptorSlot(msg.ballot, slot.accepted_ballot, slot.accepted_value)
        response = Message(
            dest=src,
            src=state.node,
            payload=PrepareResponse(
                index=msg.index,
                ballot=msg.ballot,
                accepted_ballot=slot.accepted_ballot,
                accepted_value=slot.accepted_value,
            ),
        )
        return HandlerResult(state.with_acceptor(msg.index, new_slot), (response,))

    def _on_accept(self, state: PaxosNodeState, msg: Accept) -> HandlerResult:
        slot = state.acceptor(msg.index)
        if slot.promised is not None and msg.ballot < slot.promised:
            return HandlerResult(state)
        if slot.accepted_ballot == msg.ballot and slot.accepted_value == msg.value:
            # Duplicate Accept (a proposer retry): re-announce the choice so
            # learners that missed the first Learn can still converge — the
            # "Chosen message ... sent over and over" behaviour of §4.2.
            return HandlerResult(
                state,
                broadcast(
                    state.node,
                    self._node_ids,
                    Learn(index=msg.index, ballot=msg.ballot, value=msg.value),
                ),
            )
        new_slot = AcceptorSlot(
            promised=msg.ballot,
            accepted_ballot=msg.ballot,
            accepted_value=msg.value,
        )
        sends = broadcast(
            state.node,
            self._node_ids,
            Learn(index=msg.index, ballot=msg.ballot, value=msg.value),
        )
        return HandlerResult(state.with_acceptor(msg.index, new_slot), sends)

    # -- learner ------------------------------------------------------------------

    def _on_learn(
        self, state: PaxosNodeState, src: NodeId, msg: Learn
    ) -> HandlerResult:
        slot = state.learner(msg.index)
        entry = (src, msg.ballot, msg.value)
        if entry in slot.learns:
            return HandlerResult(state)
        learns = slot.learns | {entry}
        chosen = slot.chosen
        if chosen is None:
            supporters = frozenset(
                s for s, b, v in learns if b == msg.ballot and v == msg.value
            )
            if len(supporters) >= self.majority:
                chosen = msg.value
        new_state = state.with_learner(msg.index, LearnerSlot(learns, chosen))
        if chosen is not None:
            # The decree is decided: retire any in-flight proposer slot for
            # it so the proposer stops insisting (no further retransmits).
            proposer_slot = new_state.proposer(msg.index)
            if proposer_slot is not None and proposer_slot.phase != "done":
                new_state = new_state.with_proposer(
                    msg.index,
                    ProposerSlot(
                        proposer_slot.ballot, proposer_slot.value, "done", proposer_slot.responses
                    ),
                )
        return HandlerResult(new_state)


class BuggyPaxosProtocol(PaxosProtocol):
    """Paxos with the §5.5 injected value-selection bug.

    The proposer adopts the accepted value of the *last received*
    PrepareResponse; if that response reports no accepted value the proposer
    (incorrectly) falls back to its own value even when an earlier response
    did carry an accepted value — exactly the defect of [10] the paper
    re-finds.
    """

    name = "paxos-buggy"

    def _select_value(self, slot: ProposerSlot) -> Value:
        last = slot.responses[-1]
        if last.accepted_value is not None:
            return last.accepted_value
        return slot.value
