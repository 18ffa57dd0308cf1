"""Two-phase commit: an additional agreement workload with a known bad twin.

Not from the paper's evaluation, but squarely in its problem domain: a
coordinator collects votes and broadcasts a decision; the safety invariant
is agreement (no node commits while another aborts), which decomposes into
exactly the projection shape LMC-OPT exploits.  The deliberately broken
:class:`EagerCommitCoordinator` decides *commit* as soon as the first yes
vote arrives — a bug both checkers must find, giving the test suite a second
independently implemented bug besides the Paxos ones.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Optional, Tuple

from repro.invariants.base import DecomposableInvariant
from repro.model.protocol import Protocol, ProtocolConfigError, broadcast
from repro.model.system_state import SystemState
from repro.model.types import Action, HandlerResult, Message, NodeId


@dataclass(frozen=True)
class VoteRequest:
    """Coordinator asks participants to vote."""


@dataclass(frozen=True)
class Vote:
    """A participant's vote."""

    voter: NodeId
    yes: bool


@dataclass(frozen=True)
class Decision:
    """The coordinator's broadcast decision."""

    commit: bool


@dataclass(frozen=True)
class TwoPhaseNodeState:
    """Local state of a 2PC node (coordinator and participant roles)."""

    node: NodeId
    started: bool = False
    voted: bool = False
    my_vote: Optional[bool] = None
    votes: FrozenSet[Tuple[NodeId, bool]] = frozenset()
    decided: Optional[bool] = None  # True commit / False abort / None open


class TwoPhaseCommit(Protocol):
    """Standard presumed-nothing 2PC over ``num_nodes`` nodes.

    ``no_voters`` lists participants scripted to vote no (the driver's
    failure injection); everyone else votes yes.  Node 0 coordinates and
    also votes.
    """

    name = "two-phase-commit"

    def __init__(self, num_nodes: int = 3, no_voters: Tuple[NodeId, ...] = ()):
        if num_nodes < 2:
            raise ProtocolConfigError("2PC needs at least two nodes")
        self._node_ids = tuple(range(num_nodes))
        self.coordinator: NodeId = 0
        self.no_voters = tuple(no_voters)
        for voter in self.no_voters:
            if voter not in self._node_ids:
                raise ProtocolConfigError(f"unknown no-voter {voter}")

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self._node_ids

    def initial_state(self, node: NodeId) -> TwoPhaseNodeState:
        return TwoPhaseNodeState(node=node)

    def enabled_actions(self, state: TwoPhaseNodeState) -> Tuple[Action, ...]:
        if state.node == self.coordinator and not state.started:
            return (Action(node=state.node, name="begin"),)
        return ()

    # -- durability contract (docs/FAULTS.md) ---------------------------------

    def durable_state(self, node: NodeId, state: TwoPhaseNodeState) -> Optional[bool]:
        """The decision record is forced to the log; everything else is volatile.

        Classic 2PC writes the commit/abort record before announcing it —
        the TM's decision (and a participant's learned outcome) survives a
        crash.  Votes need no log here because voting is deterministic: a
        restarted participant re-votes identically when re-asked.
        """
        return state.decided

    def restart_state(self, node: NodeId, durable: Optional[bool]) -> TwoPhaseNodeState:
        """Boot from the initial state with the decision record recovered."""
        return replace(self.initial_state(node), decided=durable)

    # -- symmetry contract (docs/REDUCTION.md) --------------------------------

    def symmetry_classes(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Participants scripted with the same vote are interchangeable.

        The coordinator is structurally distinguished (it tallies and
        decides), so it joins no class; among the other participants the
        script is the only asymmetry, splitting them into a yes-voter class
        and a no-voter class.  No ``rename_state`` is needed: a 2PC state
        holds node ids only in ``node`` and the vote sources, both
        structurally distinguishable ints, so the generic substitution
        walker renames it correctly.
        """
        yes = tuple(
            node
            for node in self._node_ids
            if node != self.coordinator and node not in self.no_voters
        )
        no = tuple(
            node
            for node in self._node_ids
            if node != self.coordinator and node in self.no_voters
        )
        return tuple(cls for cls in (yes, no) if len(cls) >= 2)

    def handle_action(self, state: TwoPhaseNodeState, action: Action) -> HandlerResult:
        if action.name != "begin" or state.started:
            return HandlerResult(state)
        return HandlerResult(
            replace(state, started=True),
            broadcast(state.node, self._node_ids, VoteRequest()),
        )

    def handle_message(self, state: TwoPhaseNodeState, message: Message) -> HandlerResult:
        payload = message.payload
        if isinstance(payload, VoteRequest):
            return self._on_vote_request(state)
        if isinstance(payload, Vote):
            return self._on_vote(state, payload)
        if isinstance(payload, Decision):
            return self._on_decision(state, payload)
        return HandlerResult(state)

    def _on_vote_request(self, state: TwoPhaseNodeState) -> HandlerResult:
        if state.voted:
            return HandlerResult(state)
        yes = state.node not in self.no_voters
        vote = Message(
            dest=self.coordinator,
            src=state.node,
            payload=Vote(voter=state.node, yes=yes),
        )
        return HandlerResult(replace(state, voted=True, my_vote=yes), (vote,))

    def _on_vote(self, state: TwoPhaseNodeState, vote: Vote) -> HandlerResult:
        if state.node != self.coordinator or state.decided is not None:
            return HandlerResult(state)
        if (vote.voter, vote.yes) in state.votes:
            return HandlerResult(state)
        votes = state.votes | {(vote.voter, vote.yes)}
        new_state = replace(state, votes=votes)
        decision = self._decide(new_state)
        if decision is None:
            return HandlerResult(new_state)
        new_state = replace(new_state, decided=decision)
        return HandlerResult(
            new_state,
            broadcast(
                state.node, self._node_ids, Decision(commit=decision)
            ),
        )

    def _decide(self, state: TwoPhaseNodeState) -> Optional[bool]:
        """Commit on unanimous yes, abort on any no, else keep waiting."""
        if any(not yes for _voter, yes in state.votes):
            return False
        if len(state.votes) == len(self._node_ids):
            return True
        return None

    def _on_decision(self, state: TwoPhaseNodeState, decision: Decision) -> HandlerResult:
        if state.decided is not None:
            return HandlerResult(state)
        return HandlerResult(replace(state, decided=decision.commit))


class EagerCommitCoordinator(TwoPhaseCommit):
    """2PC with an injected atomicity bug: commit on the *first* yes vote.

    With at least one scripted no-voter, some interleavings commit at the
    coordinator (first vote was a yes) while the no vote later flips nothing
    — but other participants that received the abort path disagree; the
    :class:`Atomicity` invariant catches it.
    """

    name = "two-phase-commit-eager"

    def _decide(self, state: TwoPhaseNodeState) -> Optional[bool]:
        if any(yes for _voter, yes in state.votes):
            return True
        if any(not yes for _voter, yes in state.votes):
            return False
        return None


class TimeoutTwoPhaseCommit(TwoPhaseCommit):
    """2PC with presumed-abort timeouts: a lost decision aborts the waiter.

    Realistic 2PC participants do not block forever on the decision — a
    participant that voted and never hears the outcome times out and
    presumes abort.  Declaring that reaction as a ``handle_drop`` omission
    hook (docs/FAULTS.md) makes the checker explore loss of each decision
    message: with unanimous yes votes the coordinator durably commits, the
    timed-out participant aborts, and :class:`Atomicity` is violated — a
    bug reachable *only* under a drop or partition schedule, never in
    loss-free exploration.
    """

    name = "two-phase-commit-timeout"

    def handle_drop(
        self, state: TwoPhaseNodeState, message: Message
    ) -> HandlerResult:
        payload = message.payload
        if (
            isinstance(payload, Decision)
            and state.voted
            and state.decided is None
        ):
            return HandlerResult(replace(state, decided=False))
        return HandlerResult(state)


class Atomicity(DecomposableInvariant):
    """No node commits while another aborts."""

    name = "2pc-atomicity"

    def describe_violation(self, system: SystemState) -> str:
        outcomes: Dict[NodeId, bool] = {
            node: state.decided
            for node, state in system.items()
            if state.decided is not None
        }
        return f"2PC atomicity violated: decisions {outcomes}"

    def local_projection(
        self, node: NodeId, state: TwoPhaseNodeState
    ) -> Optional[bool]:
        return state.decided

    summary = local_projection


class CommitValidity(DecomposableInvariant):
    """A commit decision requires that nobody voted no.

    This is the invariant the :class:`EagerCommitCoordinator` bug violates:
    the coordinator commits after the first yes vote even when another
    participant voted no.  The conflict is custom ("committed" together with
    "voted-no"), so LMC-OPT uses generate-and-filter for it.
    """

    name = "2pc-commit-validity"

    def describe_violation(self, system: SystemState) -> str:
        committed = [
            node for node, state in system.items() if state.decided is True
        ]
        no_voters = [
            node for node, state in system.items() if state.my_vote is False
        ]
        return (
            f"2PC commit validity violated: nodes {committed} committed "
            f"although nodes {no_voters} voted no"
        )

    def local_projection(
        self, node: NodeId, state: TwoPhaseNodeState
    ) -> Optional[str]:
        committed = state.decided is True
        voted_no = state.my_vote is False
        if committed and voted_no:
            return "committed+voted-no"
        if committed:
            return "committed"
        if voted_no:
            return "voted-no"
        return None

    summary = local_projection

    def projections_conflict(self, projections: Dict[NodeId, object]) -> bool:
        values = set(projections.values())
        if "committed+voted-no" in values:
            return True
        return "committed" in values and "voted-no" in values
