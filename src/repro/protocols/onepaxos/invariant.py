"""Safety invariants for 1Paxos.

The invariant installed in §5.6 is the Paxos invariant itself: no two nodes
choose different values for the same index — here over the 1Paxos data-plane
decisions (:class:`OnePaxosAgreement`).  :class:`SingleActiveRoles` adds the
configuration sanity property the paper motivates 1Paxos's design with ("it
is necessary that the acceptor and leader roles to be assigned to two
separate nodes") — a direct check that flags the buggy initialization on the
very first proposing state.
"""

from __future__ import annotations

from typing import Optional

from repro.invariants.base import DecomposableInvariant, LocalInvariant
from repro.model.system_state import SystemState
from repro.model.types import NodeId
from repro.protocols.onepaxos.messages import Value
from repro.protocols.onepaxos.state import OnePaxosNodeState


class OnePaxosAgreement(DecomposableInvariant):
    """No two nodes choose different values for decree ``index``."""

    def __init__(self, index: int = 0):
        self.index = index
        self.name = f"onepaxos-agreement[{index}]"

    def check(self, system: SystemState) -> bool:
        chosen = {
            state.chosen_value(self.index)
            for _node, state in system.items()
            if state.chosen_value(self.index) is not None
        }
        return len(chosen) <= 1

    def describe_violation(self, system: SystemState) -> str:
        choices = {
            node: state.chosen_value(self.index)
            for node, state in system.items()
            if state.chosen_value(self.index) is not None
        }
        return (
            f"1Paxos agreement violated at index {self.index}: "
            f"nodes chose {choices}"
        )

    def local_projection(
        self, node: NodeId, state: OnePaxosNodeState
    ) -> Optional[Value]:
        return state.chosen_value(self.index)

    summary = local_projection


class OnePaxosAgreementAll(DecomposableInvariant):
    """No two nodes choose different values for *any* 1Paxos decree index.

    The multi-index form used by the online experiment, where the test
    driver creates contention at whatever index the session makes
    interesting.  Projections are the chosen ``(index, value)`` pairs, with
    a pairwise custom conflict (two nodes disagreeing on some index).
    """

    name = "onepaxos-agreement[*]"

    def check(self, system: SystemState) -> bool:
        per_index = {}
        for _node, state in system.items():
            for index, value in state.chosen1:
                per_index.setdefault(index, set()).add(value)
        return all(len(values) <= 1 for values in per_index.values())

    def describe_violation(self, system: SystemState) -> str:
        per_index = {}
        for node, state in system.items():
            for index, value in state.chosen1:
                per_index.setdefault(index, {})[node] = value
        conflicting = {
            index: choices
            for index, choices in per_index.items()
            if len(set(choices.values())) > 1
        }
        return f"1Paxos agreement violated: {conflicting}"

    def local_projection(self, node: NodeId, state: OnePaxosNodeState):
        chosen = frozenset(state.chosen1)
        return chosen or None

    summary = local_projection

    def projections_conflict(self, projections) -> bool:
        per_index = {}
        for chosen in projections.values():
            for index, value in chosen:
                per_index.setdefault(index, set()).add(value)
        return any(len(values) > 1 for values in per_index.values())


class SingleActiveRoles(LocalInvariant):
    """A node never addresses *itself* as the active acceptor when leading.

    1Paxos requires the leader and acceptor roles on separate nodes; a node
    about to propose to itself is exactly the buggy-initialization symptom.
    The check is per-node (a :class:`LocalInvariant`), so LMC evaluates it
    without creating system states.
    """

    name = "onepaxos-distinct-roles"

    def __init__(self, true_initial_acceptor: NodeId = 1):
        self.true_initial_acceptor = true_initial_acceptor

    def check_local(self, node: NodeId, state: OnePaxosNodeState) -> bool:
        if state.believed_leader() != node or not state.pending:
            return True
        return state.acceptor_for_proposing(self.true_initial_acceptor) != node
