"""The Paxos safety invariant, in LMC-ready decomposable form.

"The Paxos invariant (also known as the Paxos safety property) stipulates
that no two nodes will choose different values for the same index" (§5).

:class:`PaxosAgreement` covers one decree index with the default conflict
notion (two distinct non-``None`` projections), which is what unlocks the
LMC-OPT pruning of §4.2: "we map the node states to the values that are
chosen in them ... we thus select only the node states that at least two of
them are mapped to different values".  :class:`PaxosAgreementAll` covers all
indexes at once with a custom pairwise conflict (the online experiment's
invariant; OPT's partner scan asks it once per distinct projection pair).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.invariants.base import DecomposableInvariant
from repro.model.system_state import SystemState
from repro.model.types import NodeId
from repro.protocols.paxos.messages import Value
from repro.protocols.paxos.state import PaxosNodeState


class PaxosAgreement(DecomposableInvariant):
    """No two nodes choose different values for decree ``index``."""

    #: The protocol as ``name`` and the violation text spell it.
    tag, label = "paxos", "Paxos"

    def __init__(self, index: int = 0):
        self.index = index
        self.name = f"{self.tag}-agreement[{index}]"

    # The derived check, bound in this class's namespace as well: the
    # benchmark's tracer test (bench/tests/test_bench.py) reads it there.
    check = DecomposableInvariant.check

    def describe_violation(self, system: SystemState) -> str:
        choices = {
            node: state.chosen_value(self.index)
            for node, state in system.items()
            if state.chosen_value(self.index) is not None
        }
        return (
            f"{self.label} agreement violated at index {self.index}: "
            f"nodes chose {choices}"
        )

    def local_projection(
        self, node: NodeId, state: PaxosNodeState
    ) -> Optional[Value]:
        return state.chosen_value(self.index)

    summary = local_projection


class PaxosAgreementAll(DecomposableInvariant):
    """No two nodes choose different values for *any* decree index."""

    name = "paxos-agreement[*]"
    label = PaxosAgreement.label

    @staticmethod
    def chosen(state: PaxosNodeState) -> Iterable[Tuple[int, Value]]:
        """The ``(index, value)`` pairs ``state`` has learned as chosen."""
        # One pass over the learner map: ``chosen_value(index)`` is a linear
        # ``tm_get`` scan, so asking per decree is quadratic in decrees.
        return (
            (index, slot.chosen)
            for index, slot in state.learners
            if slot.chosen is not None
        )

    def describe_violation(self, system: SystemState) -> str:
        per_index: Dict[int, Dict[NodeId, Value]] = {}
        for node, state in system.items():
            for index, value in self.chosen(state):
                per_index.setdefault(index, {})[node] = value
        conflicting = {
            index: choices
            for index, choices in per_index.items()
            if len(set(choices.values())) > 1
        }
        return f"{self.label} agreement violated: {conflicting}"

    def local_projection(
        self, node: NodeId, state: PaxosNodeState
    ) -> Optional[FrozenSet[Tuple[int, Value]]]:
        return frozenset(self.chosen(state)) or None

    summary = local_projection

    def projections_conflict(self, projections: Dict[NodeId, object]) -> bool:
        per_index: Dict[int, set] = {}
        for chosen in projections.values():
            for index, value in chosen:  # type: ignore[union-attr]
                per_index.setdefault(index, set()).add(value)
        return any(len(values) > 1 for values in per_index.values())
