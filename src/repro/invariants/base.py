"""Invariant framework.

Invariants are specified on **system states** — the paper's observation (1):
"the invariants are typically specified only on the system states, i.e., the
invariants do not involve the network states".  The framework distinguishes
three shapes, each unlocking a different optimisation in LMC:

* :class:`Invariant` — the base contract: a predicate over a
  :class:`~repro.model.system_state.SystemState`.
* :class:`DecomposableInvariant` — stated as a cheap *local projection* of
  each node state and a conflict test over projections; its ``check`` is
  derived from the two, so the violation is stated once.  This is the
  §4.1/§4.2 invariant-specific system-state creation hook: LMC-OPT skips
  every combination whose projections cannot conflict, and because
  ``check`` is "the projections conflict" the skip loses no violation by
  construction.  For Paxos the projection is the value a node has chosen
  (``None`` for undecided nodes) and a conflict is "at least two distinct
  chosen values".  A deliberately weaker decomposition (``in'`` with
  ``in' ⇒ in`` violation-wise) overrides ``check`` and carries the
  contract itself.
* :class:`LocalInvariant` — an invariant that is a conjunction of per-node
  predicates (the RandTree children/siblings-disjoint example); checking it
  never needs a combination of nodes at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Callable, Dict, Hashable, Iterable, Optional, Tuple

from repro.model.system_state import SystemState
from repro.model.types import NodeId


class Invariant(ABC):
    """A safety property over system states.

    ``check`` returns True when the invariant *holds*.  The checkers report a
    bug when ``check`` returns False on a state they can prove reachable.

    An invariant may also declare the optional :meth:`summary` hook, which
    LMC-GEN uses to check each distinct summary tuple once instead of each
    combination (:func:`repro.core.system_states.clean_block_size`).
    The contract it relies on:

    * ``check`` is a function of the per-node summary tuple: two system
      states over the same nodes whose node states have equal summaries,
      node by node, get the same verdict;
    * summaries are hashable, and a summary equal to another (a pickle
      round trip, say) groups with it: ``==`` and ``hash`` agree.

    ``tests/invariants/test_decomposition_contract.py`` checks the contract
    for every shipped invariant that declares the hook, and
    :func:`repro.model.conformance.check_protocol` samples it for any
    invariant handed to it.  An invariant that reads something a summary
    leaves out must not declare the hook: GEN would skip combinations whose
    verdict differs from their representative's.
    """

    #: Short name used in bug reports and benchmark tables.
    name: str = "invariant"

    @abstractmethod
    def check(self, system: SystemState) -> bool:
        """True when the invariant holds on ``system``."""

    def describe_violation(self, system: SystemState) -> str:
        """Human-readable account of why ``system`` violates the invariant."""
        return f"invariant {self.name!r} violated on {system!r}"

    def summary(self, node: NodeId, state: Any) -> Hashable:
        """What of ``node``'s ``state`` :meth:`check` can see (optional hook).

        Not declared by default; see the class docstring for the contract.
        """
        raise NotImplementedError(f"{type(self).__name__} declares no summary")


def declares_summary(invariant: Invariant) -> bool:
    """True when ``invariant``'s class overrides :meth:`Invariant.summary`."""
    return type(invariant).summary is not Invariant.summary


class DecomposableInvariant(Invariant):
    """An invariant stated as a local projection and a conflict test.

    Subclasses implement :meth:`local_projection`; the default
    :meth:`projections_conflict` flags any pair of distinct non-``None``
    projection values, which matches agreement-style invariants (Paxos: no
    two nodes choose different values).  Subclasses with richer conflict
    structure override it.  :meth:`check` is derived: a system state
    violates the invariant exactly when its node states' non-``None``
    projections conflict.

    The contract LMC-OPT relies on (soundness of the *skip*): if a system
    state violates :meth:`check`, then the projections of its node states
    must satisfy :meth:`projections_conflict`.  The derived :meth:`check`
    meets it by construction.  A subclass that overrides :meth:`check` — a
    deliberately weaker decomposition, whose projections conflict on states
    that hold — carries the contract itself: violating it makes LMC-OPT
    miss bugs.

    ``pairwise`` (default True) additionally asserts that every violation is
    *witnessed by a pair*: some two nodes' projections already conflict on
    their own.  This is the paper's own reading ("we thus select only the
    node states that at least two of them are mapped to different values",
    §4.2) and lets LMC-OPT scan conflicting pairs instead of walking the
    full Cartesian product.  Set it to False for exotic invariants whose
    conflicts only appear with three or more nodes; the checker then runs
    LMC-GEN's full anchored product instead (summarised when the invariant
    declares :meth:`summary`) and reports ``LMC-GEN``.

    The contract LMC-OPT relies on for *speed* (the partner scan asks once
    per distinct projection, not once per record — see
    :class:`repro.core.system_states.SummaryIndex`):

    * :meth:`projections_conflict` is a pure function of its argument — the
      ``{node: projection}`` dict, node ids included — with no state and no
      dependence on call order;
    * equal projections are interchangeable: replacing a projection by an
      equal (``==``, same hash) object never changes the verdict;
    * hashable projections are grouped by value, and one verdict per
      distinct ``(node, projection, node, projection)`` stands for every
      pair of node states behind it.  An unhashable projection is legal but
      forfeits the grouping (each such state is asked about on its own).

    ``tests/invariants/test_decomposition_contract.py`` checks both
    contracts for every shipped invariant over its reachable projections,
    and that no shipped invariant overrides :meth:`check`.
    """

    #: Violations are witnessed by a two-node projection conflict.
    pairwise: bool = True

    @abstractmethod
    def local_projection(self, node: NodeId, state: Any) -> Optional[Any]:
        """Project a node state to its invariant-relevant summary.

        Return ``None`` when this node state can never contribute to a
        violation (e.g. an undecided Paxos node) — LMC-OPT will not combine
        it into any system state.
        """

    def projections_conflict(self, projections: Dict[NodeId, Any]) -> bool:
        """Could node states with these (non-None) projections violate?"""
        return len(set(projections.values())) >= 2

    def check(self, system: SystemState) -> bool:
        projections = {}
        for node, state in system.items():
            projection = self.local_projection(node, state)
            if projection is not None:
                projections[node] = projection
        return not self.projections_conflict(projections)


class LocalInvariant(Invariant):
    """A conjunction of per-node predicates.

    ``check_local(node, state)`` must be True for every node.  The system
    check is derived; LMC can check these on node states directly, without
    creating any system state.
    """

    @abstractmethod
    def check_local(self, node: NodeId, state: Any) -> bool:
        """True when ``node``'s local state satisfies its share of the invariant."""

    def check(self, system: SystemState) -> bool:
        return all(self.check_local(node, state) for node, state in system.items())

    def describe_violation(self, system: SystemState) -> str:
        failing = [
            node for node, state in system.items() if not self.check_local(node, state)
        ]
        return f"local invariant {self.name!r} violated at nodes {failing}"


class PredicateInvariant(Invariant):
    """Adapter: wrap a plain function ``SystemState -> bool`` as an invariant."""

    def __init__(self, name: str, predicate: Callable[[SystemState], bool]):
        self.name = name
        self._predicate = predicate

    def check(self, system: SystemState) -> bool:
        return self._predicate(system)


class AllOf(Invariant):
    """Conjunction of several invariants; violated when any member is."""

    def __init__(self, invariants: Iterable[Invariant], name: str = "all-of"):
        self.members: Tuple[Invariant, ...] = tuple(invariants)
        if not self.members:
            raise ValueError("AllOf requires at least one invariant")
        self.name = name

    def check(self, system: SystemState) -> bool:
        return all(member.check(system) for member in self.members)

    def describe_violation(self, system: SystemState) -> str:
        for member in self.members:
            if not member.check(system):
                return member.describe_violation(system)
        return f"invariant {self.name!r} holds (no violation to describe)"
