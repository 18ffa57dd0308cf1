"""Temporary system-state creation: the Cartesian step of LMC (§4.1-§4.2).

System states are never stored; they are materialised *temporarily*, purely
to evaluate invariants, and always anchored at a newly added node state:
"For each new node state (n,s), the system states are created by iterating
over the states of all the nodes except node n" (§4.2) — combinations made
purely of older states were already checked in earlier rounds.

Three enumerators:

* :func:`enumerate_general` — LMC-GEN: the full product over other nodes'
  visited states.
* :func:`enumerate_summarised` — the same product for an invariant that
  declares ``summary``: the invariant is asked once per distinct tuple of
  node summaries and a product with no violating tuple is counted in bulk;
  an anchor with a violating tuple is walked combination by combination.
* :func:`enumerate_optimized` — LMC-OPT: invariant-specific creation.  The
  invariant's local projection maps each node state to its relevant summary
  (Paxos: the chosen value, ``None`` when undecided); only combinations whose
  projections can *conflict* are generated.  The enumeration prunes branches
  that can no longer reach a conflict, so when no node has e.g. chosen any
  value, the product is never walked at all — this is how "LMC-OPT drops the
  number of created system states to zero" in the bug-free run of Fig. 11.

For non-pairwise invariants that override :meth:`projections_conflict` with
a custom notion of conflict the pruning logic (which is specific to the
default "two distinct non-None projections" conflict) is not applicable;
the optimized enumerator then degrades gracefully to generate-and-filter,
which is still complete.
"""

from __future__ import annotations

import heapq
from itertools import product
from operator import attrgetter
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.core.records import LocalStateSpace, NodeStateRecord
from repro.invariants.base import DecomposableInvariant
from repro.model.system_state import SystemState
from repro.model.types import NodeId

#: A candidate combination: one visited record per node.
Combination = Dict[NodeId, NodeStateRecord]

#: A (possibly cached) projection lookup.
ProjectionFn = Callable[[NodeId, NodeStateRecord], Optional[object]]

#: A (possibly cached) ``Invariant.summary`` lookup.
SummaryFn = Callable[[NodeId, NodeStateRecord], object]

#: An overridden ``projections_conflict``; ``None`` stands for the default
#: notion (two distinct values), which the partner scans decide inline.
ConflictFn = Optional[Callable[[Dict[NodeId, object]], bool]]

_RECORD_INDEX = attrgetter("index")


def combination_to_system_state(combo: Combination) -> SystemState:
    """Materialise the temporary system state for invariant checking."""
    return SystemState({node: record.state for node, record in combo.items()})


def _active_records(space: LocalStateSpace, node: NodeId) -> List[NodeStateRecord]:
    """Visited records of ``node`` eligible to join a system state.

    Delegates to the store's incrementally cached list: anchored enumeration
    runs once per new node state, so rebuilding this O(states) list per call
    used to be quadratic over a run.  Excludes records discarded by a local
    assert and crashed marker records (docs/FAULTS.md) — a down node is
    never part of an invariant-checked system state, while its post-restart
    state re-enters here as an ordinary fresh ``LS_n`` record.
    """
    return space.store(node).active_records()


class ProjectionIndex:
    """Per-node groups of records by invariant projection value.

    The pairwise LMC-OPT scan selects partners by what the invariant can
    observe of them — "we map the node states to the values that are chosen
    in them" (§4.2) — so the index keeps, per node, one group per distinct
    non-``None`` projection (one :meth:`note` per newly discovered state)
    and :meth:`partners` asks the conflict question once per *group* instead
    of once per record.  A custom ``projections_conflict`` verdict is
    memoised for the life of the index (one checker pass, hence one
    invariant) under ``(anchor node, anchor projection, partner node,
    partner projection)``; the node ids are part of the key because a
    conflict notion may read them.  Both shortcuts lean on the
    :class:`~repro.invariants.base.DecomposableInvariant` contract: the
    verdict is a pure function of its argument and equal projections are
    interchangeable.  An unhashable projection gets a group of its own and
    no memo.

    Groups hold their records in discovery order, several conflicting
    groups are merged on ``record.index`` and discarded records are skipped
    at read time, so partners come out exactly as the un-indexed scan
    yields them.
    """

    __slots__ = ("_groups", "_verdicts")

    def __init__(self, node_ids: Sequence[NodeId]):
        #: node -> {group key -> (projection, records in discovery order)};
        #: the key is the projection itself, or a fresh token when the
        #: projection cannot be hashed.
        self._groups: Dict[
            NodeId, Dict[object, Tuple[object, List[NodeStateRecord]]]
        ] = {node: {} for node in node_ids}
        self._verdicts: Dict[Tuple[NodeId, object, NodeId, object], bool] = {}

    def note(self, node: NodeId, record: NodeStateRecord, projection: object) -> None:
        """Register a newly discovered record's projection (``None`` ignored)."""
        if projection is None:
            return
        groups = self._groups[node]
        try:
            group = groups.get(projection)
        except TypeError:  # unhashable: a group of its own
            groups[object()] = (projection, [record])
            return
        if group is None:
            groups[projection] = (projection, [record])
        else:
            group[1].append(record)

    def partners(
        self,
        anchor_node: NodeId,
        anchor_projection: object,
        partner_node: NodeId,
        conflict: ConflictFn,
    ) -> Iterable[NodeStateRecord]:
        """Live records of ``partner_node`` conflicting with the anchor.

        The default notion needs no call at all: identity-or-equality per
        group, exactly like set membership in the default implementation.
        """
        conflicting = [
            records
            for projection, records in self._groups[partner_node].values()
            if (
                not (projection is anchor_projection or projection == anchor_projection)
                if conflict is None
                else self._verdict(
                    conflict, (anchor_node, anchor_projection, partner_node, projection)
                )
            )
        ]
        if not conflicting:
            return ()
        merged = (
            conflicting[0]
            if len(conflicting) == 1
            else heapq.merge(*conflicting, key=_RECORD_INDEX)
        )
        return (record for record in merged if not record.discarded)

    def _verdict(
        self,
        conflict: Callable[[Dict[NodeId, object]], bool],
        key: Tuple[NodeId, object, NodeId, object],
    ) -> bool:
        """``conflict`` on the keyed pair, asked once per distinct hashable key."""
        try:
            return self._verdicts[key]
        except KeyError:
            memoise = True
        except TypeError:  # an unhashable projection: no memo
            memoise = False
        anchor_node, anchor_projection, partner_node, partner_projection = key
        verdict = bool(
            conflict({anchor_node: anchor_projection, partner_node: partner_projection})
        )
        if memoise:
            self._verdicts[key] = verdict
        return verdict


def enumerate_general(
    space: LocalStateSpace, anchor_node: NodeId, anchor: NodeStateRecord
) -> Iterator[Combination]:
    """LMC-GEN enumeration: full product over other nodes, anchor fixed."""
    other_nodes = [node for node in space.node_ids if node != anchor_node]
    per_node: List[List[NodeStateRecord]] = []
    for node in other_nodes:
        records = _active_records(space, node)
        if not records:
            return
        per_node.append(records)

    combo: Combination = {anchor_node: anchor}

    def recurse(i: int) -> Iterator[Combination]:
        if i == len(other_nodes):
            yield dict(combo)
            return
        node = other_nodes[i]
        for record in per_node[i]:
            combo[node] = record
            yield from recurse(i + 1)
        combo.pop(node, None)

    yield from recurse(0)


def clean_block_size(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    summary_of: SummaryFn,
    holds: Callable[[Combination], bool],
) -> Optional[int]:
    """The anchored product's size when none of it violates, else ``None``.

    For an invariant declaring ``summary`` (whose ``check`` is a function of
    the per-node summary tuple, :class:`~repro.invariants.base.Invariant`),
    ``holds`` is asked once per distinct tuple of the other nodes'
    summaries, on one representative combination, until one violates.
    """
    other_nodes = [node for node in space.node_ids if node != anchor_node]
    representatives: List[Dict[object, NodeStateRecord]] = []
    size = 1
    for node in other_nodes:
        records = _active_records(space, node)
        if not records:
            return 0
        size *= len(records)
        first: Dict[object, NodeStateRecord] = {}
        for record in records:
            first.setdefault(summary_of(node, record), record)
        representatives.append(first)

    for keys in product(*representatives):
        combo: Combination = {anchor_node: anchor}
        for node, key, first in zip(other_nodes, keys, representatives):
            combo[node] = first[key]
        if not holds(combo):
            return None
    return size


def enumerate_summarised(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    summary_of: SummaryFn,
    holds: Callable[[Combination], bool],
) -> Iterator[Tuple[int, Optional[Combination]]]:
    """LMC-GEN's anchored product, checked once per distinct summary tuple.

    Yields ``(covered, None)`` for ``covered`` combinations that hold and
    ``(1, combo)`` for each violating combination, in
    :func:`enumerate_general`'s order: a consumer that adds ``covered`` to
    its counters sees at every violation exactly the counts the
    per-combination walk would have reached.

    When no tuple violates (:func:`clean_block_size`), the whole product is
    one block.  Otherwise the anchor falls back to
    :func:`enumerate_general`, asking ``holds`` of every combination, so its
    order and verdicts are the walk's own — the composition
    ``LocalModelChecker`` runs, with its symmetry filter in the walk.
    """
    size = clean_block_size(space, anchor_node, anchor, summary_of, holds)
    if size is None:
        for combo in enumerate_general(space, anchor_node, anchor):
            yield 1, (None if holds(combo) else combo)
    elif size:
        yield size, None


def enumerate_optimized(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    invariant: DecomposableInvariant,
    completion_cap: Optional[int] = None,
    projection_of: Optional[ProjectionFn] = None,
    index: Optional[ProjectionIndex] = None,
) -> Iterator[Combination]:
    """LMC-OPT enumeration: only combinations whose projections conflict.

    For ``pairwise`` invariants (the default, and the paper's own reading of
    the optimisation) this scans for *pairs* of node states whose
    projections conflict — one side being the newly added anchor — and
    completes each pair over the remaining nodes, up to ``completion_cap``
    completions per pair.  When no node projects anything conflicting, no
    combination is ever built: the zero-system-states result of Fig. 11.

    For non-pairwise invariants it falls back to the full anchored product,
    pruned for the default conflict notion and generate-and-filtered for
    custom ones.  Complete with respect to LMC-GEN (up to the completion
    cap) for invariants honouring the decomposition contract.

    Every projection any branch reads comes from ``projection_of`` (the
    checker passes its per-record cache); the default asks the invariant.
    """
    if projection_of is None:
        projection_of = lambda node, record: invariant.local_projection(  # noqa: E731
            node, record.state
        )
    if invariant.pairwise:
        yield from _enumerate_pairwise(
            space, anchor_node, anchor, invariant, completion_cap, projection_of, index
        )
        return
    if _uses_default_conflict(invariant):
        yield from _enumerate_conflicting(space, anchor_node, anchor, projection_of)
        return
    # Custom conflict notion without pairwise structure: generate-and-filter.
    for combo in enumerate_general(space, anchor_node, anchor):
        projections = {
            node: projection
            for node, record in combo.items()
            if (projection := projection_of(node, record)) is not None
        }
        if invariant.projections_conflict(projections):
            yield combo


def _enumerate_pairwise(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    invariant: DecomposableInvariant,
    completion_cap: Optional[int],
    projection_of: ProjectionFn,
    index: Optional[ProjectionIndex] = None,
) -> Iterator[Combination]:
    """Conflicting (anchor, other) pairs, each completed over remaining nodes.

    Pairs *not* involving the anchor were already examined when their later
    member was the anchor of an earlier round, so anchored pairs suffice.
    Completions are enumerated in discovery order and capped per pair.

    With a :class:`ProjectionIndex` the partner scan visits one group per
    distinct projection value; without one it asks about every active
    record — the reference the index is tested against: same pairs, same
    order.
    """
    anchor_projection = projection_of(anchor_node, anchor)
    if anchor_projection is None:
        return
    # The default conflict notion over two projections reduces to `!=`
    # (two distinct dict values iff the set of values has two elements);
    # specialising skips a dict + set build per candidate in the hottest
    # enumeration loop.  Overridden notions keep the full call.
    conflict = (
        None if _uses_default_conflict(invariant) else invariant.projections_conflict
    )
    for partner_node in space.node_ids:
        if partner_node == anchor_node:
            continue
        if index is not None:
            partners = index.partners(
                anchor_node, anchor_projection, partner_node, conflict
            )
        else:
            partners = _scanned_partners(
                space, anchor_node, anchor_projection, partner_node, conflict, projection_of
            )
        for partner in partners:
            yield from _completions(
                space,
                {anchor_node: anchor, partner_node: partner},
                completion_cap,
            )


def _scanned_partners(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor_projection: object,
    partner_node: NodeId,
    conflict: ConflictFn,
    projection_of: ProjectionFn,
) -> Iterator[NodeStateRecord]:
    """The un-indexed partner scan: one conflict question per active record."""
    for partner in _active_records(space, partner_node):
        partner_projection = projection_of(partner_node, partner)
        if partner_projection is None:
            continue
        if conflict is None:
            # identity-or-equality, exactly like set membership in the
            # default projections_conflict
            if (
                partner_projection is anchor_projection
                or partner_projection == anchor_projection
            ):
                continue
        elif not conflict(
            {anchor_node: anchor_projection, partner_node: partner_projection}
        ):
            continue
        yield partner


def _completions(
    space: LocalStateSpace,
    fixed: Combination,
    cap: Optional[int],
) -> Iterator[Combination]:
    """Complete ``fixed`` over the remaining nodes, capped at ``cap`` combos."""
    remaining = [node for node in space.node_ids if node not in fixed]
    per_node: List[List[NodeStateRecord]] = []
    for node in remaining:
        records = _active_records(space, node)
        if not records:
            return
        per_node.append(records)
    produced = 0
    combo: Combination = dict(fixed)

    def recurse(i: int) -> Iterator[Combination]:
        nonlocal produced
        if cap is not None and produced >= cap:
            return
        if i == len(remaining):
            produced += 1
            yield dict(combo)
            return
        node = remaining[i]
        for record in per_node[i]:
            combo[node] = record
            yield from recurse(i + 1)
            if cap is not None and produced >= cap:
                break
        combo.pop(node, None)

    yield from recurse(0)


def _uses_default_conflict(invariant: DecomposableInvariant) -> bool:
    return (
        type(invariant).projections_conflict
        is DecomposableInvariant.projections_conflict
    )


def _enumerate_conflicting(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    projection_of: ProjectionFn,
) -> Iterator[Combination]:
    """Pruned product for the default conflict: ≥ 2 distinct projections."""
    other_nodes = [node for node in space.node_ids if node != anchor_node]
    candidates: List[List[Tuple[NodeStateRecord, Optional[object]]]] = []
    available: List[frozenset] = []
    for node in other_nodes:
        records = _active_records(space, node)
        if not records:
            return
        projected = [(record, projection_of(node, record)) for record in records]
        candidates.append(projected)
        available.append(
            frozenset(value for _, value in projected if value is not None)
        )

    anchor_projection = projection_of(anchor_node, anchor)
    combo: Combination = {anchor_node: anchor}
    initial_values: Tuple[object, ...] = (
        (anchor_projection,) if anchor_projection is not None else ()
    )

    def conflict_reachable(distinct: frozenset, i: int) -> bool:
        """Can positions i.. still complete ``distinct`` to ≥ 2 values?"""
        if len(distinct) >= 2:
            return True
        remaining = available[i:]
        if distinct:
            wanted = next(iter(distinct))
            return any(values - {wanted} for values in remaining)
        # No value picked yet: need two different values from two different
        # remaining nodes (each node contributes at most one value).
        non_empty = [values for values in remaining if values]
        if len(non_empty) < 2:
            return False
        union = frozenset().union(*non_empty)
        if len(union) < 2:
            return False
        # Fails only if every non-empty node offers the identical singleton.
        return not all(values == non_empty[0] and len(values) == 1 for values in non_empty)

    def recurse(i: int, distinct: frozenset) -> Iterator[Combination]:
        if not conflict_reachable(distinct, i):
            return
        if i == len(other_nodes):
            if len(distinct) >= 2:
                yield dict(combo)
            return
        node = other_nodes[i]
        for record, projection in candidates[i]:
            combo[node] = record
            next_distinct = (
                distinct if projection is None else distinct | {projection}
            )
            yield from recurse(i + 1, next_distinct)
        combo.pop(node, None)

    yield from recurse(0, frozenset(initial_values))
