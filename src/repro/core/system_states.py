"""Temporary system-state creation: the Cartesian step of LMC (§4.1-§4.2).

System states are never stored; they are materialised *temporarily*, purely
to evaluate invariants, and always anchored at a newly added node state:
"For each new node state (n,s), the system states are created by iterating
over the states of all the nodes except node n" (§4.2) — combinations made
purely of older states were already checked in earlier rounds.

Three enumerators; the last two read each node state's value — what the
invariant sees of it — from the pass's one :class:`SummaryIndex`:

* :func:`enumerate_general` — LMC-GEN: the full product over other nodes'
  visited states.
* :func:`clean_block_size` — the same product for an invariant that
  declares ``summary``: the invariant is asked once per distinct tuple of
  summary groups, and a product with no violating tuple is counted in bulk;
  an anchor with a violating tuple is walked combination by combination
  through :func:`enumerate_general`.
* :func:`enumerate_optimized` — LMC-OPT: invariant-specific creation.  The
  invariant's local projection maps each node state to its relevant summary
  (Paxos: the chosen value, ``None`` when undecided); only anchored pairs
  whose projections *conflict* are generated, so when no node has e.g.
  chosen any value, no combination is built at all — this is how "LMC-OPT
  drops the number of created system states to zero" in the bug-free run of
  Fig. 11.

A :class:`~repro.invariants.base.DecomposableInvariant` declared
non-``pairwise`` has no pair to scan for: the checker runs LMC-GEN's
product for it (summarised when it declares ``summary``), which is complete
by construction.
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


class SummaryIndex:
    """Per-node records grouped by the value the invariant sees of them.

    "We map the node states to the values that are chosen in them" (§4.2):
    one index per checker pass maps every record to ``key_of(node, state)``
    — ``local_projection`` under LMC-OPT, ``summary`` under summarised
    LMC-GEN — and keeps, per node, one group per distinct value (``None``
    included: it is a legal summary), records in discovery order.
    :meth:`note` is the only call to ``key_of`` for a record; every reader
    goes through :meth:`value`, :meth:`partners` or :meth:`representatives`.

    :meth:`partners` asks the conflict question once per *group* instead of
    once per record.  A custom ``projections_conflict`` verdict is memoised
    for the life of the index under ``(anchor node, anchor value, partner
    node, partner value)``; the node ids are part of the key because a
    conflict notion may read them.  Both shortcuts lean on the
    :class:`~repro.invariants.base.DecomposableInvariant` contract: the
    verdict is a pure function of its argument and equal projections are
    interchangeable.  An unhashable value gets a group of its own and no
    memo.  Discarded records stay in their groups and are skipped at read
    time, so every reader sees exactly the live records a scan would.
    """

    __slots__ = ("_key_of", "_values", "_groups", "_verdicts")

    def __init__(
        self, node_ids: Sequence[NodeId], key_of: Callable[[NodeId, object], object]
    ):
        self._key_of = key_of
        self._values: Dict[Tuple[NodeId, int], object] = {}
        #: node -> {group key -> (value, records in discovery order)}; the
        #: key is the value itself, or a fresh token when it cannot be hashed.
        self._groups: Dict[
            NodeId, Dict[object, Tuple[object, List[NodeStateRecord]]]
        ] = {node: {} for node in node_ids}
        self._verdicts: Dict[Tuple[NodeId, object, NodeId, object], bool] = {}

    def note(self, record: NodeStateRecord) -> None:
        """Compute a newly discovered record's value and file it in its group."""
        node = record.node
        value = self._values[(node, record.index)] = self._key_of(node, record.state)
        groups = self._groups[node]
        try:
            group = groups.get(value)
        except TypeError:  # unhashable: a group of its own
            groups[object()] = (value, [record])
            return
        if group is None:
            groups[value] = (value, [record])
        else:
            group[1].append(record)

    def value(self, node: NodeId, record: NodeStateRecord) -> object:
        """The value :meth:`note` computed for ``record``."""
        return self._values[(node, record.index)]

    def representatives(self, node: NodeId) -> List[NodeStateRecord]:
        """The first live record of each of ``node``'s groups, in record order.

        Sorted, because a group whose first record was discarded is met
        later by a scan of the active records than its position among the
        groups says; :func:`clean_block_size` asks its tuples in scan order.
        """
        firsts = []
        for _value, records in self._groups[node].values():
            first = next((record for record in records if not record.discarded), None)
            if first is not None:
                firsts.append(first)
        firsts.sort(key=_RECORD_INDEX)
        return firsts

    def partners(
        self,
        anchor_node: NodeId,
        anchor_value: object,
        partner_node: NodeId,
        conflict: ConflictFn,
    ) -> Iterable[NodeStateRecord]:
        """Live records of ``partner_node`` whose value conflicts with the anchor's.

        The ``None`` group never conflicts.  The default notion needs no
        call at all: identity-or-equality per group, exactly like set
        membership in the default implementation.  Several conflicting
        groups are merged on ``record.index``, so partners come out in the
        record scan's order.
        """
        conflicting = [
            records
            for value, records in self._groups[partner_node].values()
            if value is not None
            and (
                not (value is anchor_value or value == anchor_value)
                if conflict is None
                else self._verdict(conflict, (anchor_node, anchor_value, partner_node, value))
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
        except TypeError:  # an unhashable value: no memo
            memoise = False
        anchor_node, anchor_value, partner_node, partner_value = key
        verdict = bool(conflict({anchor_node: anchor_value, partner_node: partner_value}))
        if memoise:
            self._verdicts[key] = verdict
        return verdict


def enumerate_general(
    space: LocalStateSpace, anchor_node: NodeId, anchor: NodeStateRecord
) -> Iterator[Combination]:
    """LMC-GEN enumeration: full product over other nodes, anchor fixed."""
    yield from _completions(space, {anchor_node: anchor}, None)


def clean_block_size(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    index: SummaryIndex,
    holds: Callable[[Combination], bool],
) -> Optional[int]:
    """The anchored product's size when none of it violates, else ``None``.

    For an invariant declaring ``summary`` (whose ``check`` is a function of
    the per-node summary tuple, :class:`~repro.invariants.base.Invariant`),
    ``holds`` is asked once per distinct tuple of the other nodes' summary
    groups — on the first live record of each, ``index`` grouping by
    ``summary`` — until one violates.
    """
    other_nodes = [node for node in space.node_ids if node != anchor_node]
    size = 1
    for node in other_nodes:
        size *= len(_active_records(space, node))
    if not size:
        return 0
    for records in product(*map(index.representatives, other_nodes)):
        combo: Combination = {anchor_node: anchor}
        combo.update(zip(other_nodes, records))
        if not holds(combo):
            return None
    return size


def enumerate_optimized(
    space: LocalStateSpace,
    anchor_node: NodeId,
    anchor: NodeStateRecord,
    invariant: DecomposableInvariant,
    index: SummaryIndex,
    completion_cap: Optional[int] = None,
    grouped: bool = True,
) -> Iterator[Combination]:
    """LMC-OPT enumeration for a ``pairwise`` invariant: conflicting pairs.

    Scans for *pairs* of node states whose projections (``index`` grouping
    by ``local_projection``) conflict — one side being the newly added
    anchor — and completes each pair over the remaining nodes in discovery
    order, up to ``completion_cap`` completions per pair.  Pairs *not*
    involving the anchor were already examined when their later member was
    the anchor of an earlier round, so anchored pairs suffice.  When no
    node projects anything conflicting, no combination is ever built: the
    zero-system-states result of Fig. 11.  Complete with respect to LMC-GEN
    (up to the completion cap) for invariants honouring the decomposition
    contract; a non-pairwise invariant runs LMC-GEN's product instead.

    ``grouped`` scans partners one group per distinct projection value
    (:meth:`SummaryIndex.partners`); otherwise every active record is asked
    about — the reference the grouped scan is tested against: same pairs,
    same order.
    """
    anchor_value = index.value(anchor_node, anchor)
    if anchor_value is None:
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
        partners = (
            index.partners(anchor_node, anchor_value, partner_node, conflict)
            if grouped
            else _scanned_partners(
                space, index, anchor_node, anchor_value, partner_node, conflict
            )
        )
        for partner in partners:
            yield from _completions(
                space,
                {anchor_node: anchor, partner_node: partner},
                completion_cap,
            )


def _scanned_partners(
    space: LocalStateSpace,
    index: SummaryIndex,
    anchor_node: NodeId,
    anchor_value: object,
    partner_node: NodeId,
    conflict: ConflictFn,
) -> Iterator[NodeStateRecord]:
    """The ungrouped partner scan: one conflict question per active record."""
    for partner in _active_records(space, partner_node):
        partner_value = index.value(partner_node, partner)
        if partner_value is None:
            continue
        if conflict is None:
            # identity-or-equality, exactly like set membership in the
            # default projections_conflict
            if partner_value is anchor_value or partner_value == anchor_value:
                continue
        elif not conflict({anchor_node: anchor_value, partner_node: partner_value}):
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

