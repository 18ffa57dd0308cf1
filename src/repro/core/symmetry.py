"""Symmetry reduction of system-state enumeration (docs/REDUCTION.md).

Many protocols have interchangeable nodes — Paxos acceptors that hold no
proposal, 2PC participants scripted with the same vote, leaves of a
broadcast tree — and verdicts that are invariant under renaming them.  LMC
still enumerates every permutation of their states into anchored system
states.  This module canonicalises each candidate combination to a
representative of its *orbit* under the protocol-declared symmetry group,
so each orbit is invariant-checked (and, on violation, soundness-verified)
once.

The group is declared, not discovered: a protocol's
:meth:`~repro.model.protocol.Protocol.symmetry_classes` hook names tuples of
interchangeable node ids, and
the group is the product of the full symmetric groups over each class.
Declaring a class asserts *equivariance* — renaming the members everywhere
(initial states, handler behaviour, invariant verdicts) permutes executions
without changing observable outcomes.  Under that assertion the reduction
preserves verdicts: every skipped combination has an orbit sibling that was
(or will be) enumerated by the symmetric exploration, so a violation is
never lost, only reported through its canonical representative.  The
soundness argument, and the one residual timing conservatism it inherits
from the paper's own reverify gap, are spelled out in docs/REDUCTION.md.

Everything here is gated: with ``LMCConfig.symmetry_reduction`` off (the
default) no :class:`SymmetryReducer` is constructed and the checker is
byte-identical to a build without this module.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.model.hashing import content_hash
from repro.model.types import NodeId

#: Hard cap on composed group size: the per-class factorials multiply, and a
#: pathological declaration (say, ten interchangeable nodes) must not turn
#: every canonicalisation into a 3.6M-permutation scan.  Classes are dropped
#: from the end of the declaration until the product fits — a smaller group
#: only weakens the reduction, never its soundness.
_GROUP_CAP = 720

#: Combinations per chunk of :meth:`SymmetryReducer.count_block`: the caller
#: checks its time budget and heartbeat between chunks.
BLOCK_CHUNK = 4096

#: One ``hash(rename(state, π))`` per listed node, ordered by target node
#: ``π(node)``: the orbit-key candidate of group element π.
Key = Tuple[int, ...]


def _class_permutations(members: Tuple[NodeId, ...]) -> List[Dict[NodeId, NodeId]]:
    """All renamings of one class, as minimal (moved-ids-only) mappings."""
    perms = []
    for image in itertools.permutations(members):
        mapping = {
            src: dst for src, dst in zip(members, image) if src != dst
        }
        perms.append(mapping)
    return perms


def build_group(
    classes: Tuple[Tuple[NodeId, ...], ...],
    cap: int = _GROUP_CAP,
) -> Tuple[Dict[NodeId, NodeId], ...]:
    """The symmetry group as node renamings: the product over the classes.

    Element 0 is always the identity (the empty mapping).  Classes whose
    factorial blow-up would push the composed group past ``cap`` are
    dropped, deterministically, from the end of the declaration.
    """
    kept: List[List[Dict[NodeId, NodeId]]] = []
    size = 1
    for members in classes:
        perms = _class_permutations(members)
        if size * len(perms) > cap:
            continue
        size *= len(perms)
        kept.append(perms)
    group: List[Dict[NodeId, NodeId]] = []
    for parts in itertools.product(*kept) if kept else ((),):
        mapping: Dict[NodeId, NodeId] = {}
        for part in parts:
            mapping.update(part)
        group.append(mapping)
    # Identity first: canonicalisation starts from the unrenamed key, and
    # orbit-variant search skips element 0.
    group.sort(key=lambda mapping: (len(mapping), sorted(mapping.items())))
    return tuple(group)


class SymmetryReducer:
    """Orbit canonicalisation of system-state combinations.

    One reducer serves one exploration pass.  It holds:

    * the composed symmetry ``group`` (identity first);
    * per record, its hash vector — one ``hash(rename(state, π))`` per
      group element, keyed by ``(node, record index)``, with the
      identity's hash being the record's stored one;
    * the set of canonical orbit keys already enumerated this pass.

    A combination's **orbit key** is the minimum, over the group, of its
    records' π-hashes listed by target node ``π(node)``, ascending.  Every
    keyed combination covers the reducer's node set ``nodes``, which each
    π maps onto itself, so the targets listed are ``nodes`` in order
    whatever π is: the key of pairs ``(π(node), hash)`` would repeat the
    same node at each position, and the hashes alone order and identify
    keys exactly as those pairs do.  Two combinations get equal keys iff
    some group element maps one onto the other (modulo the vanishing
    probability of a content-hash collision), so first-occurrence
    filtering on the key enumerates exactly one member per orbit.
    :meth:`orbit_key` and :meth:`count_block` both read the hash vectors
    and place them with the same getters, so the per-combination walk and
    the counted block produce the same keys.
    """

    __slots__ = (
        "protocol",
        "classes",
        "group",
        "nodes",
        "_hashes",
        "_placements",
        "_seen",
        "orbit_hits",
    )

    def __init__(
        self,
        protocol: Any,
        classes: Tuple[Tuple[NodeId, ...], ...],
        cap: int = _GROUP_CAP,
    ):
        self.protocol = protocol
        self.classes = classes
        self.group = build_group(classes, cap)
        #: The node ids every keyed combination covers, ascending: the
        #: target node of each position of an orbit key.
        self.nodes: Tuple[NodeId, ...] = tuple(sorted(protocol.node_ids()))
        self._hashes: Dict[Tuple[NodeId, int], Tuple[int, ...]] = {}
        #: Node order of a combination -> one placing getter per group element.
        self._placements: Dict[Tuple[NodeId, ...], Tuple[Callable, ...]] = {}
        self._seen: set = set()
        #: Orbit keys that came back already seen (== the checker's
        #: ``symmetry_skips``, kept here too for the ``reduction`` event).
        self.orbit_hits = 0

    @classmethod
    def for_pass(cls, pass_: Any) -> Optional["SymmetryReducer"]:
        """A reducer when the config and the protocol both enable one.

        Mirrors ``RoundSpeculator.for_pass``: with the knob off — or a
        protocol that declares no (usable) symmetry classes — the pass
        carries ``None`` and pays nothing.
        """
        if not pass_.config.symmetry_reduction:
            return None
        # A class of fewer than two members admits only the identity.
        classes = tuple(
            members for members in pass_.protocol.symmetry_classes() if len(members) >= 2
        )
        if not classes:
            return None
        reducer = cls(pass_.protocol, classes)
        reducer.restrict_to_stabilizer(pass_.initial_system)
        if len(reducer.group) <= 1:
            return None
        return reducer

    def restrict_to_stabilizer(self, initial_system: Any) -> None:
        """Keep only group elements that map the seeded snapshot onto itself.

        The hook speaks for the protocol's own uniform boot states, but a
        pass may be seeded with a crafted live snapshot (``run(initial)`` —
        the §5.5 experiment starts from an asymmetric partial-choice state).
        Renaming is only an execution symmetry from states the renaming
        fixes, so the group is cut down to the snapshot's stabilizer: π
        survives iff ``rename(initial[n], π) == initial[π(n)]`` for every
        node.  Stabilizers are subgroups, so closure (and the soundness
        argument built on it) is preserved; in the worst case the group
        collapses to the identity and ``for_pass`` disables the reducer.
        """
        kept: List[Dict[NodeId, NodeId]] = []
        for mapping in self.group:
            if not mapping:
                kept.append(mapping)
                continue
            fixes = all(
                self.protocol.rename_state(state, mapping)
                == initial_system.get(mapping.get(node, node))
                for node, state in initial_system.items()
            )
            if fixes:
                kept.append(mapping)
        self.group = tuple(kept)
        self._hashes.clear()
        self._placements.clear()

    # -- canonicalisation --------------------------------------------------

    def _hashes_of(self, record: Any) -> Tuple[int, ...]:
        """``record``'s hash vector: ``hash(rename(state, π))`` per π."""
        key = (record.node, record.index)
        hashes = self._hashes.get(key)
        if hashes is None:
            hashes = tuple(
                content_hash(self.protocol.rename_state(record.state, mapping))
                if mapping
                else record.hash
                for mapping in self.group
            )
            self._hashes[key] = hashes
        return hashes

    def _placing(self, nodes: Tuple[NodeId, ...]) -> Tuple[Callable, ...]:
        """Per group element π, the getter listing π-hashes by target node.

        The getter takes one hash per node of ``nodes``, in that order, and
        returns them ordered by ``π(node)`` ascending, decided once per node
        order instead of per combination.  ``nodes`` must cover the
        reducer's node set: an orbit key lists one hash per node of it.
        """
        placing = self._placements.get(nodes)
        if placing is None:
            targets = sorted(nodes)
            if tuple(targets) != self.nodes:
                raise ValueError(
                    f"combination over nodes {targets} does not cover the "
                    f"reducer's node set {list(self.nodes)}"
                )
            getters = []
            for mapping in self.group:
                source = {mapping.get(node, node): i for i, node in enumerate(nodes)}
                getters.append(itemgetter(*(source[target] for target in targets)))
            placing = self._placements[nodes] = tuple(getters)
        return placing

    def orbit_key(self, combo: Dict[NodeId, Any]) -> Key:
        """The canonical key of ``combo``'s orbit (minimum over the group)."""
        columns = zip(*(self._hashes_of(record) for record in combo.values()))
        return min(
            place(column) for place, column in zip(self._placing(tuple(combo)), columns)
        )

    def count_block(
        self, space: Any, anchor_node: NodeId, anchor: Any
    ) -> Iterator[Tuple[int, int]]:
        """New orbits among ``enumerate_general``'s combinations, counted.

        The anchored product over the other nodes' active records, in
        :func:`~repro.core.system_states.enumerate_general`'s order, each
        combination keyed as :meth:`orbit_key` keys it and filtered as
        :meth:`first_occurrence` filters it — but without building a
        combination dict, sorting, or leaving C loops: per group element
        one ``itertools.product`` over the records' π-hashes, placed by the
        same getters, and the minimum over the group per combination.

        Yields ``(combinations, new orbits)`` per chunk of at most
        :data:`BLOCK_CHUNK` combinations.  ``_seen`` and ``orbit_hits``
        cover exactly the chunks yielded so far, so a caller that stops
        between chunks leaves them consistent with what it counted.
        """
        nodes = tuple(space.node_ids)
        rows = []
        size = 1
        for node in nodes:
            records = (
                (anchor,) if node == anchor_node else space.store(node).active_records()
            )
            size *= len(records)
            rows.append([self._hashes_of(record) for record in records])
        streams = [
            map(place, itertools.product(*([hashes[k] for hashes in row] for row in rows)))
            for k, place in enumerate(self._placing(nodes))
        ]
        keys = map(min, *streams) if len(streams) > 1 else streams[0]
        seen = self._seen
        while size:
            step = min(size, BLOCK_CHUNK)
            before = len(seen)
            seen.update(itertools.islice(keys, step))
            new = len(seen) - before
            self.orbit_hits += step - new
            size -= step
            yield step, new

    def first_occurrence(self, combo: Dict[NodeId, Any]) -> bool:
        """True when no member of ``combo``'s orbit was enumerated before.

        A False return means an orbit sibling already went through invariant
        checking this pass — the caller skips the combination and counts a
        ``symmetry_skip``.
        """
        key = self.orbit_key(combo)
        if key in self._seen:
            self.orbit_hits += 1
            return False
        self._seen.add(key)
        return True

    # -- orbit-aware soundness fallback ------------------------------------

    def orbit_variants(
        self, space: Any, combo: Dict[NodeId, Any]
    ) -> Iterator[Dict[NodeId, Any]]:
        """Orbit siblings of ``combo`` whose records all exist in ``LS``.

        Used when the enumerated representative of a violating orbit fails
        soundness verification: a sibling reached through differently-named
        nodes may carry the valid event ordering (exploration is equivariant
        *eventually*, not at every intermediate serial moment).  Siblings
        with members not (yet) discovered are silently skipped.
        """
        for index, mapping in enumerate(self.group):
            if not mapping:
                continue
            variant: Dict[NodeId, Any] = {}
            complete = True
            for record in combo.values():
                target = mapping.get(record.node, record.node)
                sibling = space.store(target).lookup(self._hashes_of(record)[index])
                if sibling is None or sibling.discarded or sibling.crashed:
                    complete = False
                    break
                variant[target] = sibling
            if complete and variant != combo:
                yield variant

    # -- observability -----------------------------------------------------

    def summary(self) -> Dict[str, int]:
        """Counters for the pass-end ``reduction`` trace event."""
        return {
            "group_size": len(self.group),
            "symmetry_classes": len(self.classes),
            "orbits_enumerated": len(self._seen),
            "orbit_hits": self.orbit_hits,
            "renamed_hashes_cached": len(self._hashes) * (len(self.group) - 1),
        }
