"""Per-node state records: the sets ``LS_n`` with predecessor pointers.

LMC's entire persistent state is, per node ``n``, the append-only list of
distinct local states discovered so far.  Each state carries:

* ``predecessors`` — "all the last immediate node states as well as the
  executed events on them that led to the current node state" (Fig. 9,
  line 14).  Following the paper's prototype, a link stores *hashes*: the
  predecessor state hash, the event hash, the hash of the consumed message
  (for network events) and the hashes of the generated messages — exactly
  what the fast soundness replay needs.  We additionally retain the event
  value itself so confirmed bugs can print readable witness traces.
* ``history`` — the hashes of messages already executed along the path that
  first discovered this state (§4.2 "Duplicate messages" rules (i)/(ii)):
  a message in the history is never redelivered to this state or its
  descendants.  Matching the paper's simplification, history is set only at
  first discovery.
* ``depth`` / ``local_depth`` — events (resp. internal events) on the
  discovery path, for depth bounds and the per-round local-event bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.model.events import Event
from repro.model.hashing import canonical_hash_and_size, content_size
from repro.model.types import NodeId

#: Deterministic memory model: bytes charged per predecessor link (five
#: 64-bit hashes plus container overhead) and per history entry.
LINK_BYTES = 48
HISTORY_ENTRY_BYTES = 8
INDEX_ENTRY_BYTES = 16


@dataclass(frozen=True)
class PredecessorLink:
    """One way of reaching a node state: predecessor + event + message hashes.

    ``prev_hash`` is ``None`` for the initial (live) state, which has no
    predecessor.  ``consumed_hash`` is the hash of the delivered message for
    network events and ``None`` for internal events.  ``generated_hashes``
    are the hashes of the messages the handler emitted, in emission order.

    Every transition mints one, so the class declares ``__slots__`` by hand
    (``dataclass(slots=True)`` needs Python 3.10) and its instances carry
    no ``__dict__``.
    """

    __slots__ = ("prev_hash", "event", "event_hash", "consumed_hash", "generated_hashes")

    prev_hash: Optional[int]
    event: Event
    event_hash: int
    consumed_hash: Optional[int]
    generated_hashes: Tuple[int, ...]

    def __reduce__(self):
        # Frozen and slotted: copy and pickle rebuild through __init__
        # instead of assigning the slots one by one.
        return (PredecessorLink, tuple(getattr(self, name) for name in self.__slots__))


class NodeStateRecord:
    """A visited local state of one node, with discovery metadata."""

    __slots__ = (
        "node",
        "state",
        "hash",
        "index",
        "depth",
        "local_depth",
        "history",
        "predecessors",
        "seed",
        "discarded",
        "crashed",
        "crashes",
        "state_size",
    )

    def __init__(
        self,
        node: NodeId,
        state: object,
        state_hash: int,
        index: int,
        depth: int,
        local_depth: int,
        history: FrozenSet[int],
        crashes: int = 0,
        crashed: bool = False,
        state_size: Optional[int] = None,
    ):
        self.node = node
        self.state = state
        self.hash = state_hash
        self.index = index
        self.depth = depth
        self.local_depth = local_depth
        self.history = history
        self.predecessors: List[PredecessorLink] = []
        #: True for the live/snapshot state the search was seeded with; seed
        #: states are where backward path enumeration terminates.
        self.seed = False
        #: True once a local assertion fired on this state under the
        #: "discard" policy (§4.2): the state is deemed invalid and excluded
        #: from further event execution and from system-state combinations.
        self.discarded = False
        #: True when ``state`` is a :class:`~repro.model.types.CrashedState`
        #: marker minted by the fault scheduler (docs/FAULTS.md).  A crashed
        #: record executes no events (only a restart applies to it) and never
        #: joins an invariant-checked system state.  Immutable after
        #: construction, so the active-record cache key stays valid.
        self.crashed = crashed
        #: Crash events on the discovery path that first reached this state
        #: (like ``depth``/``local_depth``, frozen at first discovery — the
        #: paper's simplification).  Bounded by ``max_crashes_per_node``.
        self.crashes = crashes
        #: Canonical-encoding size of ``state``, when a caller already knows
        #: it (parallel-exploration workers ship it next to the hash so the
        #: coordinator's memory accounting never re-encodes a shipped state);
        #: computed lazily — and then cached — otherwise.
        self.state_size = state_size

    def add_predecessor(self, link: PredecessorLink) -> bool:
        """Record a new way of reaching this state; False if already known.

        Same predecessor and same event is the same link.  A record has a
        handful of links (at most 10 on two-proposal Paxos at depth 7), so
        the check scans them instead of keeping a key set per record.
        """
        prev_hash, event_hash = link.prev_hash, link.event_hash
        for known in self.predecessors:
            if known.event_hash == event_hash and known.prev_hash == prev_hash:
                return False
        self.predecessors.append(link)
        return True

    @property
    def is_initial(self) -> bool:
        """True for the live/snapshot state LMC was started from."""
        return self.seed

    def retained_bytes(self) -> int:
        """Deterministic memory footprint of this record."""
        size = self.state_size
        if size is None:
            size = self.state_size = content_size(self.state)
        return (
            size
            + INDEX_ENTRY_BYTES
            + LINK_BYTES * len(self.predecessors)
            + HISTORY_ENTRY_BYTES * len(self.history)
        )

    def __repr__(self) -> str:
        return (
            f"NodeStateRecord(node={self.node}, index={self.index}, "
            f"depth={self.depth}, links={len(self.predecessors)}, "
            f"state={self.state!r})"
        )


class NodeStateStore:
    """The set ``LS_n``: append-only distinct states of one node.

    States live in a list in discovery order — the paper's deque, which the
    monotonic network's per-message cursors index into — with a hash index
    for O(1) duplicate detection.
    """

    def __init__(self, node: NodeId):
        self.node = node
        self.records: List[NodeStateRecord] = []
        self._by_hash: Dict[int, NodeStateRecord] = {}
        #: Structural version: bumped when a record is added and — via
        #: :meth:`note_link` — when a predecessor pointer lands anywhere in
        #: the store.  The soundness verifier keys its per-record sequence
        #: memo on this, so a memoised path enumeration is reused exactly
        #: until the predecessor DAG could have changed.
        self.version = 0
        self._discards = 0
        self._active_cache: Optional[Tuple[Tuple[int, int], List[NodeStateRecord]]] = None

    def lookup(self, state_hash: int) -> Optional[NodeStateRecord]:
        """The record with this state hash, if the state was visited."""
        return self._by_hash.get(state_hash)

    def note_link(self) -> None:
        """Record that a predecessor pointer was added to some record here."""
        self.version += 1

    def mark_discarded(self, record: NodeStateRecord) -> None:
        """Discard ``record`` (§4.2 assertion policy), keeping caches honest."""
        if not record.discarded:
            record.discarded = True
            self._discards += 1
            self._active_cache = None

    def active_records(self) -> List[NodeStateRecord]:
        """Non-discarded, non-crashed records in discovery order, cached.

        System-state enumeration reads this list once per new anchor; the
        cache is invalidated by growth or discards, so steady-state rounds
        stop rebuilding an O(states) list per enumeration.  Crashed marker
        records are excluded here — a down node joins no invariant-checked
        system state — and since ``crashed`` is immutable after construction
        the (length, discards) cache key needs no extra component.
        """
        key = (len(self.records), self._discards)
        cached = self._active_cache
        if cached is not None and cached[0] == key:
            return cached[1]
        active = [
            record
            for record in self.records
            if not record.discarded and not record.crashed
        ]
        self._active_cache = (key, active)
        return active

    def add(
        self,
        state: object,
        state_hash: int,
        depth: int,
        local_depth: int,
        history: FrozenSet[int],
        crashes: int = 0,
        crashed: bool = False,
        state_size: Optional[int] = None,
    ) -> NodeStateRecord:
        """Append a new (unvisited) state; caller must have checked lookup."""
        if state_hash in self._by_hash:
            raise ValueError(f"state already stored for node {self.node}")
        record = NodeStateRecord(
            node=self.node,
            state=state,
            state_hash=state_hash,
            index=len(self.records),
            depth=depth,
            local_depth=local_depth,
            history=history,
            crashes=crashes,
            crashed=crashed,
            state_size=state_size,
        )
        self.records.append(record)
        self._by_hash[state_hash] = record
        self.version += 1
        return record

    def restore_record(
        self,
        state: object,
        state_hash: int,
        depth: int,
        local_depth: int,
        history: FrozenSet[int],
        crashes: int,
        crashed: bool,
        seed: bool,
        discarded: bool,
        state_size: Optional[int],
    ) -> NodeStateRecord:
        """Reinstate one checkpointed record (docs/CHECKPOINTS.md).

        Appends like :meth:`add` but also reinstates the flags ``add``
        leaves to the checker (``seed``, ``discarded``).  The caller
        replays predecessor links afterwards and then calls
        :meth:`finalize_restore` to pin the structural version.
        """
        record = self.add(
            state,
            state_hash,
            depth=depth,
            local_depth=local_depth,
            history=history,
            crashes=crashes,
            crashed=crashed,
            state_size=state_size,
        )
        record.seed = seed
        record.discarded = discarded
        return record

    def finalize_restore(self, version: int) -> None:
        """Pin the checkpointed structural version after a restore.

        :meth:`restore_record` and the replayed predecessor links bumped
        ``version`` on their own schedule; overwriting it with the
        checkpointed value makes a snapshot→restore→snapshot round trip
        byte-identical, and keeps future bumps aligned with the original
        run.  Discard and active-record caches are recomputed from the
        reinstated flags.
        """
        self.version = version
        self._discards = sum(1 for record in self.records if record.discarded)
        self._active_cache = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def retained_bytes(self) -> int:
        """Deterministic memory footprint of the whole store."""
        return sum(record.retained_bytes() for record in self.records)


class LocalStateSpace:
    """All per-node stores: the variable ``LS`` of Fig. 9."""

    def __init__(self, node_ids: Tuple[NodeId, ...]):
        self.node_ids = tuple(node_ids)
        self.stores: Dict[NodeId, NodeStateStore] = {
            node: NodeStateStore(node) for node in self.node_ids
        }

    def store(self, node: NodeId) -> NodeStateStore:
        """The store ``LS_n`` for ``node``."""
        return self.stores[node]

    def seed(self, node: NodeId, state: object) -> NodeStateRecord:
        """Install the live/snapshot state of ``node`` (Fig. 9 lines 3-4)."""
        state, state_hash, _ = canonical_hash_and_size(state)
        record = self.stores[node].add(
            state, state_hash, depth=0, local_depth=0, history=frozenset()
        )
        record.seed = True
        return record

    def total_states(self) -> int:
        """Distinct node states across all nodes (the LMC-local curve)."""
        return sum(len(store) for store in self.stores.values())

    def max_depth(self) -> int:
        """Deepest discovery depth of any node state."""
        depth = 0
        for store in self.stores.values():
            for record in store:
                if record.depth > depth:
                    depth = record.depth
        return depth

    def retained_bytes(self) -> int:
        """Deterministic memory footprint across nodes."""
        return sum(store.retained_bytes() for store in self.stores.values())
