"""Per-node state records: the sets ``LS_n`` with predecessor pointers.

LMC's entire persistent state is, per node ``n``, the append-only list of
distinct local states discovered so far.  Each state carries:

* predecessor links — "all the last immediate node states as well as the
  executed events on them that led to the current node state" (Fig. 9,
  line 14).  Following the paper's prototype, a link is kept in hash form:
  the predecessor state, the event hash, the hash of the consumed message
  (for network events) and the hashes of the generated messages — exactly
  what the fast soundness replay needs — plus the event value itself so
  confirmed bugs can print readable witness traces.  The store keeps its
  links as integer rows ``(predecessor index, step id, next link)`` in one
  ``array('q')``; a step id names a :class:`SequenceStep` of the space's
  shared :class:`StepTable`, which holds each distinct
  ``(event hash, consumed hash, generated hashes)`` step once.  A record
  holds the offset of its first link (``first_link``), and each row the
  offset of the record's next one, so a record's links read in the order
  they were added.
* ``history`` — the messages already executed along the path that first
  discovered this state (§4.2 "Duplicate messages" rules (i)/(ii)), as an
  ``int`` bitmask over ``I+`` sequence numbers: a message's bit sits at
  the ``seq`` of its value's first copy, and a fault-minted duplicate
  copy's per-copy token at the copy's own ``seq``
  (:class:`~repro.network.monotonic.StoredMessage`).  A message in the
  history is never redelivered to this state or its descendants.  Matching
  the paper's simplification, history is set only at first discovery.
* ``depth`` / ``local_depth`` — events (resp. internal events) on the
  discovery path, for depth bounds and the per-round local-event bound.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterator, List, Optional, Tuple

from repro.model.events import Event
from repro.model.hashing import canonical_and_hash
from repro.model.types import NodeId

#: Integers per link row: predecessor index, step id, next link's offset.
LINK_WIDTH = 3


class SequenceStep:
    """One event of a node sequence, in hash form plus the original event.

    ``event_hash`` is the predecessor pointer's stored hash of the event
    (§4.2), carried for diagnostics and for callers that identify steps
    without touching the event value.  It is optional (``None``) because
    hand-built steps in tests don't need it.
    """

    __slots__ = ("event", "consumed_hash", "generated_hashes", "event_hash")

    def __init__(
        self,
        event: Event,
        consumed_hash: Optional[int],
        generated_hashes: Tuple[int, ...],
        event_hash: Optional[int] = None,
    ):
        self.event = event
        self.consumed_hash = consumed_hash
        self.generated_hashes = generated_hashes
        self.event_hash = event_hash


class StepTable:
    """The distinct steps predecessor links name, each interned once.

    A step is keyed by its event hash, consumed hash and generated hashes;
    the first event value seen under a key is the one witnesses print.
    Thousands of links share a few dozen steps (65 on two-proposal Paxos
    at d=6), so a link row stores a step id instead of the hashes.
    """

    __slots__ = ("steps", "_ids")

    def __init__(self) -> None:
        #: Step id -> :class:`SequenceStep`.
        self.steps: List[SequenceStep] = []
        self._ids: Dict[Tuple[int, Optional[int], Tuple[int, ...]], int] = {}

    def intern(
        self,
        event: Event,
        event_hash: int,
        consumed_hash: Optional[int],
        generated_hashes: Tuple[int, ...],
    ) -> int:
        """The id of this step, filed on first sight."""
        key = (event_hash, consumed_hash, generated_hashes)
        step = self._ids.get(key)
        if step is None:
            step = self._ids[key] = len(self.steps)
            self.steps.append(
                SequenceStep(event, consumed_hash, generated_hashes, event_hash)
            )
        return step


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
        "first_link",
        "seed",
        "discarded",
        "crashed",
        "crashes",
    )

    def __init__(
        self,
        node: NodeId,
        state: object,
        state_hash: int,
        index: int,
        depth: int,
        local_depth: int,
        history: int,
        crashes: int = 0,
        crashed: bool = False,
    ):
        self.node = node
        self.state = state
        self.hash = state_hash
        self.index = index
        self.depth = depth
        self.local_depth = local_depth
        self.history = history
        #: Offset of this record's first link row in its store's ``links``
        #: (-1: none yet).
        self.first_link = -1
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

    def add_predecessor(self, store: "NodeStateStore", prev: int, step: int) -> bool:
        """Record a new way of reaching this state; False if already known.

        ``prev`` is the predecessor's index in ``store`` (-1 for none) and
        ``step`` the id of the event's step in the store's step table.  Same
        predecessor and same event hash is the same link, whatever else the
        step carries.  A record has a handful of links (at most 10 on
        two-proposal Paxos at depth 7), so the check scans them on the way
        to the last one, behind which the new row is chained.
        """
        links, steps = store.links, store.steps.steps
        event_hash = steps[step].event_hash
        last = -1
        link = self.first_link
        while link >= 0:
            if links[link] == prev and steps[links[link + 1]].event_hash == event_hash:
                return False
            last = link
            link = links[link + 2]
        link = len(links)
        links.extend((prev, step, -1))
        store.owners.append(self.index)
        if last < 0:
            self.first_link = link
        else:
            links[last + 2] = link
        return True

    def __repr__(self) -> str:
        return (
            f"NodeStateRecord(node={self.node}, index={self.index}, "
            f"depth={self.depth}, state={self.state!r})"
        )


class NodeStateStore:
    """The set ``LS_n``: append-only distinct states of one node.

    States live in a list in discovery order — the paper's deque, which the
    monotonic network's per-message cursors index into — with a hash index
    for O(1) duplicate detection.  Predecessor links are ``LINK_WIDTH``
    integers each in ``links``, appended in the order they were added.
    """

    def __init__(self, node: NodeId, steps: Optional[StepTable] = None):
        self.node = node
        self.records: List[NodeStateRecord] = []
        self._by_hash: Dict[int, NodeStateRecord] = {}
        #: Link rows: predecessor index (-1: none), step id, offset of the
        #: same record's next link (-1: last).
        self.links = array("q")
        #: The record index of each link row, in row order: the records a
        #: checkpoint segment must revisit are the owners of its new rows.
        self.owners = array("q")
        #: The step table link rows name (shared by a space's stores).
        self.steps = StepTable() if steps is None else steps
        #: Structural version: bumped when a record is added and — via
        #: :meth:`note_link` — when a predecessor pointer lands anywhere in
        #: the store.  The soundness verifier keys its per-record sequence
        #: memo on this, so a memoised path enumeration is reused exactly
        #: until the predecessor DAG could have changed.
        self.version = 0
        #: Indexes of the discarded records, in the order they were
        #: discarded (ascending after a restore).
        self.discards: List[int] = []
        self._active_cache: Optional[Tuple[Tuple[int, int], List[NodeStateRecord]]] = None

    def lookup(self, state_hash: int) -> Optional[NodeStateRecord]:
        """The record with this state hash, if the state was visited."""
        return self._by_hash.get(state_hash)

    def links_of(
        self, record: NodeStateRecord, since: int = 0
    ) -> Iterator[Tuple[int, SequenceStep]]:
        """``record``'s links in the order they were added, as
        ``(predecessor index or -1, step)``; ``since`` skips the rows at
        lower offsets (those ``links`` already held at that length)."""
        links, steps = self.links, self.steps.steps
        link = record.first_link
        while link >= 0:
            if link >= since:
                yield links[link], steps[links[link + 1]]
            link = links[link + 2]

    def note_link(self) -> None:
        """Record that a predecessor pointer was added to some record here."""
        self.version += 1

    def mark_discarded(self, record: NodeStateRecord) -> None:
        """Discard ``record`` (§4.2 assertion policy), keeping caches honest."""
        if not record.discarded:
            record.discarded = True
            self.discards.append(record.index)
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
        key = (len(self.records), len(self.discards))
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
        history: int,
        crashes: int = 0,
        crashed: bool = False,
    ) -> NodeStateRecord:
        """Append a new (unvisited) state; caller must have checked lookup."""
        if state_hash in self._by_hash:
            raise ValueError(f"state already stored for node {self.node}")
        record = NodeStateRecord(
            self.node, state, state_hash, len(self.records), depth, local_depth,
            history, crashes, crashed,
        )
        self.records.append(record)
        self._by_hash[state_hash] = record
        self.version += 1
        return record

    def finalize_restore(self, version: int) -> None:
        """Pin the checkpointed structural version after a restore.

        The restored records and predecessor links bumped ``version`` on
        their own schedule; overwriting it with the
        checkpointed value makes a snapshot→restore→snapshot round trip
        byte-identical, and keeps future bumps aligned with the original
        run.  Discard and active-record caches are recomputed from the
        reinstated flags.
        """
        self.version = version
        self.discards = [record.index for record in self.records if record.discarded]
        self._active_cache = None

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


class LocalStateSpace:
    """All per-node stores: the variable ``LS`` of Fig. 9."""

    def __init__(self, node_ids: Tuple[NodeId, ...]):
        self.node_ids = tuple(node_ids)
        #: The one step table every store's link rows name.
        self.steps = StepTable()
        self.stores: Dict[NodeId, NodeStateStore] = {
            node: NodeStateStore(node, self.steps) for node in self.node_ids
        }

    def store(self, node: NodeId) -> NodeStateStore:
        """The store ``LS_n`` for ``node``."""
        return self.stores[node]

    def seed(self, node: NodeId, state: object) -> NodeStateRecord:
        """Install the live/snapshot state of ``node`` (Fig. 9 lines 3-4)."""
        state, state_hash = canonical_and_hash(state)
        record = self.stores[node].add(
            state, state_hash, depth=0, local_depth=0, history=0
        )
        record.seed = True
        return record

    def total_states(self) -> int:
        """Distinct node states across all nodes (the LMC-local curve)."""
        return sum(len(store) for store in self.stores.values())
