"""The shared monotonic network ``I+`` of local model checking (§4, Fig. 8).

LMC keeps one single network object for the whole exploration.  Messages
generated by *any* transition are added; **nothing is ever removed** — the
monotonic abstraction (related work traces it to Dolev-Yao attacker models)
that makes the search complete: a message must remain available so it can be
delivered to node states discovered later.

Each stored message additionally carries a *cursor*: "each message keeps
track of the number of node states on which it has been executed.  Therefore,
in each round, each message is checked only on the newly added states, by
jumping over the old states" (§4.2).  The cursor indexes into the destination
node's append-only state list maintained by the LMC core.

Duplicate sends are suppressed up to a configurable limit (§4.2 "Duplicate
messages": "we have put a limit on the number of duplicate messages sent from
a source to a destination node.  This limit is set to zero for the results
reported in this paper").  With limit 0 a message value equal to one already
in ``I+`` is dropped (and counted); limit ``k`` admits ``k`` extra copies —
useless for reaching new states (``I+`` is a set for delivery purposes) but
kept faithful to the knob so its cost can be measured.
"""

from __future__ import annotations

from array import array
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.model.events import Event, event_hash
from repro.model.hashing import content_hash
from repro.model.types import Message, NodeId


class StoredMessage:
    """A message in ``I+`` together with its delivery cursor.

    ``cursor`` is the number of destination-node states this message has
    already been executed on; the LMC core advances it after each sweep so
    the message is only tried on newly discovered states.

    ``deferred`` holds destination-record indexes the cursor passed over
    *without executing* because the depth budget blocked the record.  The
    cursor discipline alone would lose those pairs forever; keeping them
    lets a depth-extended run (docs/CHECKPOINTS.md) re-offer exactly the
    work a larger bound unblocks, instead of re-exploring from scratch.  The
    sweep only ever appends an index past every earlier one, so an
    ``array('q')`` holds them in ascending order at 8 bytes each.  In a
    fixed-bound run the array is write-only bookkeeping — nothing in it
    ever becomes eligible — so counters and verdicts are unchanged.

    ``duplicate`` marks a fault-minted copy admitted by the duplication
    scheduler (docs/FAULTS.md): its deliveries bypass the at-most-once
    history skip and integrate as
    :class:`~repro.model.events.DuplicateEvent` steps.  Always ``False``
    when ``duplicate_faults`` is off.

    ``bit`` is the message's bit in a record's history mask
    (:mod:`repro.core.records`): the ``seq`` of its value's first copy, so
    every copy of one value shares it.  A fault-minted copy is never a
    first copy, so its own ``seq`` bit is free for its per-copy token.

    :meth:`event` memoises, per event family, the event this message makes
    and its hash: every delivery of the copy reuses one event object instead
    of minting and re-hashing a fresh one.  Derived state, never
    checkpointed.
    """

    __slots__ = (
        "message", "hash", "seq", "bit", "cursor", "deferred", "duplicate", "_events"
    )

    def __init__(
        self, message: Message, msg_hash: int, seq: int, bit: Optional[int] = None
    ):
        self.message = message
        self.hash = msg_hash
        self.seq = seq
        self.bit = seq if bit is None else bit
        self.cursor = 0
        self.deferred = array("q")
        self.duplicate = False
        self._events: Dict[str, Tuple[Event, int]] = {}

    def event(self, kind: Any) -> Tuple[Event, int]:
        """The event ``kind`` (an event-family row with a ``tag`` and a
        ``make_event``) makes of this message, and its content hash."""
        pair = self._events.get(kind.tag)
        if pair is None:
            event = kind.make_event(self.message.dest, self.message)
            pair = self._events[kind.tag] = (event, event_hash(event))
        return pair

    def __repr__(self) -> str:
        return f"StoredMessage(#{self.seq} {self.message.describe()} cursor={self.cursor})"


class MonotonicNetwork:
    """The grow-only shared network ``I+``.

    Unlike the consuming ``I`` a :class:`~repro.model.system_state.GlobalState`
    carries, this object is mutable — it is checker-internal bookkeeping, not
    part of any explored state — but it only ever grows, which is what the
    completeness argument of §4 relies on.
    """

    def __init__(self, duplicate_limit: int = 0):
        if duplicate_limit < 0:
            raise ValueError("duplicate_limit must be >= 0")
        self.duplicate_limit = duplicate_limit
        self._by_dest: Dict[NodeId, List[StoredMessage]] = {}
        self._copies: Dict[int, int] = {}  # message hash -> stored copies
        #: Stored messages in admission order; index equals ``seq``, so
        #: :meth:`messages_since` is a plain slice.
        self._log: List[StoredMessage] = []
        self._seq = 0
        self._suppressed_duplicates = 0

    # -- growth ------------------------------------------------------------

    def add(self, message: Message) -> Optional[StoredMessage]:
        """Add ``message`` to ``I+``; return its record, or None if suppressed.

        A message equal to one already stored counts as a duplicate and is
        admitted only while the per-value copy count is within
        ``1 + duplicate_limit``.
        """
        return self.add_hashed(message, content_hash(message))

    def add_hashed(
        self, message: Optional[Message], msg_hash: int
    ) -> Optional[StoredMessage]:
        """:meth:`add` with the content hash already computed.

        The checker's execution kernel hashes a handler's sends once, in
        this process or in a forked speculation child; the hash is trusted.
        A ``message`` of ``None`` stands for a value :meth:`admits` refused
        earlier: copy counts only grow, so it is suppressed without being
        read.
        """
        copies = self._copies.get(msg_hash, 0)
        if copies >= 1 + self.duplicate_limit:
            # Already at the admissible number of copies (1 original plus
            # ``duplicate_limit`` duplicates).
            self._suppressed_duplicates += 1
            return None
        return self._append(message, msg_hash, copies)

    def _append(self, message: Message, msg_hash: int, copies: int) -> StoredMessage:
        """Store one more copy of a value ``copies`` copies are stored of."""
        lane = self._by_dest.setdefault(message.dest, [])
        bit = self._seq
        if copies:
            # A later copy's history bit is its first copy's; copies only
            # exist under duplication, so the scan is off the common path.
            bit = next(stored.bit for stored in lane if stored.hash == msg_hash)
        stored = StoredMessage(message, msg_hash, self._seq, bit)
        self._seq += 1
        self._copies[msg_hash] = copies + 1
        lane.append(stored)
        self._log.append(stored)
        return stored

    def admits(self, msg_hash: int) -> bool:
        """Would a send with this hash be stored now (copy count below
        ``1 + duplicate_limit``)?"""
        return self._copies.get(msg_hash, 0) < 1 + self.duplicate_limit

    def add_all(self, messages: Tuple[Message, ...]) -> Tuple[StoredMessage, ...]:
        """Add several messages; return the records of those actually stored."""
        stored = []
        for message in messages:
            record = self.add(message)
            if record is not None:
                stored.append(record)
        return tuple(stored)

    # -- restore (docs/CHECKPOINTS.md) ---------------------------------------

    def restore(
        self,
        entries: Iterable[Tuple[Message, int, int, Iterable[int], bool]],
        suppressed_duplicates: int,
    ) -> None:
        """Rebuild ``I+`` from checkpointed ``(message, hash, cursor,
        deferred, duplicate)`` rows, in admission (``seq``) order.

        Only valid on a freshly constructed network.  Duplicate suppression
        is *not* re-applied: every row was admitted by the original run, so
        the copy counts are reinstated as-is and the suppression counter is
        restored to its checkpointed value.
        """
        if self._log:
            raise ValueError("restore requires an empty network")
        for message, msg_hash, cursor, deferred, duplicate in entries:
            stored = self._append(message, msg_hash, self._copies.get(msg_hash, 0))
            stored.cursor = cursor
            stored.deferred = array("q", deferred)
            stored.duplicate = duplicate
        self._suppressed_duplicates = suppressed_duplicates

    # -- queries ------------------------------------------------------------

    def for_destination(self, node: NodeId) -> Tuple[StoredMessage, ...]:
        """All stored messages destined to ``node``, in arrival order."""
        return tuple(self._by_dest.get(node, ()))

    def messages_since(self, seq: int) -> Tuple[StoredMessage, ...]:
        """Stored messages admitted at or after ``seq``, in admission order.

        The monotone ``I+`` delta: because nothing is ever removed, a reader
        that has seen everything below ``seq`` is brought fully up to date by
        exactly this slice (the duplication scheduler's and the checkpoint
        log's reader).
        """
        return tuple(self._log[seq:])

    @property
    def high_water(self) -> int:
        """The next sequence number to be assigned (== stored message count)."""
        return self._seq

    @property
    def suppressed_duplicates(self) -> int:
        """How many sends were dropped by the duplicate limit."""
        return self._suppressed_duplicates

    def __len__(self) -> int:
        return self._seq

    def __repr__(self) -> str:
        return (
            f"MonotonicNetwork(messages={self._seq}, "
            f"suppressed={self._suppressed_duplicates})"
        )
