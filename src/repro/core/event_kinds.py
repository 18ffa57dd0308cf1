"""The event-kind table: one row per event family, one gate per sweep.

Fig. 9 is one loop — pick an enabled event, run its handler on a node state,
fold the result into ``LS_n``/``I+`` — and every family the checker
schedules (the paper's delivery and internal events plus the four fault
events of docs/FAULTS.md) goes through it the same way.  What differs per
family is data, and this module is that data:

* :class:`EventKind` rows (:data:`EVENT_KINDS`) say how an executed event
  folds into the successor record — which history entry it leaves, whether
  it is a local step, which fault counter it bumps — and are read by the
  coordinator's executor (``core/checker.py``) and the round speculator
  (``core/explore_parallel.py``);
* :class:`Sweep` rows (:data:`SWEEPS`) say which cursor lanes a round walks
  and carry the *pure* gate deciding what a lane's next record is offered.
  The sweeper applies a gate's side effects; the speculator peeks the same
  gates to guess the round's frontier without advancing anything, and
  ``core/checkpoint.py`` serializes the cursor families by name.

Every handler runs through one execution kernel, :func:`execute`, i.e.
through :meth:`repro.model.protocol.Protocol.execute` — the same dispatch
witness replay trusts — so a step is computed by one code site only, in
the checker's process or in a forked speculation child.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Tuple

from repro.model.events import (
    CrashEvent,
    DeliveryEvent,
    DropEvent,
    DuplicateEvent,
    Event,
    InternalEvent,
    RestartEvent,
    event_hash,
)
from repro.model.hashing import content_hash_and_size
from repro.model.types import LocalAssertionError, NodeId

#: Outcomes of :func:`execute` that produce no successor state: the handler
#: raised a local assertion, or was a no-op.  Also the tags a speculation
#: child ships for them.
ASSERT = "a"
NOOP = "n"


class Transition:
    """An executed event that changed something, with every hash its
    integration needs: the successor's content hash and canonical size from
    one encoding, the event hash and each send's ``(hash, size)``.

    ``state`` and a send's message are ``None`` only in a transition a
    speculation child computed and did not ship them for — the successor
    was already in ``LS_n`` at round start, or the send's copy count was
    already spent — so integration never reads them.
    """

    __slots__ = (
        "event", "event_hash", "state", "state_hash", "state_size", "sends",
        "send_info", "speculated",
    )

    def __init__(
        self,
        event: Event,
        ehash: int,
        state: Any,
        state_hash: int,
        state_size: int,
        sends: Tuple[Any, ...],
        send_info: Tuple[Tuple[int, int], ...],
        speculated: bool = False,
    ):
        self.event = event
        self.event_hash = ehash
        self.state = state
        self.state_hash = state_hash
        self.state_size = state_size
        self.sends = sends
        self.send_info = send_info
        #: Computed by a speculation child: the merge counts the ones whose
        #: successor it finds already stored
        #: (``explore_merge_conflicts_suppressed``).
        self.speculated = speculated


def event_of(row: "EventKind", record: Any, subject: Any) -> Tuple[Event, Optional[int]]:
    """The event offering ``subject`` to ``record`` makes, and its hash when
    already known: a stored message memoises both per family."""
    if row.on_message:
        return subject.event(row)
    return row.make_event(record.node, subject), None


def execute(protocol: Any, row: "EventKind", record: Any, subject: Any) -> Any:
    """The execution kernel: run ``subject`` (a stored message, an action or
    ``None``) on ``record`` as a ``row`` event.

    Returns :data:`ASSERT`, :data:`NOOP`, or the :class:`Transition` of a
    genuine step.
    """
    event, ehash = event_of(row, record, subject)
    state = record.state
    try:
        result = protocol.execute(state, event)
    except LocalAssertionError:
        return ASSERT
    if result.is_noop(state):
        return NOOP
    state_hash, state_size = content_hash_and_size(result.state, by_value=True)
    return Transition(
        event,
        event_hash(event) if ehash is None else ehash,
        result.state,
        state_hash,
        state_size,
        result.sends,
        tuple([content_hash_and_size(m, by_value=True) for m in result.sends]),
    )


@dataclass(frozen=True)
class EventKind:
    """How one event family executes and integrates (a table row)."""

    #: Unique tag: the speculation table key and the stored-message event
    #: memo key.
    tag: str
    event_class: type
    #: The sweep subject is a stored message (else an action, or nothing).
    on_message: bool = False
    #: The successor's history gains the consumed message hash, so the
    #: copy is never offered again along that path (§4.2).
    consumes: bool = False
    #: The successor's history gains the stored copy's per-copy token
    #: ``-(seq + 1)`` — collision-free against the non-negative 64-bit
    #: content hashes — so each admitted duplicate executes at most once
    #: per discovery path instead of chaining one redelivery per successor.
    copy_token: bool = False
    #: ``local_depth`` increment (the §4.2 local-event bound counts these).
    local_step: int = 0
    #: One execution per enabled action of the record, not one per lane.
    fan_out: bool = False
    #: Fault label: the ``fault`` trace event's ``kind`` and the
    #: ``coverage.note_fault`` key; ``None`` for the paper's own events.
    fault: Optional[str] = None
    #: The ``ExplorationStats`` counter a fault transition bumps.
    counter: Optional[str] = None
    #: The successor is a crashed marker record (crash count incremented,
    #: excluded from enumeration, never anchor-checked).
    crashes: bool = False
    #: The successor starts with an empty history: a rebooted process has
    #: no delivery memory, so earlier messages can run again on it.
    reboots: bool = False
    #: Handler coverage is noted (message payload type / action name).
    covered: bool = False
    #: The round speculator precomputes this family in its forked children.
    speculated: bool = False

    def make_event(self, node: NodeId, payload: Any) -> Event:
        """The family's event on ``node``; ``payload`` is the message or
        action, ``None`` for the families whose only subject is the node."""
        return self.event_class(node if payload is None else payload)


DELIVERY = EventKind(
    "d", DeliveryEvent, on_message=True, consumes=True, covered=True, speculated=True
)
INTERNAL = EventKind(
    "i", InternalEvent, local_step=1, fan_out=True, covered=True, speculated=True
)
CRASH = EventKind(
    "c", CrashEvent, fault="crash", counter="fault_crashes", crashes=True,
    speculated=True,
)
RESTART = EventKind(
    "r", RestartEvent, fault="restart", counter="fault_restarts", reboots=True,
    speculated=True,
)
DROP = EventKind(
    "o", DropEvent, on_message=True, consumes=True, fault="drop",
    counter="fault_drops",
)
DUPLICATE = EventKind(
    "u", DuplicateEvent, on_message=True, copy_token=True, fault="duplicate",
    counter="fault_duplicates", covered=True,
)

EVENT_KINDS: Tuple[EventKind, ...] = (
    DELIVERY, INTERNAL, CRASH, RESTART, DROP, DUPLICATE
)

# -- gates -----------------------------------------------------------------------
#
# A gate answers "what is this record offered?" with the :class:`EventKind`
# to run or one of the outcomes below.  Gates are pure — they read the pass
# and mutate nothing — so the sweeper, the speculator's frontier peek and a
# heartbeat can all ask the same question.

#: Nothing to do, now or later (discarded, crashed, already consumed).
SKIP = "skip"
#: The depth budget blocks the record; a depth extension re-offers the pair.
DEFER = "defer"
#: The local-event bound blocks the record; widening restarts from scratch.
BOUND = "bound"
#: A fault cap is spent.  Caps consume-and-drop: the pair gets no fault now
#: or later, exactly like a skip.
CAP = "cap"
#: The message is in the record's history (§4.2 redundant-execution rule).
SEEN = "seen"


def gate_delivery(p: Any, record: Any, stored: Any) -> Any:
    """Deliver ``stored`` to ``record`` (Fig. 9 line 6)?

    A fault-minted duplicate copy exists precisely to bypass the
    at-most-once rule, so a history hit on one redelivers it as a
    :data:`DUPLICATE` step — unless this path already consumed the copy
    (its per-copy token is in the history), which would exceed the
    admitted duplication budget.
    """
    if record.discarded or record.crashed:
        # Crashed markers execute nothing; their messages wait in ``I+``
        # for the restarted state.
        return SKIP
    if p.max_depth is not None and record.depth >= p.max_depth:
        return DEFER
    history = record.history
    if stored.hash in history:
        if stored.duplicate and -(stored.seq + 1) not in history:
            return DUPLICATE
        return SEEN
    return DELIVERY


def gate_local(p: Any, record: Any, _subject: None) -> Any:
    """Expand ``record``'s enabled internal actions (Fig. 9 line 7)?"""
    if record.discarded or record.crashed:
        return SKIP
    if p.max_depth is not None and record.depth >= p.max_depth:
        return DEFER
    bound = p.local_event_bound
    if bound is not None and record.local_depth >= bound:
        return BOUND
    return INTERNAL


def gate_fault(p: Any, record: Any, _subject: None) -> Any:
    """Offer ``record`` its one fault: a restart if crashed, else a crash
    while its discovery path has crash budget left (per-node and global)."""
    if record.discarded:
        return SKIP
    if p.max_depth is not None and record.depth >= p.max_depth:
        return DEFER
    if record.crashed:
        return RESTART
    config = p.config
    if record.crashes >= config.max_crashes_per_node:
        return CAP
    limit = config.max_total_crashes
    if limit is not None and p.stats.fault_crashes >= limit:
        return CAP
    return CRASH


def gate_drop(p: Any, record: Any, stored: Any) -> Any:
    """Lose ``stored`` before ``record`` receives it?

    Eligible pairs are those a delivery would also be offered: a live
    record with depth budget that has not consumed the message yet.
    """
    if record.discarded or record.crashed:
        return SKIP
    if p.max_depth is not None and record.depth >= p.max_depth:
        return DEFER
    if stored.hash in record.history:
        return SKIP
    limit = p.config.max_drops
    if limit is not None and p.stats.fault_drops >= limit:
        return CAP
    return DROP


# -- sweeps ----------------------------------------------------------------------


class Cursor:
    """A lane's sweep position over a node's append-only record list.

    The same ``(cursor, deferred)`` shape
    :class:`~repro.network.monotonic.StoredMessage` carries for the
    delivery sweep: ``cursor`` is the index of the next record to offer,
    ``deferred`` the depth-blocked indexes the cursor passed over — write-
    only bookkeeping in a fixed-bound run, re-offered by a depth extension
    (docs/CHECKPOINTS.md).
    """

    __slots__ = ("cursor", "deferred")

    def __init__(self, cursor: int = 0):
        self.cursor = cursor
        self.deferred: set = set()


def _delivery_lanes(p: Any) -> Iterator[Tuple[Any, Any, Any]]:
    """Each stored message against its destination's records ("by jumping
    over the old states"); the message is its own cursor."""
    for node in p.space.node_ids:
        store = p.space.store(node)
        for stored in p.network.for_destination(node):
            yield stored, store, stored


def _node_lanes(name: str) -> Callable[[Any], Iterator[Tuple[Any, Any, Any]]]:
    """One lane per node, cursors in ``p.cursors[name]`` (set at seeding)."""

    def lanes(p: Any) -> Iterator[Tuple[Any, Any, Any]]:
        cursors = p.cursors[name]
        for node in p.space.node_ids:
            yield cursors[node], p.space.store(node), None

    return lanes


def _drop_lanes(p: Any) -> Iterator[Tuple[Any, Any, Any]]:
    """Each original stored copy against its destination's records, on a
    cursor independent of the delivery sweep's; fault-minted duplicates
    are never dropped."""
    cursors = p.cursors["drop"]
    for node in p.space.node_ids:
        store = p.space.store(node)
        for stored in p.network.for_destination(node):
            if stored.duplicate:
                continue
            cursor = cursors.get(stored.seq)
            if cursor is None:
                # A cursor at 0 with nothing deferred means the same as no
                # cursor, so peeking a lane may create one freely.
                cursor = cursors[stored.seq] = Cursor()
            yield cursor, store, stored


@dataclass(frozen=True)
class Sweep:
    """One cursor sweep of a round (a table row)."""

    #: Cursor-family name: the ``p.cursors`` key and the prefix of the
    #: checkpoint's ``<name>_cursor`` / ``<name>_deferred`` entries.
    name: str
    #: Does this pass run the sweep at all?  Fault sweeps are entirely
    #: absent — not merely inert — when disabled, so the default run is
    #: byte-identical to a build without them.
    active: Callable[[Any], bool]
    #: ``(cursor, store, subject)`` per lane, in sweep order.
    lanes: Callable[[Any], Iterator[Tuple[Any, Any, Any]]]
    gate: Callable[[Any, Any, Any], Any]
    #: ``True``: one cursor per node, created at seeding.  ``False``: one
    #: per stored message, created when first swept.  ``None``: the cursor
    #: rides on the stored message itself.
    per_node: Optional[bool] = None


def _always(_p: Any) -> bool:
    return True


def _drops_on(p: Any) -> bool:
    # The drop sweep only runs against protocols that declare the
    # ``handle_drop`` omission hook: for drop-oblivious protocols a silent
    # omission reaches no state a slower network could not (docs/FAULTS.md).
    return p.config.drop_faults and getattr(p.protocol, "handle_drop", None) is not None


DELIVERY_SWEEP = Sweep("delivery", _always, _delivery_lanes, gate_delivery)
SWEEPS: Tuple[Sweep, ...] = (
    DELIVERY_SWEEP,
    Sweep("local", _always, _node_lanes("local"), gate_local, per_node=True),
    Sweep(
        "fault",
        lambda p: p.config.fault_events_enabled,
        _node_lanes("fault"),
        gate_fault,
        per_node=True,
    ),
    Sweep("drop", _drops_on, _drop_lanes, gate_drop, per_node=False),
)
#: The sweeps whose cursors live in ``p.cursors`` — and in the checkpoint's
#: ``<name>_cursor`` / ``<name>_deferred`` entries.
CURSOR_SWEEPS = tuple(sweep for sweep in SWEEPS if sweep.per_node is not None)
