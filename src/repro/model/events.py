"""Events: the things a model checker schedules.

A transition of the Fig. 5 system executes exactly one *event* on one node —
either the delivery of an in-flight message (running the message handler
``H_M``) or an internal action such as a timer or application call (running
``H_A``).  Both checkers in this library — the global B-DFS baseline and the
local LMC — schedule values of the :class:`Event` union defined here, and
LMC's predecessor pointers store event *hashes* alongside the hashes of the
messages each event generated (§4.2).

Beyond the paper's event vocabulary, the LMC fault scheduler
(docs/FAULTS.md) schedules four *fault* events: :class:`CrashEvent` stops a
node (volatile state is lost, the durable fragment survives) and
:class:`RestartEvent` boots it again from its durable fragment.  Crash and
restart events touch no network — crucially, under the monotonic ``I+`` a
crashed node's in-flight messages stay available, which is exactly what
makes crash faults cheap to add to LMC — and behave as local events during
soundness replay (always enabled, consuming and generating nothing).
:class:`DropEvent` marks one stored copy of a message as never-deliverable
to its destination (the destination may run an optional ``handle_drop``
timeout hook); it *consumes* the message hash during soundness replay, so a
dropped copy can never also be delivered along the same witness.
:class:`DuplicateEvent` is the redelivery of a fault-minted duplicate copy
admitted through the network's ``duplicate_limit`` path; the copy has no
generating handler of its own, so the event replays as a local step
(consuming nothing) whose sends are the handler's sends.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union, get_args

from repro.model.hashing import content_hash
from repro.model.types import Action, Message, NodeId


@dataclass(frozen=True, order=True)
class _MessageEvent:
    """Shape base: an event about ``message``, executing on its destination.

    Subclasses name their serialisation tag (``KIND``) and the verb their
    :meth:`describe` line starts with (``VERB``).
    """

    message: Message

    @property
    def node(self) -> NodeId:
        """The node on which the event executes (the message destination)."""
        return self.message.dest

    def describe(self) -> str:
        """Human-readable rendering used in logs and counterexamples."""
        return f"{self.VERB} {self.message.describe()}"


@dataclass(frozen=True, order=True)
class _NodeEvent:
    """Shape base: an event whose only subject is the ``node`` it runs on."""

    node: NodeId

    def describe(self) -> str:
        """Human-readable rendering used in logs and counterexamples."""
        return f"{self.VERB} node {self.node}"


@dataclass(frozen=True, order=True)
class DeliveryEvent(_MessageEvent):
    """Delivery of ``message`` to its destination node (a network event)."""

    KIND = "deliver"
    VERB = "deliver"


@dataclass(frozen=True, order=True)
class InternalEvent:
    """Execution of internal action ``action`` on its node (a local event)."""

    action: Action

    KIND = "action"

    @property
    def node(self) -> NodeId:
        """The node on which the event executes."""
        return self.action.node

    def describe(self) -> str:
        """Human-readable rendering used in logs and counterexamples."""
        return f"run {self.action.describe()}"


@dataclass(frozen=True, order=True)
class CrashEvent(_NodeEvent):
    """Crash of a node: its volatile state is lost (a fault event).

    The successor node state is a :class:`~repro.model.types.CrashedState`
    carrying only the protocol's durable fragment
    (:func:`repro.protocols.common.durable_projection`).  Messages the node
    already sent are unaffected — the monotonic network never forgets.
    """

    KIND = "crash"
    VERB = "crash"


@dataclass(frozen=True, order=True)
class RestartEvent(_NodeEvent):
    """Restart of a crashed node from its durable fragment (a fault event).

    The successor node state is
    :func:`repro.protocols.common.restart_state` applied to the durable
    fragment the matching :class:`CrashEvent` preserved — a fresh boot with
    only the protocol's declared durable fields recovered.
    """

    KIND = "restart"
    VERB = "restart"


@dataclass(frozen=True, order=True)
class DropEvent(_MessageEvent):
    """Loss of ``message`` before delivery to its destination (a fault event).

    Executes on the destination node: the protocol's optional
    ``handle_drop`` hook (docs/FAULTS.md) models the timeout/negative-
    acknowledgement path a real implementation takes when an expected
    message never arrives.  During soundness replay the event *consumes*
    the message hash — the message must have been generated before it can
    be lost, and consuming the per-destination copy excludes
    drop-then-deliver of the same copy along one witness.
    """

    KIND = "drop"
    VERB = "drop"


@dataclass(frozen=True, order=True)
class DuplicateEvent(_MessageEvent):
    """Redelivery of a fault-minted duplicate of ``message`` (a fault event).

    The duplicate copy was admitted through the monotonic network's
    ``duplicate_limit`` path and runs the ordinary message handler a second
    time.  The copy has no generating handler of its own, so during
    soundness replay the event behaves as a local step: it consumes nothing
    and generates the handler's sends.
    """

    KIND = "duplicate"
    VERB = "redeliver"


Event = Union[
    DeliveryEvent, InternalEvent, CrashEvent, RestartEvent, DropEvent, DuplicateEvent
]

#: Each event class by its ``KIND``, the tag :mod:`repro.persistence` writes.
EVENT_TYPES = {cls.KIND: cls for cls in get_args(Event)}

#: The fault-event types the LMC fault scheduler mints (docs/FAULTS.md).
FAULT_EVENT_TYPES = (CrashEvent, RestartEvent, DropEvent, DuplicateEvent)


def is_fault_event(event: Event) -> bool:
    """True for the crash/restart/drop/duplicate events of the fault scheduler."""
    return isinstance(event, FAULT_EVENT_TYPES)


def event_hash(event: Event) -> int:
    """Stable content hash of an event.

    LMC stores these in predecessor pointers instead of the events themselves
    ("Instead of the actual event, its hash is added into the predecessor
    pointers", §4.2).  This module hashes the full event value; the hash of a
    delivery event therefore coincides for duplicate sends of an equal
    message, exactly as in the paper's prototype.  Checkers mint a fresh
    event object per execution, so repeat hashes are answered by the value
    memo in :mod:`repro.model.hashing` without re-encoding.
    """
    return content_hash(event, by_value=True)


def message_hashes(messages: Tuple[Message, ...]) -> Tuple[int, ...]:
    """Hashes of a handler's generated messages, in emission order.

    These are the values stored next to each predecessor pointer so the
    soundness replay can maintain its generated-message set ``net`` with
    integer operations only.  Handlers re-send equal messages as fresh
    objects along many interleavings; the value memo in
    :mod:`repro.model.hashing` encodes each distinct one once.
    """
    if not messages:
        return ()
    return tuple(content_hash(message, by_value=True) for message in messages)
