"""The protocol interface: node behaviour as pure handler functions.

A protocol supplies the paper's two handler relations as pure functions over
immutable node states:

* ``handle_message(state, message)`` — the message handler ``H_M``:
  ``((s1, m), (s2, c))`` becomes ``handle_message(s1, m) == (s2, c)``;
* ``handle_action(state, action)`` — the internal handler ``H_A`` for timers
  and application calls, with ``enabled_actions(state)`` enumerating which
  internal actions are enabled in a given node state (the paper: "the value
  of node state LS_ns determines which of the local events are enabled").

Determinism note (§4.1, footnote 3): each event must deterministically lead
to the same node state, because LMC re-executes event sequences during
soundness verification.  Handlers must therefore be pure; any nondeterminism
(e.g. a random backoff choice) must be folded into the event payload.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, Dict, Optional, Tuple

from repro.model.events import (
    CrashEvent,
    DeliveryEvent,
    DropEvent,
    DuplicateEvent,
    Event,
    InternalEvent,
    RestartEvent,
)
from repro.model.hashing import substitute_node_ids
from repro.model.system_state import SystemState
from repro.model.types import Action, CrashedState, HandlerResult, Message, NodeId


class Protocol(ABC):
    """Behaviour of a distributed system: every node runs this state machine.

    Concrete protocols are *configured* instances (e.g. ``Paxos(num_nodes=3)``)
    whose methods are pure functions of their arguments.  The same instance is
    shared by live runs, the global checker and LMC.
    """

    #: Short machine-readable protocol name used in reports and benchmarks.
    name: str = "protocol"

    @abstractmethod
    def node_ids(self) -> Tuple[NodeId, ...]:
        """The finite set ``N`` of node identifiers, ascending."""

    @abstractmethod
    def initial_state(self, node: NodeId) -> Any:
        """The initial local state of ``node``."""

    @abstractmethod
    def handle_message(self, state: Any, message: Message) -> HandlerResult:
        """Execute the message handler ``H_M`` on ``state``.

        Must be pure and total: a message the node does not care about in
        this state returns ``HandlerResult(state)`` (a no-op).  May raise
        :class:`~repro.model.types.LocalAssertionError` for node-local
        assertion failures (§4.2 "Local assertions").
        """

    @abstractmethod
    def enabled_actions(self, state: Any) -> Tuple[Action, ...]:
        """Internal actions (timers, application calls) enabled in ``state``."""

    @abstractmethod
    def handle_action(self, state: Any, action: Action) -> HandlerResult:
        """Execute the internal handler ``H_A`` on ``state``.

        Same purity/totality contract as :meth:`handle_message`.
        """

    # -- optional hooks (override the method) ---------------------------------

    def durable_state(self, node: NodeId, state: Any) -> Any:
        """The fragment of ``state`` that survives a crash of ``node``.

        The durability contract of docs/FAULTS.md.  The default is
        all-volatile: ``None``, so a crash loses everything.  That is sound
        (it only under-approximates what stable storage would keep) but
        explores harsher recoveries than a deployment with disks.  The
        fragment must be immutable and content-hashable; crashes with equal
        fragments dedupe into one crashed ``LS_n`` entry.
        """
        return None

    def restart_state(self, node: NodeId, durable: Any) -> Any:
        """The state ``node`` boots into when restarted from ``durable``.

        The default reboots from :meth:`initial_state`, discarding the
        ``None`` fragment of the all-volatile :meth:`durable_state`.
        """
        return self.initial_state(node)

    def handle_drop(self, state: Any, message: Message) -> HandlerResult:
        """How ``message.dest`` reacts to never receiving ``message``.

        The omission contract of docs/FAULTS.md: the timeout or
        negative-acknowledgement path a real implementation takes when an
        expected message is lost.  Same purity/totality contract as
        :meth:`handle_message`.  The default is a no-op, and a protocol
        that does not override it is *drop-oblivious*: under the monotonic
        network a silent omission reaches no new state, so the fault
        scheduler mints no :class:`~repro.model.events.DropEvent` for it.
        Replay still dispatches such an event here.
        """
        return HandlerResult(state)

    def symmetry_classes(self) -> Tuple[Tuple[NodeId, ...], ...]:
        """Classes of interchangeable node ids (docs/REDUCTION.md).

        Declaring a class ``(a, b, ...)`` asserts full *equivariance*:
        renaming its members everywhere (initial states, handlers,
        invariant) permutes executions without changing verdicts.  The
        default declares none, so the symmetry reducer stays off.
        """
        return ()

    def rename_state(self, state: Any, mapping: Dict[NodeId, NodeId]) -> Any:
        """``state`` under the node renaming ``mapping``.

        The default is the generic walker
        :func:`~repro.model.hashing.substitute_node_ids`, which rewrites
        every int equal to a mapped id.  A protocol whose states hold other
        ints that can collide with node ids (a Paxos ballot's proposer is
        an int like any other) must override this.
        """
        return substitute_node_ids(state, mapping)

    def coverage_message_types(self) -> Optional[Tuple[str, ...]]:
        """Payload type names the protocol declares as its message universe.

        Names are payload ``type(...).__name__`` strings, exactly what the
        coverage tracker records (docs/OBSERVABILITY.md).  The default,
        ``None``, declares nothing: coverage reports then show what ran but
        cannot show what was missed.
        """
        return None

    def coverage_action_names(self) -> Optional[Tuple[str, ...]]:
        """Internal action names the protocol declares as its universe.

        Same contract as :meth:`coverage_message_types`.
        """
        return None

    # -- provided conveniences -------------------------------------------------

    def initial_system_state(self) -> SystemState:
        """The system state in which every node is in its initial state."""
        return SystemState({node: self.initial_state(node) for node in self.node_ids()})

    def execute(self, state: Any, event: Event) -> HandlerResult:
        """Dispatch an event to the handler or hook that executes it.

        Every checker, witness replay and live run executes events here.
        Crash and restart are handled here rather than by a handler: a
        crash wraps the node's :meth:`durable_state` in a
        :class:`~repro.model.types.CrashedState`, and a restart boots the
        node from :meth:`restart_state`.  Neither sends messages.

        Raises :class:`ValueError` for a restart of a state that is not
        crashed and for an event of unknown type.  Both are checker bugs,
        not protocol bugs.
        """
        if isinstance(event, DeliveryEvent):
            return self.handle_message(state, event.message)
        if isinstance(event, InternalEvent):
            return self.handle_action(state, event.action)
        if isinstance(event, CrashEvent):
            durable = self.durable_state(event.node, state)
            return HandlerResult(CrashedState(node=event.node, durable=durable))
        if isinstance(event, RestartEvent):
            if not isinstance(state, CrashedState):
                raise ValueError(
                    f"restart of node {event.node} which is not crashed: {state!r}"
                )
            return HandlerResult(self.restart_state(event.node, state.durable))
        if isinstance(event, DropEvent):
            return self.handle_drop(state, event.message)
        if isinstance(event, DuplicateEvent):
            return self.handle_message(state, event.message)
        raise ValueError(f"unknown event type: {event!r}")

    def num_nodes(self) -> int:
        """Number of nodes in this configuration."""
        return len(self.node_ids())


class ProtocolConfigError(ValueError):
    """A protocol was instantiated with an unusable configuration."""


def broadcast(src: NodeId, targets: Tuple[NodeId, ...], payload: Any) -> Tuple[Message, ...]:
    """Messages carrying ``payload`` from ``src`` to each target, in id order.

    Broadcast is the dominant send pattern in the chatty protocols the paper
    targets (Prepare/Accept/Learn in Paxos all broadcast); centralising it
    keeps emission order deterministic.
    """
    return tuple([Message(dest, src, payload) for dest in sorted(targets)])
