"""Core value types of the distributed-system model (Fig. 5 of the paper).

The paper models a distributed system as a set of nodes ``N``, node states
``S``, message contents ``M`` and internal actions ``A``.  An in-flight
message is a pair ``(destination, content)``; the content carries the sender
and the protocol payload.  Everything the model checker touches must be
immutable and content-hashable, so all types in this module are frozen.

Protocol authors define their payloads as frozen dataclasses (or any
immutable, hashable value) and wrap them in :class:`Message` /
:class:`Action`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, NamedTuple, Tuple

#: A node identifier.  The paper uses an abstract finite set ``N`` (think IP
#: addresses); small non-negative integers are sufficient and keep states
#: cheap to hash and order.
NodeId = int


@dataclass(frozen=True, order=True)
class Message:
    """An in-flight network message: the pair ``(N, M)`` of the paper.

    ``dest`` is the destination node.  ``src`` and ``payload`` together form
    the remaining message content ``M`` ("including sender node information
    and message body").

    Messages are pure values: sending the "same" message twice yields two
    equal :class:`Message` objects.  Networks that must distinguish duplicate
    sends (e.g. the consuming network of global model checking, which is a
    multiset) track multiplicity themselves.
    """

    dest: NodeId
    src: NodeId
    payload: Any

    def describe(self) -> str:
        """Human-readable one-line rendering used in logs and bug reports."""
        name = type(self.payload).__name__
        return f"{name}({self.src}->{self.dest}: {self.payload!r})"


@dataclass(frozen=True, order=True)
class Action:
    """An internal node action ``a ∈ A`` — a timer firing or application call.

    ``node`` is the node on which the action executes; ``name`` identifies the
    handler; ``payload`` carries optional immutable arguments (e.g. the value
    an application driver asks the node to propose).
    """

    node: NodeId
    name: str
    payload: Any = None

    def describe(self) -> str:
        """Human-readable one-line rendering used in logs and bug reports."""
        if self.payload is None:
            return f"{self.name}@{self.node}"
        return f"{self.name}@{self.node}({self.payload!r})"


#: The messages a handler emits: the set ``c`` in the handler signature
#: ``((s1, e), (s2, c))``.  Order is preserved for determinism but carries no
#: semantic meaning (the network decides delivery order).
SendSet = Tuple[Message, ...]


class HandlerResult(NamedTuple):
    """Outcome of running a message or action handler on a node state.

    ``state`` is the successor node state ``s2`` and ``sends`` the emitted
    message set ``c``.  A handler that ignores its input returns the input
    state unchanged with no sends; the checkers detect this (``state`` equal
    to the pre-state and ``sends`` empty) and avoid minting spurious
    transitions.

    A named tuple because one is built per handler run and a tuple is the
    cheapest immutable pair; like any tuple it also equals the plain
    ``(state, sends)``.
    """

    state: Any
    sends: SendSet = ()

    def is_noop(self, previous_state: Any) -> bool:
        """True when the handler neither changed state nor sent messages.

        A handler that ignores its input returns that very object, so
        identity answers before a field-by-field ``==``.
        """
        return not self.sends and (
            self.state is previous_state or self.state == previous_state
        )


@dataclass(frozen=True)
class CrashedState:
    """The local state of a node that is down (between crash and restart).

    ``durable`` is the protocol's durable fragment of the pre-crash state
    (:meth:`repro.model.protocol.Protocol.durable_state`; ``None`` for
    all-volatile protocols).  A crashed node executes no handlers and
    appears in no invariant-checked system state — its only enabled event
    is the :class:`~repro.model.events.RestartEvent` that boots it again.
    Content-hashable like every model value, so crashes from states with
    equal durable fragments dedupe into one ``LS_n`` entry.
    """

    node: NodeId
    durable: Any = None

    def describe(self) -> str:
        """Human-readable one-line rendering used in logs and bug reports."""
        return f"crashed(node={self.node}, durable={self.durable!r})"


class LocalAssertionError(AssertionError):
    """A node-local assertion failed while executing a handler (§4.2).

    In LMC a local assertion failure is ambiguous: either the node state the
    message was (conservatively) delivered to is invalid, or the protocol has
    a genuine bug.  Following the paper, the local checker treats it as
    evidence of an invalid node state and discards the resulting state; the
    global checker, whose states are all valid, reports it as a bug.
    """

    def __init__(self, message: str, node: NodeId | None = None):
        super().__init__(message)
        self.node = node


def local_assert(condition: bool, message: str, node: NodeId | None = None) -> None:
    """Raise :class:`LocalAssertionError` when ``condition`` is false.

    Protocol handlers call this instead of the bare ``assert`` statement so
    that the checkers can intercept the failure and apply the paper's
    discard-the-node-state policy.
    """
    if not condition:
        raise LocalAssertionError(message, node=node)
