"""FIFO (simulated-TCP) wrapping of arbitrary protocols — the §4.3 idea.

"Although, TCP could be considered as part of the protocol stack, in
practice this is not efficient, and TCP is usually simulated in the model
checker.  To do so, LMC implementation should be also augmented to benefit
from the fact that reordered messages in a connection will eventually be
rejected by TCP and could, hence, be ignored, saving some unnecessary
handler executions in the model checker."

:class:`FifoStampedProtocol` wraps any protocol: outgoing messages are
stamped with per-``(src, dest)`` sequence numbers and the receiver tracks
per-channel delivery counters.  Two modes:

* ``reject`` — an out-of-order delivery is a no-op (the §4.3 optimisation).
  Designed for **LMC**, whose monotonic network re-offers the message to the
  later node states whose counters have caught up; under consuming (global)
  semantics a rejected message would be lost, so the global checker should
  use ``reassemble`` instead.
* ``reassemble`` — out-of-order messages are buffered in the node state and
  flushed in order, an explicit TCP reassembly queue.  Sound under both
  checkers, at the cost of extra states for the buffer contents.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Tuple

from repro.invariants.base import Invariant
from repro.model.hashing import canonical_bytes
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, Message, NodeId
from repro.protocols.common import TupleMap, tm_get, tm_set


@dataclass(frozen=True)
class Stamped:
    """An inner payload with its per-channel sequence number."""

    seq: int
    inner: Any


@dataclass(frozen=True)
class FifoState:
    """Wrapper state: the inner state plus per-channel counters.

    ``next_seq`` maps destination node to the next outgoing sequence number;
    ``delivered`` maps source node to the count of in-order deliveries;
    ``stash`` (reassemble mode) holds out-of-order ``(src, seq, inner)``
    triples awaiting their turn.
    """

    inner: Any
    next_seq: TupleMap = ()
    delivered: TupleMap = ()
    stash: Tuple[Tuple[NodeId, int, Any], ...] = ()


class FifoStampedProtocol(Protocol):
    """Per-channel FIFO semantics layered over any protocol.

    Of the optional hooks, only the crash pair is forwarded: a crash keeps
    what the inner protocol's ``durable_state`` keeps, and a restart boots
    the inner ``restart_state`` with fresh channel counters, since a crash
    resets the connection.  Drops stay oblivious (no ``handle_drop``): TCP
    retransmits, so a wrapped protocol never sees a loss.  Symmetry and
    coverage are not forwarded either: every payload is a :class:`Stamped`,
    which the inner declarations do not describe.
    """

    def __init__(self, inner: Protocol, mode: str = "reject"):
        if mode not in ("reject", "reassemble"):
            raise ValueError(f"mode must be 'reject' or 'reassemble', got {mode!r}")
        self.inner = inner
        self.mode = mode
        self.name = f"{inner.name}+fifo-{mode}"

    # -- Protocol interface ----------------------------------------------------

    def node_ids(self) -> Tuple[NodeId, ...]:
        return self.inner.node_ids()

    def initial_state(self, node: NodeId) -> FifoState:
        return FifoState(inner=self.inner.initial_state(node))

    def enabled_actions(self, state: FifoState) -> Tuple[Action, ...]:
        return self.inner.enabled_actions(state.inner)

    def handle_action(self, state: FifoState, action: Action) -> HandlerResult:
        result = self.inner.handle_action(state.inner, action)
        return self._wrap_result(state, result)

    def durable_state(self, node: NodeId, state: FifoState) -> Any:
        return self.inner.durable_state(node, state.inner)

    def restart_state(self, node: NodeId, durable: Any) -> FifoState:
        return FifoState(inner=self.inner.restart_state(node, durable))

    def handle_message(self, state: FifoState, message: Message) -> HandlerResult:
        payload = message.payload
        if not isinstance(payload, Stamped):
            # Unstamped traffic (e.g. directly injected) passes through.
            result = self.inner.handle_message(state.inner, message)
            return self._wrap_result(state, result)
        expected = tm_get(state.delivered, message.src, 0)
        if payload.seq == expected:
            return self._deliver_in_order(state, message.src, payload.inner)
        if payload.seq < expected:
            return HandlerResult(state)  # duplicate of the past: drop
        if self.mode == "reject":
            # Out of order: TCP would reject it; ignore the delivery.  LMC's
            # monotonic network re-offers the message to later node states.
            return HandlerResult(state)
        # Reassembly: stash until its turn, then flush the run it completes.
        entry = (message.src, payload.seq, payload.inner)
        if entry in state.stash:
            return HandlerResult(state)
        # Canonical stash order: payloads need not be orderable, so break
        # (src, seq) ties by canonical encoding.
        stash = tuple(
            sorted(
                state.stash + (entry,),
                key=lambda e: (e[0], e[1], canonical_bytes(e[2])),
            )
        )
        return self._flush(
            FifoState(
                inner=state.inner,
                next_seq=state.next_seq,
                delivered=state.delivered,
                stash=stash,
            )
        )

    # -- internals ---------------------------------------------------------------

    def _deliver_in_order(
        self, state: FifoState, src: NodeId, inner_payload: Any
    ) -> HandlerResult:
        result = self._deliver_core(state, src, inner_payload)
        if self.mode == "reassemble" and result.state.stash:
            flushed = self._flush(result.state)
            return HandlerResult(flushed.state, result.sends + flushed.sends)
        return result

    def _deliver_core(
        self, state: FifoState, src: NodeId, inner_payload: Any
    ) -> HandlerResult:
        """One in-order delivery to the inner protocol (no stash flushing)."""
        inner_msg = Message(dest=self._node_of(state), src=src, payload=inner_payload)
        result = self.inner.handle_message(state.inner, inner_msg)
        delivered = tm_set(
            state.delivered, src, tm_get(state.delivered, src, 0) + 1
        )
        advanced = FifoState(
            inner=result.state,
            next_seq=state.next_seq,
            delivered=delivered,
            stash=state.stash,
        )
        sends, advanced = self._stamp_sends(advanced, result.sends)
        return HandlerResult(advanced, sends)

    def _flush(self, state: FifoState) -> HandlerResult:
        """Deliver every stashed message that is now in order."""
        sends: List[Message] = []
        changed = True
        while changed:
            changed = False
            for entry in state.stash:
                src, seq, inner_payload = entry
                if seq == tm_get(state.delivered, src, 0):
                    remaining = tuple(e for e in state.stash if e != entry)
                    state = FifoState(
                        inner=state.inner,
                        next_seq=state.next_seq,
                        delivered=state.delivered,
                        stash=remaining,
                    )
                    result = self._deliver_core(state, src, inner_payload)
                    state = result.state
                    sends.extend(result.sends)
                    changed = True
                    break
        return HandlerResult(state, tuple(sends))

    def _stamp_sends(
        self, state: FifoState, sends: Tuple[Message, ...]
    ) -> Tuple[Tuple[Message, ...], FifoState]:
        stamped: List[Message] = []
        next_seq = state.next_seq
        for message in sends:
            seq = tm_get(next_seq, message.dest, 0)
            next_seq = tm_set(next_seq, message.dest, seq + 1)
            stamped.append(
                Message(
                    dest=message.dest,
                    src=message.src,
                    payload=Stamped(seq=seq, inner=message.payload),
                )
            )
        return tuple(stamped), FifoState(
            inner=state.inner,
            next_seq=next_seq,
            delivered=state.delivered,
            stash=state.stash,
        )

    def _wrap_result(self, state: FifoState, result: HandlerResult) -> HandlerResult:
        advanced = FifoState(
            inner=result.state,
            next_seq=state.next_seq,
            delivered=state.delivered,
            stash=state.stash,
        )
        sends, advanced = self._stamp_sends(advanced, result.sends)
        return HandlerResult(advanced, sends)

    @staticmethod
    def _node_of(state: FifoState) -> NodeId:
        node = getattr(state.inner, "node", None)
        if node is None:
            raise TypeError(
                "FifoStampedProtocol requires inner states to expose .node"
            )
        return node


def unwrap_system_state(system):
    """Project a wrapped system state onto the inner protocol's states.

    Lets inner-protocol invariants be evaluated on wrapped runs via
    :class:`UnwrappingInvariant`.
    """
    from repro.model.system_state import SystemState

    return SystemState({node: state.inner for node, state in system.items()})


class UnwrappingInvariant(Invariant):
    """Adapter: evaluate an inner-protocol invariant on wrapped states."""

    def __init__(self, inner_invariant: Invariant):
        self.inner = inner_invariant
        self.name = f"{inner_invariant.name}+unwrap"

    def check(self, system) -> bool:
        return self.inner.check(unwrap_system_state(system))

    def describe_violation(self, system) -> str:
        return self.inner.describe_violation(unwrap_system_state(system))
