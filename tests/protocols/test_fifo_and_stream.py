"""Tests for the FIFO wrapper (§4.3 simulated TCP) and the stream workload."""

import pytest

from repro.core.checker import LocalModelChecker
from repro.explore.global_checker import GlobalModelChecker
from repro.invariants.base import PredicateInvariant
from repro.model.types import Action, Message
from repro.protocols.echo import EchoProtocol, PongsImplyPing
from repro.protocols.fifo_wrapper import (
    FifoStampedProtocol,
    Stamped,
    UnwrappingInvariant,
    unwrap_system_state,
)
from repro.protocols.stream import InOrderDelivery, Packet, StreamProtocol

TRUE = PredicateInvariant("true", lambda s: True)


class TestWrapperMechanics:
    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            FifoStampedProtocol(StreamProtocol(2), mode="zigzag")

    def test_sends_are_stamped_per_channel(self):
        wrapped = FifoStampedProtocol(StreamProtocol(3))
        state = wrapped.initial_state(0)
        result = wrapped.handle_action(state, Action(node=0, name="emit", payload=0))
        (message,) = result.sends
        assert isinstance(message.payload, Stamped)
        assert message.payload.seq == 0
        second = wrapped.handle_action(
            result.state, Action(node=0, name="emit", payload=1)
        )
        assert second.sends[0].payload.seq == 1

    def test_in_order_delivery_advances_counter(self):
        wrapped = FifoStampedProtocol(StreamProtocol(2))
        receiver = wrapped.initial_state(1)
        msg = Message(dest=1, src=0, payload=Stamped(0, Packet(0)))
        result = wrapped.handle_message(receiver, msg)
        assert result.state.inner.received == (0,)
        msg1 = Message(dest=1, src=0, payload=Stamped(1, Packet(1)))
        result = wrapped.handle_message(result.state, msg1)
        assert result.state.inner.received == (0, 1)

    def test_reject_mode_ignores_out_of_order(self):
        wrapped = FifoStampedProtocol(StreamProtocol(2), mode="reject")
        receiver = wrapped.initial_state(1)
        out_of_order = Message(dest=1, src=0, payload=Stamped(1, Packet(1)))
        result = wrapped.handle_message(receiver, out_of_order)
        assert result.is_noop(receiver)

    def test_reassemble_mode_stashes_and_flushes(self):
        wrapped = FifoStampedProtocol(StreamProtocol(2), mode="reassemble")
        receiver = wrapped.initial_state(1)
        late = Message(dest=1, src=0, payload=Stamped(1, Packet(1)))
        stashed = wrapped.handle_message(receiver, late).state
        assert stashed.stash
        assert stashed.inner.received == ()
        first = Message(dest=1, src=0, payload=Stamped(0, Packet(0)))
        final = wrapped.handle_message(stashed, first).state
        assert final.inner.received == (0, 1)
        assert not final.stash

    @pytest.mark.parametrize("mode", ["reject", "reassemble"])
    def test_channels_are_independent(self, mode):
        """Each source has its own sequence: a first packet from node 2 is in
        order even though node 0's channel has already advanced."""
        wrapped = FifoStampedProtocol(StreamProtocol(3), mode=mode)
        state = wrapped.initial_state(1)
        for src, seq, number in ((0, 0, 0), (2, 0, 5), (2, 1, 6)):
            message = Message(dest=1, src=src, payload=Stamped(seq, Packet(number)))
            state = wrapped.handle_message(state, message).state
        assert state.inner.received == (0, 5, 6)
        assert not state.stash

    def test_stale_duplicate_dropped(self):
        wrapped = FifoStampedProtocol(StreamProtocol(2))
        receiver = wrapped.initial_state(1)
        msg = Message(dest=1, src=0, payload=Stamped(0, Packet(0)))
        once = wrapped.handle_message(receiver, msg).state
        again = wrapped.handle_message(once, msg)
        assert again.is_noop(once)

    def test_unstamped_traffic_passes_through(self):
        wrapped = FifoStampedProtocol(StreamProtocol(2))
        receiver = wrapped.initial_state(1)
        raw = Message(dest=1, src=0, payload=Packet(0))
        result = wrapped.handle_message(receiver, raw)
        assert result.state.inner.received == (0,)

    def test_unwrap_system_state(self):
        wrapped = FifoStampedProtocol(StreamProtocol(2))
        system = wrapped.initial_system_state()
        inner = unwrap_system_state(system)
        assert inner.get(0).node == 0
        assert inner.get(1).received == ()


class TestStateSpaceSavings:
    """The §4.3 claim, quantified: FIFO collapses reorder-only state space."""

    def test_lmc_states_collapse_under_fifo(self):
        raw = StreamProtocol(4)
        wrapped = FifoStampedProtocol(raw, mode="reject")
        raw_result = LocalModelChecker(raw, TRUE).run()
        fifo_result = LocalModelChecker(wrapped, TRUE).run()
        # Receiver states raw: all permutation prefixes of 4 packets (65);
        # under FIFO: the 5 in-order prefixes.
        assert raw_result.stats.node_states > 5 * fifo_result.stats.node_states

    def test_in_order_invariant_flips_with_transport(self):
        raw = StreamProtocol(3)
        inv = InOrderDelivery()
        assert GlobalModelChecker(raw, inv).run().found_bug
        assert LocalModelChecker(raw, inv).run().found_bug

        reject = FifoStampedProtocol(raw, mode="reject")
        reassemble = FifoStampedProtocol(raw, mode="reassemble")
        wrapped_inv = PredicateInvariant(
            "in-order+unwrap", lambda s: inv.check(unwrap_system_state(s))
        )
        assert not LocalModelChecker(reject, wrapped_inv).run().found_bug
        assert not GlobalModelChecker(reassemble, wrapped_inv).run().found_bug

    def test_wrapper_preserves_verdicts_on_echo(self):
        raw = EchoProtocol(3)
        inv = UnwrappingInvariant(PongsImplyPing())
        for mode in ("reject", "reassemble"):
            wrapped = FifoStampedProtocol(raw, mode=mode)
            result = LocalModelChecker(wrapped, inv).run()
            assert result.completed and not result.found_bug, mode
        reassembled = FifoStampedProtocol(raw, mode="reassemble")
        assert not GlobalModelChecker(reassembled, inv).run().found_bug
