"""Tests for the two network substrates."""

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.types import Message
from repro.network.lossy import LossyNetwork
from repro.network.monotonic import MonotonicNetwork


def msg(dest=1, src=0, payload="m"):
    return Message(dest=dest, src=src, payload=payload)


# -- monotonic network ---------------------------------------------------------------


class TestMonotonicNetwork:
    def test_messages_never_removed(self):
        net = MonotonicNetwork()
        net.add(msg())
        assert len(net) == 1
        # There is no removal API at all; the network only grows.
        assert not hasattr(net, "remove")

    def test_duplicate_suppression_at_zero_limit(self):
        net = MonotonicNetwork(duplicate_limit=0)
        assert net.add(msg()) is not None
        assert net.add(msg()) is None
        assert net.suppressed_duplicates == 1
        assert len(net) == 1

    def test_duplicate_limit_admits_extra_copies(self):
        net = MonotonicNetwork(duplicate_limit=2)
        assert net.add(msg()) is not None
        assert net.add(msg()) is not None
        assert net.add(msg()) is not None
        assert net.add(msg()) is None
        assert len(net) == 3
        assert net.suppressed_duplicates == 1

    def test_negative_limit_rejected(self):
        with pytest.raises(ValueError):
            MonotonicNetwork(duplicate_limit=-1)

    def test_for_destination_in_arrival_order(self):
        net = MonotonicNetwork()
        net.add(msg(payload="a"))
        net.add(msg(payload="b"))
        net.add(msg(dest=2, payload="c"))
        stored = net.for_destination(1)
        assert [s.message.payload for s in stored] == ["a", "b"]

    def test_cursor_starts_at_zero(self):
        net = MonotonicNetwork()
        stored = net.add(msg())
        assert stored.cursor == 0

    def test_add_all_reports_stored_only(self):
        net = MonotonicNetwork()
        stored = net.add_all((msg(), msg(), msg(payload="x")))
        assert len(stored) == 2

    def test_contains_hash(self):
        from repro.model.hashing import content_hash

        net = MonotonicNetwork()
        net.add(msg())
        assert net.contains_hash(content_hash(msg()))
        assert not net.contains_hash(content_hash(msg(payload="zz")))

    def test_all_messages_in_arrival_order(self):
        net = MonotonicNetwork()
        net.add(msg(dest=2, payload="first"))
        net.add(msg(dest=1, payload="second"))
        seqs = [s.seq for s in net.all_messages()]
        assert seqs == [0, 1]

    def test_retained_bytes_grows(self):
        net = MonotonicNetwork()
        before = net.retained_bytes()
        net.add(msg())
        assert net.retained_bytes() > before

    @given(st.lists(st.sampled_from(["a", "b", "c"]), max_size=20))
    def test_distinct_storage_matches_set(self, payloads):
        net = MonotonicNetwork(duplicate_limit=0)
        for payload in payloads:
            net.add(msg(payload=payload))
        assert len(net) == len(set(payloads))


# -- lossy network ------------------------------------------------------------------


class TestLossyNetwork:
    def test_reliable_delivery_in_time_order(self):
        net = LossyNetwork(random.Random(0), drop_probability=0.0)
        net.send(msg(payload="a"), now=0.0)
        net.send(msg(payload="b"), now=0.0)
        first_time = net.next_delivery_time()
        assert first_time is not None
        out = net.pop_due(first_time)
        assert out is not None
        assert net.pending() == 1

    def test_drop_probability_one_drops_everything_except_loopback(self):
        net = LossyNetwork(random.Random(0), drop_probability=1.0)
        assert net.send(msg(dest=1, src=0), now=0.0) is None
        assert net.send(msg(dest=2, src=2), now=0.0) is not None  # loopback
        assert net.dropped == 1

    def test_statistical_drop_rate(self):
        net = LossyNetwork(random.Random(42), drop_probability=0.3)
        for i in range(1000):
            net.send(msg(payload=str(i)), now=0.0)
        assert 230 <= net.dropped <= 370

    def test_pop_due_respects_time(self):
        net = LossyNetwork(random.Random(0), drop_probability=0.0, min_latency=1.0, max_latency=1.0)
        net.send(msg(), now=0.0)
        assert net.pop_due(0.5) is None
        assert net.pop_due(1.5) is not None

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            LossyNetwork(random.Random(0), drop_probability=1.5)
        with pytest.raises(ValueError):
            LossyNetwork(random.Random(0), min_latency=2.0, max_latency=1.0)

    def test_seeded_runs_are_reproducible(self):
        def run(seed):
            net = LossyNetwork(random.Random(seed), drop_probability=0.5)
            return [net.send(msg(payload=str(i)), now=0.0) for i in range(50)]

        assert run(7) == run(7)
        assert run(7) != run(8)

    def test_duplicate_probability_one_duplicates_everything_except_loopback(self):
        net = LossyNetwork(random.Random(0), duplicate_probability=1.0)
        net.send(msg(dest=1, src=0), now=0.0)
        assert net.duplicated == 1
        assert net.pending() == 2
        net.send(msg(dest=2, src=2), now=0.0)  # loopback: never duplicated
        assert net.duplicated == 1
        assert net.pending() == 3

    def test_duplicate_copies_deliver_independently(self):
        net = LossyNetwork(random.Random(3), duplicate_probability=1.0)
        net.send(msg(payload="x"), now=0.0)
        first = net.pop_due(10.0)
        second = net.pop_due(10.0)
        assert first == second == msg(payload="x")
        assert net.delivered == 2
        assert net.pending() == 0

    def test_statistical_duplicate_rate(self):
        net = LossyNetwork(random.Random(42), duplicate_probability=0.3)
        for i in range(1000):
            net.send(msg(payload=str(i)), now=0.0)
        assert 230 <= net.duplicated <= 370

    def test_duplication_is_seed_reproducible(self):
        def run(seed):
            net = LossyNetwork(
                random.Random(seed),
                drop_probability=0.2,
                duplicate_probability=0.4,
            )
            for i in range(100):
                net.send(msg(payload=str(i)), now=0.0)
            return (net.dropped, net.duplicated, net.pending())

        assert run(11) == run(11)
        assert run(11) != run(12)

    def test_invalid_duplicate_probability_rejected(self):
        with pytest.raises(ValueError):
            LossyNetwork(random.Random(0), duplicate_probability=-0.1)
        with pytest.raises(ValueError):
            LossyNetwork(random.Random(0), duplicate_probability=1.5)
