"""Tests for SystemState and GlobalState containers."""

import pytest

from repro.model.multiset import FrozenMultiset
from repro.model.system_state import GlobalState, SystemState
from repro.model.types import Message


def make_system(**states):
    return SystemState({int(k[1:]): v for k, v in states.items()})


def test_entries_sorted_by_node_id():
    ss = SystemState({2: "b", 0: "a", 1: "c"})
    assert ss.node_ids == (0, 1, 2)
    assert ss.states() == ("a", "c", "b")


def test_get_and_items():
    ss = SystemState({0: "a", 1: "b"})
    assert ss.get(0) == "a"
    assert dict(ss.items()) == {0: "a", 1: "b"}
    with pytest.raises(KeyError):
        ss.get(9)


def test_duplicate_node_ids_rejected():
    with pytest.raises(ValueError):
        SystemState(((0, "a"), (0, "b")))


def test_replace_is_functional():
    ss = SystemState({0: "a", 1: "b"})
    replaced = ss.replace(0, "z")
    assert replaced.get(0) == "z"
    assert ss.get(0) == "a"
    with pytest.raises(KeyError):
        ss.replace(7, "x")


def test_equality_and_hash():
    a = SystemState({0: "a", 1: "b"})
    b = SystemState({1: "b", 0: "a"})
    assert a == b
    assert hash(a) == hash(b)
    assert a != SystemState({0: "a", 1: "c"})


def test_len_and_iter():
    ss = SystemState({0: "a", 1: "b"})
    assert len(ss) == 2
    assert list(ss) == [(0, "a"), (1, "b")]


def test_retained_bytes_positive():
    assert SystemState({0: "a"}).retained_bytes() > 0


def test_global_state_deliver_consumes_message():
    message = Message(dest=1, src=0, payload="ping")
    gs = GlobalState(SystemState({0: "a", 1: "b"}), FrozenMultiset([message]))
    after = gs.deliver(message, "b2", ())
    assert after.system.get(1) == "b2"
    assert len(after.network) == 0
    # original untouched
    assert gs.system.get(1) == "b"
    assert len(gs.network) == 1


def test_global_state_deliver_inserts_sends():
    m1 = Message(dest=1, src=0, payload="ping")
    m2 = Message(dest=0, src=1, payload="pong")
    gs = GlobalState(SystemState({0: "a", 1: "b"}), FrozenMultiset([m1]))
    after = gs.deliver(m1, "b2", (m2,))
    assert after.network.count(m2) == 1
    assert after.network.count(m1) == 0


def test_global_state_deliver_consumes_one_copy():
    """Consuming semantics over a multiset: one of two identical copies goes."""
    m = Message(dest=1, src=0, payload="ping")
    gs = GlobalState(SystemState({0: "a", 1: "b"}), FrozenMultiset([m, m]))
    assert gs.deliver(m, "b2", ()).network.count(m) == 1


def test_global_state_deliver_missing_message_raises():
    m = Message(dest=1, src=0, payload="ping")
    with pytest.raises(KeyError):
        GlobalState(SystemState({0: "a", 1: "b"}), FrozenMultiset()).deliver(m, "b2", ())


def test_global_state_internal_without_sends_shares_network():
    network = FrozenMultiset([Message(dest=1, src=0, payload="x")])
    after = GlobalState(SystemState({0: "a", 1: "b"}), network).run_internal(0, "a2", ())
    assert after.network is network


def test_global_state_internal_keeps_network_plus_sends():
    m = Message(dest=1, src=0, payload="x")
    gs = GlobalState(SystemState({0: "a", 1: "b"}), FrozenMultiset())
    after = gs.run_internal(0, "a2", (m,))
    assert after.system.get(0) == "a2"
    assert after.network.count(m) == 1


def test_global_state_equality_covers_network():
    system = SystemState({0: "a"})
    m = Message(dest=0, src=0, payload="x")
    g1 = GlobalState(system, FrozenMultiset())
    g2 = GlobalState(system, FrozenMultiset([m]))
    g3 = GlobalState(system, FrozenMultiset())
    assert g1 != g2
    assert g1 == g3
    assert hash(g1) == hash(g3)


def test_global_state_retained_bytes_counts_messages():
    system = SystemState({0: "a"})
    m = Message(dest=0, src=0, payload="x")
    bare = GlobalState(system, FrozenMultiset()).retained_bytes()
    loaded = GlobalState(system, FrozenMultiset([m, m])).retained_bytes()
    assert loaded > bare
