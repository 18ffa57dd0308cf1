"""Tests for core value types and events."""

import pytest

from repro.model.events import (
    CrashEvent,
    DeliveryEvent,
    DropEvent,
    DuplicateEvent,
    InternalEvent,
    RestartEvent,
    event_hash,
    message_hashes,
)
from repro.model.hashing import content_hash
from repro.persistence import ClassRegistry, decode_event, encode_event
from repro.model.types import (
    Action,
    HandlerResult,
    LocalAssertionError,
    Message,
    local_assert,
)


def test_message_describe():
    m = Message(dest=1, src=0, payload="hello")
    text = m.describe()
    assert "0->1" in text and "hello" in text


def test_action_describe():
    assert Action(node=2, name="init").describe() == "init@2"
    assert "propose" in Action(node=1, name="propose", payload=(0, "v")).describe()


def test_handler_result_noop_detection():
    state = ("s",)
    assert HandlerResult(state).is_noop(state)
    assert not HandlerResult(("t",)).is_noop(state)
    m = Message(dest=0, src=0, payload="x")
    assert not HandlerResult(state, (m,)).is_noop(state)


def test_local_assert_passes_and_fails():
    local_assert(True, "fine")
    with pytest.raises(LocalAssertionError) as exc:
        local_assert(False, "broken", node=3)
    assert exc.value.node == 3
    assert isinstance(exc.value, AssertionError)


def test_delivery_event_properties():
    m = Message(dest=4, src=0, payload="p")
    ev = DeliveryEvent(m)
    assert ev.node == 4
    assert "deliver" in ev.describe()


def test_internal_event_properties():
    ev = InternalEvent(Action(node=1, name="timer"))
    assert ev.node == 1
    assert "timer" in ev.describe()


def test_event_hash_stable_and_distinct():
    m = Message(dest=1, src=0, payload="x")
    assert event_hash(DeliveryEvent(m)) == event_hash(DeliveryEvent(m))
    assert event_hash(DeliveryEvent(m)) != event_hash(
        InternalEvent(Action(node=1, name="x"))
    )


def test_message_hashes_match_content_hash():
    m1 = Message(dest=1, src=0, payload="a")
    m2 = Message(dest=2, src=0, payload="b")
    assert message_hashes((m1, m2)) == (content_hash(m1), content_hash(m2))
    assert message_hashes(()) == ()


def test_messages_are_ordered_values():
    a = Message(dest=0, src=0, payload="a")
    b = Message(dest=1, src=0, payload="a")
    assert a < b
    assert a == Message(dest=0, src=0, payload="a")


_M = Message(dest=1, src=0, payload=("p", 2))
_ON_M, _SHOWN_M = {"dest": 1, "src": 0, "payload": {"__tuple__": ["p", 2]}}, "(0->1: ('p', 2))"
_ACTION = Action(node=2, name="timer", payload=(3, "v"))
_ON_ACTION = {"node": 2, "name": "timer", "payload": {"__tuple__": [3, "v"]}}
#: Per family: the event, its content hash (stored in predecessor pointers
#: and checkpoints), its describe() line and its JSON encoding, key order
#: included.
VOCABULARY = {
    "delivery": (DeliveryEvent(_M), 0xCFF739CF5916384F, f"deliver tuple{_SHOWN_M}",
                 {"kind": "deliver", **_ON_M}),
    "internal": (InternalEvent(_ACTION), 0x0EEEB4B958037292, "run timer@2((3, 'v'))",
                 {"kind": "action", **_ON_ACTION}),
    "crash": (CrashEvent(1), 0xBE8C2093406DCD30, "crash node 1", {"kind": "crash", "node": 1}),
    "restart": (RestartEvent(2), 0x03477F8D711C7936, "restart node 2",
                {"kind": "restart", "node": 2}),
    "drop": (DropEvent(_M), 0xB4F3D2AF74D08732, f"drop tuple{_SHOWN_M}", {"kind": "drop", **_ON_M}),
    "duplicate": (DuplicateEvent(_M), 0xD877F1B7C12BD817, f"redeliver tuple{_SHOWN_M}",
                  {"kind": "duplicate", **_ON_M}),
}


@pytest.mark.parametrize("family", VOCABULARY)
def test_event_vocabulary_is_pinned(family):
    """Each family's digest, log line and encoding are fixed; the codec round-trips."""
    event, digest, text, encoded = VOCABULARY[family]
    assert event_hash(event) == digest
    assert event.describe() == text
    assert list(encode_event(event).items()) == list(encoded.items())
    assert decode_event(encode_event(event), ClassRegistry()) == event
