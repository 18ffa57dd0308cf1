"""Tests for deterministic content hashing.

``golden/encodings.json`` pins the canonical bytes and digest of a fixed
corpus that reaches every branch of the encoder, plus every hash a depth-4
two-proposal Paxos pass stores.  It was written before the encoder was
rewritten as one walk and is compared unedited; ``python
tests/model/test_hashing.py`` regenerates it — only ever do that on a commit
whose encodings are the intended reference.
"""

import dataclasses
import hashlib
import json
import sys
from collections import namedtuple
from enum import IntEnum
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.model.hashing import (
    UnhashableModelValue,
    canonical_and_hash,
    canonical_bytes,
    configure_interning,
    content_hash,
    content_hash_and_size,
    content_size,
    hash_many,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "encodings.json"


@dataclasses.dataclass(frozen=True)
class Sample:
    a: int
    b: str


@dataclasses.dataclass(frozen=True)
class Other:
    a: int
    b: str


# -- basic behaviour ---------------------------------------------------------


def test_equal_values_hash_equal():
    assert content_hash((1, "x")) == content_hash((1, "x"))


def test_different_values_hash_differently():
    assert content_hash((1, "x")) != content_hash((1, "y"))


def test_type_tags_prevent_cross_type_collisions():
    assert content_hash(1) != content_hash("1")
    assert content_hash((1,)) != content_hash(1)
    assert content_hash(True) != content_hash(1)
    assert content_hash(False) != content_hash(0)
    assert content_hash(None) != content_hash(0)
    assert content_hash(b"x") != content_hash("x")


def test_dataclass_hash_includes_class_name():
    assert content_hash(Sample(1, "x")) != content_hash(Other(1, "x"))


def test_dataclass_hash_covers_fields():
    assert content_hash(Sample(1, "x")) != content_hash(Sample(2, "x"))
    assert content_hash(Sample(1, "x")) == content_hash(Sample(1, "x"))


def test_frozenset_hash_is_order_independent():
    assert content_hash(frozenset([1, 2, 3])) == content_hash(frozenset([3, 1, 2]))


def test_nested_structures():
    value = (Sample(1, "x"), frozenset([(1, 2)]), None, True)
    assert content_hash(value) == content_hash(
        (Sample(1, "x"), frozenset([(1, 2)]), None, True)
    )


def test_mapping_encoding_is_key_sorted():
    assert content_hash({"a": 1, "b": 2}) == content_hash({"b": 2, "a": 1})


def test_mapping_with_unorderable_keys_rejected():
    with pytest.raises(UnhashableModelValue):
        content_hash({1: "a", "b": 2})


def test_mutable_values_rejected():
    with pytest.raises(UnhashableModelValue):
        content_hash([1, 2, 3])
    with pytest.raises(UnhashableModelValue):
        content_hash({1, 2})


def test_content_size_positive_and_additive_shape():
    small = content_size((1,))
    large = content_size((1, 2, 3, 4, 5))
    assert 0 < small < large


def test_hash_many_round_trips():
    values = [(1,), (2,), (3,)]
    mapping = hash_many(values)
    assert set(mapping.values()) == set(values)
    for digest, value in mapping.items():
        assert content_hash(value) == digest


def test_float_and_int_distinct():
    assert content_hash(1.0) != content_hash(1)


# -- property-based ------------------------------------------------------------

scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.floats(allow_nan=False),
)
values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.tuples(children, children),
        st.frozensets(st.integers(), max_size=4),
    ),
    max_leaves=10,
)


@given(values)
def test_hash_is_deterministic(value):
    assert content_hash(value) == content_hash(value)


@given(values, values)
def test_encoding_injective_on_samples(a, b):
    if canonical_bytes(a) == canonical_bytes(b):
        assert a == b  # equal encodings only for equal values


@given(st.tuples(st.integers(), st.text(max_size=10)))
def test_hash_fits_in_64_bits(value):
    assert 0 <= content_hash(value) < 2**64


# -- golden encodings ----------------------------------------------------------


class Color(IntEnum):
    RED = 1
    GREEN = 2


class Name(str):
    pass


class Pair(tuple):
    pass


Point = namedtuple("Point", "x y")


@dataclasses.dataclass(frozen=True)
class WithMapping:
    label: str
    table: dict


@dataclasses.dataclass(frozen=True, eq=False)
class ByIdentity:
    a: int
    b: str


#: ``str()`` of an ``IntEnum`` member is its class-qualified name before
#: Python 3.11 and its value from 3.11 on, and the int branch encodes
#: ``str(value)``: the entry is pinned as 3.11+ writes it.
VERSION_DEPENDENT = {"int_enum": (3, 11)}


def golden_corpus():
    """``(name, value)`` pairs reaching every encoder branch; fresh objects
    on every call, so the interner files each one, then answers it by its
    cons key."""
    return [
        ("int_small", 7),
        ("int_zero", 0),
        ("int_negative", -42),
        ("int_40_digits", 10**39 + 12345),
        ("int_negative_40_digits", -(10**39) - 6789),
        ("true", True),
        ("false", False),
        ("none", None),
        ("str_empty", ""),
        ("str_unicode", "héllo ✓"),
        ("str_long", "ab" * 700),
        ("str_subclass", Name("alice")),
        ("int_enum", Color.GREEN),
        ("float_one", 1.0),
        ("float_negative_zero", -0.0),
        ("float_inf", float("inf")),
        ("bytes", b"\x00\xffpayload"),
        ("bytes_long", bytes(range(256)) * 5),
        ("tuple_empty", ()),
        ("tuple_long", tuple(range(1100))),
        ("tuple_subclass", Pair((1, "a", None))),
        ("namedtuple", Point(3, "y")),
        ("frozenset_empty", frozenset()),
        ("frozenset_mixed", frozenset({5, "a", None, (2, "b"), b"c", 2.5, False})),
        ("dict_top", {3: "c", 1: ("a",), 2: None}),
        ("dataclass", Sample(4, "d")),
        ("dataclass_with_dict", WithMapping("m", {"b": 2, "a": (1, None)})),
        ("dataclass_eq_false", ByIdentity(5, "z")),
        (
            "nested_dataclasses",
            (
                Sample(1, "x"),
                Other(1, "x"),
                frozenset({Sample(2, "y"), Sample(3, "z")}),
                (Sample(1, "x"), ()),
            ),
        ),
        (
            "nested_mix",
            (
                Name("n"),
                -0.5,
                Point(Pair((True, b"")), frozenset({Point(1, 2), (None, "s")})),
                WithMapping("w", {"k": (Sample(9, "q"),)}),
                (ByIdentity(6, "e"), "ab" * 600),
                frozenset({frozenset({1, 2}), frozenset(), (10**30,)}),
            ),
        ),
        (
            "nested_deep",
            ((((("leaf", -1), 2.0), None), False), Sample(-3, "")),
        ),
    ]


def paxos_pass_hashes():
    """Every hash a depth-4 two-proposal Paxos pass stores, in sorted order:
    node states, ``I+`` messages, distinct event hashes, and the link
    tuples ``(prev, event, consumed, *generated)`` as a count and a digest."""
    from repro.core.checker import LocalModelChecker, _ExplorationPass
    from repro.core.config import LMCConfig
    from repro.explore.budget import BudgetClock, SearchBudget
    from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1")))
    checker = LocalModelChecker(
        protocol,
        PaxosAgreement(0),
        budget=SearchBudget(max_depth=4),
        config=LMCConfig.optimized(),
    )
    run = _ExplorationPass(
        checker, protocol.initial_system_state(), BudgetClock(checker.budget), None
    )
    run.execute()
    states, events, links = [], set(), []
    values = []
    for store in run.space.stores.values():
        for record in store:
            states.append(record.hash)
            values.append((record.hash, record.state))
            for prev, step in store.links_of(record):
                events.add(step.event_hash)
                values.append((step.event_hash, step.event))
                links.append(
                    (store.records[prev].hash, step.event_hash, step.consumed_hash)
                    + step.generated_hashes
                )
    messages = []
    for stored in run.network.messages_since(0):
        messages.append(stored.hash)
        values.append((stored.hash, stored.message))
    links.sort(key=repr)
    summary = {
        "states": sorted(states),
        "messages": sorted(messages),
        "events": sorted(events),
        "links": len(links),
        "links_sha256": hashlib.sha256(repr(links).encode("ascii")).hexdigest(),
    }
    return summary, values


def _reference_encodings():
    return {
        name: {
            "bytes": canonical_bytes(value, intern=False).hex(),
            "hash": content_hash(value, intern=False),
        }
        for name, value in golden_corpus()
    }


def _applies(name):
    return sys.version_info >= VERSION_DEPENDENT.get(name, (0,))


def test_encodings_match_golden():
    """Interned (cold and warm) and uncached encodings of the corpus, the
    canonical objects' encodings, and every hash a Paxos pass stores,
    equal the pinned file."""
    golden = json.loads(GOLDEN_PATH.read_text())
    configure_interning(False)
    configure_interning(True)  # a cold shared interner
    try:
        for corpus in (golden_corpus(), golden_corpus()):
            for name, value in corpus:
                if not _applies(name):
                    continue
                expected = golden["values"][name]
                size = len(expected["bytes"]) // 2
                for _ in range(2):
                    for intern in (True, False):
                        assert canonical_bytes(value, intern=intern).hex() == (
                            expected["bytes"]
                        ), name
                        assert content_hash(value, intern=intern) == expected["hash"]
                        assert content_size(value, intern=intern) == size
                        assert content_hash_and_size(value, intern=intern) == (
                            expected["hash"],
                            size,
                        )
                    same, digest = canonical_and_hash(value)
                    assert digest == expected["hash"]
                    assert canonical_bytes(same, intern=False).hex() == (
                        expected["bytes"]
                    ), name
        summary, values = paxos_pass_hashes()
        assert summary == golden["paxos_depth4"]
        for digest, value in values:
            assert content_hash(value, intern=False) == digest
    finally:
        configure_interning(True)


if __name__ == "__main__":
    assert sys.version_info >= (3, 11), "VERSION_DEPENDENT entries need 3.11+"
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    payload = {
        "values": _reference_encodings(),
        "paxos_depth4": paxos_pass_hashes()[0],
    }
    GOLDEN_PATH.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
