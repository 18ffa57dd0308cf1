"""Property tests for the hash-consing interner.

The contract of :class:`repro.model.hashing.HashInterner` is that it is
*invisible* to hash values: for any model value, the interned encoding,
hash and size equal what the uncached walk produces — including after
evictions, repeat lookups, for values that are never cacheable (anything
containing a ``dict``) and whatever was interned before (``True``, ``1``
and ``1.0`` are ``==`` in Python but encode apart).  And it is invisible to
protocols: a value's canonical object encodes like it and has the same type
structure, so a checker may keep the canonical object instead.
"""

import copy
import dataclasses
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import hashing
from repro.model.events import InternalEvent, event_hash, message_hashes
from repro.model.hashing import (
    HashInterner,
    canonical,
    canonical_and_hash,
    canonical_bytes,
    configure_interning,
    content_hash,
    content_hash_and_size,
    content_size,
    intern_stats,
    interning_enabled,
)
from repro.model.types import Action, Message


@dataclasses.dataclass(frozen=True)
class Inner:
    x: int
    y: str


@dataclasses.dataclass(frozen=True)
class Outer:
    inner: Inner
    items: tuple
    tag: str


@pytest.fixture(autouse=True)
def _restore_hashing_globals():
    """Every test here may reconfigure the module globals; undo it."""
    yield
    configure_interning(True)


scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.text(max_size=20),
    st.binary(max_size=20),
    st.floats(allow_nan=False),
)


def _composites(children):
    return st.one_of(
        st.tuples(children, children),
        st.tuples(children),
        st.frozensets(st.one_of(st.integers(), st.text(max_size=5)), max_size=4),
        st.builds(Inner, st.integers(), st.text(max_size=8)),
        st.builds(
            Outer,
            st.builds(Inner, st.integers(), st.text(max_size=8)),
            st.tuples(children, children),
            st.text(max_size=8),
        ),
        # Mapping values are accepted read-only and poison cacheability.
        st.dictionaries(st.integers(), children, max_size=3),
    )


values = st.recursive(scalars, _composites, max_leaves=12)


@given(values)
@settings(max_examples=200)
def test_interned_agrees_with_uncached(value):
    """Interned bytes/hash/size equal the uncached reference, twice over."""
    expected = canonical_bytes(value, intern=False)
    expected_hash = content_hash(value, intern=False)
    # First pass populates the cache, second pass reads it; both must agree
    # with the reference walk.
    for _ in range(2):
        assert canonical_bytes(value) == expected
        assert content_hash(value) == expected_hash
        assert content_size(value) == len(expected)
        assert content_hash_and_size(value) == (expected_hash, len(expected))


@given(values)
@settings(max_examples=100)
def test_uncached_mode_agrees_with_cached_mode(value):
    """The bench's uncached configuration produces identical encodings."""
    cached = canonical_bytes(value)
    configure_interning(False)
    try:
        assert not interning_enabled()
        assert canonical_bytes(value) == cached
        assert content_hash_and_size(value) == (
            content_hash(value),
            len(cached),
        )
    finally:
        configure_interning(True)


@given(st.lists(st.tuples(st.integers(), st.text(max_size=8)), min_size=10, max_size=30))
@settings(max_examples=50)
def test_eviction_preserves_correctness(items):
    """A tiny table evicts constantly yet never changes a hash."""
    interner = HashInterner(capacity=3)
    for value in items:
        entry = hashing._entry(value, interner)
        assert entry.encoded == canonical_bytes(value, intern=False)
    assert len(interner) <= 3
    if len(set(items)) > 3:
        assert interner.evictions > 0


def test_counters_move_and_pin_identity():
    configure_interning(True)
    value = (1, "x", Inner(2, "y"))
    before = intern_stats()
    content_hash(value)
    content_hash(value)  # same object: must be a hit
    after = intern_stats()
    assert after["misses"] > before["misses"]
    assert after["hits"] > before["hits"]


def test_dict_values_are_never_cached():
    configure_interning(True)
    payload = {"k": 1}
    value = (payload, "tag")
    first = content_hash(value)
    assert first == content_hash(value, intern=False)
    # Mutating the dict must be observed: nothing on the path to it may
    # have been cached.
    payload["k"] = 2
    second = content_hash(value)
    assert second != first
    assert second == content_hash(value, intern=False)


def test_disabling_interning_reports_zero_stats():
    configure_interning(False)
    assert not interning_enabled()
    assert intern_stats() == {
        "hits": 0,
        "misses": 0,
        "evictions": 0,
        "entries": 0,
        "capacity": 0,
    }
    # Hashing still works without the cache.
    assert content_hash((1, 2)) == content_hash((1, 2), intern=False)


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        HashInterner(capacity=0)


# -- exactness: the cons key, never ``==`` ----------------------------------------


@dataclasses.dataclass(frozen=True)
class Box:
    item: object


@dataclasses.dataclass(frozen=True, eq=False)
class Token:  # compared by identity, hashed by content
    count: int


@dataclasses.dataclass(frozen=True)
class Stamped:
    count: int
    stamp: int = dataclasses.field(default=0, compare=False)


@dataclasses.dataclass
class Scratch:  # not frozen: eq without hash, so Python cannot hash it
    note: str


def _fresh_interner(capacity=None):
    """A cold shared interner (disabling drops the old one)."""
    configure_interning(False)
    configure_interning(True, capacity=capacity)
    return hashing._DEFAULT_INTERNER


#: Makers of fresh values that Python's ``==`` conflates or tells apart
#: differently from the encoding: ``True == 1 == 1.0``, an ``eq=False``
#: class compares by identity, a ``compare=False`` field is not compared.
TWINS = {
    "Box(True)": lambda: Box(True),
    "Box(1)": lambda: Box(1),
    "Box(1.0)": lambda: Box(1.0),
    "Token(1)": lambda: Token(1),
    "Stamped(1, stamp=1)": lambda: Stamped(1, stamp=1),
    "Stamped(1, stamp=2)": lambda: Stamped(1, stamp=2),
    "(Box(True), 'x')": lambda: (Box(True), "x"),
    "(Box(1), 'x')": lambda: (Box(1), "x"),
    "{Box(1.0), Box(0)}": lambda: frozenset({Box(1.0), Box(0)}),
    "{Box(True), Box(0)}": lambda: frozenset({Box(True), Box(0)}),
}


def _checker_digests(value):
    """``value``'s digests through every path the checkers hash by: a
    successor or seed, a send, an event, and the plain helpers."""
    message = Message(dest=0, src=1, payload=value)
    return (
        content_hash(value),
        content_hash_and_size(value),
        canonical_and_hash(value)[1],
        message_hashes((message,)),
        event_hash(InternalEvent(Action(node=0, name="a", payload=value))),
    )


def _reference_digests(value):
    message = Message(dest=0, src=1, payload=value)
    digest = content_hash(value, intern=False)
    size = len(canonical_bytes(value, intern=False))
    return (
        digest,
        (digest, size),
        digest,
        (content_hash(message, intern=False),),
        content_hash(
            InternalEvent(Action(node=0, name="a", payload=value)), intern=False
        ),
    )


@pytest.mark.parametrize("first", sorted(TWINS))
def test_interned_digest_is_exact_whatever_was_interned_before(first):
    """Whichever twin is interned first, every later twin, fresh, gets its
    own encoding's digest — not the digest of an ``==`` value."""
    _fresh_interner()
    order = [first] + [name for name in sorted(TWINS) if name != first]
    for _ in range(2):
        for name in order:
            value = TWINS[name]()
            assert _checker_digests(value) == _reference_digests(value), name


def test_equal_but_differently_encoded_values_get_separate_entries():
    interner = _fresh_interner()
    boxes = [canonical(Box(item)) for item in (True, 1, 1.0)]
    assert len({id(box) for box in boxes}) == 3
    assert [type(box.item) for box in boxes] == [bool, int, float]
    stamped = [canonical(Stamped(1, stamp=stamp)) for stamp in (1, 2)]
    assert [item.stamp for item in stamped] == [1, 2]
    # Two eq=False objects with one encoding are one value.
    token = canonical(Token(1))
    assert canonical(Token(1)) is token
    assert len(interner) == 6


def _shape(value):
    """``value``'s types all the way down, with its primitives' reprs."""
    if isinstance(value, tuple):
        return (type(value), tuple(_shape(item) for item in value))
    if isinstance(value, frozenset):
        return (frozenset, tuple(sorted((_shape(item) for item in value), key=repr)))
    if dataclasses.is_dataclass(value):
        return (
            type(value),
            tuple(
                _shape(getattr(value, field.name))
                for field in dataclasses.fields(value)
            ),
        )
    return (type(value), repr(value))


mixed_scalars = st.one_of(
    st.booleans(),
    st.integers(-2, 2),
    st.sampled_from([0.0, -0.0, 1.0, 2.5]),
    st.sampled_from(["", "1", "a"]),
    st.sampled_from([b"", b"T", b"1"]),
    st.none(),
)


def _mixed(children):
    return st.one_of(
        st.builds(Box, children),
        st.builds(Token, st.integers(0, 2)),
        st.builds(Stamped, st.integers(0, 2), st.integers(0, 2)),
        st.tuples(children, children),
        st.tuples(children),
        st.frozensets(children, max_size=3),
    )


mixed_values = st.recursive(mixed_scalars, _mixed, max_leaves=8)


@given(st.lists(mixed_values, min_size=2, max_size=20))
@settings(max_examples=200, deadline=None)
def test_interleavings_of_mixed_values_hash_like_the_walk(sequence):
    """One process-wide interner, many fresh objects of mixed primitive
    types in the same positions: every digest and size equals the uncached
    reference, and every canonical object has the value's type structure."""
    _fresh_interner()
    for value in sequence:
        expected = (content_hash(value, intern=False), content_size(value, intern=False))
        for candidate in (value, copy.deepcopy(value)):
            assert content_hash_and_size(candidate) == expected
            same, digest = canonical_and_hash(candidate)
            assert digest == expected[0]
            assert canonical_bytes(same, intern=False) == canonical_bytes(
                value, intern=False
            )
            assert _shape(same) == _shape(value)
            assert canonical(same) is same


def test_a_probe_calls_no_model_hash_or_eq():
    """The cons key hashes children by their entries, never by value."""

    @dataclasses.dataclass(frozen=True)
    class Loud:
        item: object

        def __hash__(self):
            raise AssertionError("hashed by value")

        def __eq__(self, other):
            raise AssertionError("compared by value")

    _fresh_interner()
    first = (Loud(Box(1)), Loud(2))
    expected = content_hash(first, intern=False)
    assert content_hash(first) == expected
    assert content_hash((Loud(Box(1)), Loud(2))) == expected
    assert content_hash((Loud(Box(True)), Loud(2))) != expected


def test_fresh_equal_object_is_a_cons_hit_not_a_new_value():
    interner = _fresh_interner()
    first = Outer(Inner(1, "a"), (1, 2), "t")
    canonical_first = canonical(first)
    assert canonical_first is first and interner.is_canonical(first)
    before = intern_stats()
    twin = Outer(Inner(1, "a"), tuple([1, 2]), "t")  # a literal would be shared
    assert canonical_and_hash(twin) == (first, content_hash(first, intern=False))
    after = intern_stats()
    assert after["misses"] == before["misses"]
    assert after["entries"] == before["entries"] == 3
    # The twin's Outer, Inner and tuple were each answered by the cons table.
    assert after["value_hits"] == before["value_hits"] + 3
    assert after["hits"] == before["hits"] + 3
    assert not interner.is_canonical(twin)


def test_a_new_value_around_known_children_is_rebuilt_on_them():
    """A new value whose child is a fresh twin of a known value becomes
    canonical as a copy built around the known child."""
    _fresh_interner()
    inner = canonical(Inner(1, "a"))
    outer = Outer(Inner(1, "a"), (Inner(1, "a"),), "t")
    same = canonical(outer)
    assert same is not outer and same == outer
    assert same.inner is inner and same.items[0] is inner
    assert any(item is inner for item in canonical(frozenset({Inner(1, "a"), 3})))


def test_unhashable_and_dict_values_are_walked_and_never_stored():
    """A dict (mutable) and whatever contains one is walked every time; a
    non-frozen dataclass, which Python cannot hash, is interned by its
    fields like any other."""
    interner = _fresh_interner()
    value = ({"k": 1}, "tag")
    assert content_hash(value) == content_hash(value, intern=False)
    assert canonical(value) is value
    assert len(interner) == 0
    scratch = (Scratch("n"), 1)
    with pytest.raises(TypeError):
        hash(scratch)
    assert content_hash(scratch) == content_hash(scratch, intern=False)
    assert len(interner) == 2
    with pytest.raises(hashing.UnhashableModelValue):
        content_hash((1, [2]))


def test_tiny_capacity_evicts_and_keeps_digests():
    interner = _fresh_interner(capacity=3)
    values = [Outer(Inner(i, "a"), (i, i + 1), "t") for i in range(12)]
    for _ in range(2):
        for value in values:
            twin = dataclasses.replace(value, inner=dataclasses.replace(value.inner))
            for candidate in (value, twin):
                assert content_hash(candidate) == content_hash(candidate, intern=False)
                assert canonical_bytes(canonical(candidate), intern=False) == (
                    canonical_bytes(candidate, intern=False)
                )
            assert len(interner) <= 3
    # 12 values × (Outer + Inner + tuple) through 3 slots.
    assert interner.evictions > 12


def test_disabling_or_resizing_drops_the_tables():
    old = _fresh_interner()
    content_hash(Inner(1, "a"))
    assert len(old) == 1
    configure_interning(True, capacity=1 << 11)
    resized = hashing._DEFAULT_INTERNER
    assert resized is not old and len(resized) == 0
    content_hash(Inner(1, "a"))
    configure_interning(False)
    assert hashing._DEFAULT_INTERNER is None
    fresh = Inner(1, "a")
    assert canonical(fresh) is fresh
    assert canonical_and_hash(fresh) == (fresh, content_hash(fresh, intern=False))
    configure_interning(True)
    assert len(hashing._DEFAULT_INTERNER) == 0
    resized.clear()
    assert len(resized) == 0 and not resized.is_canonical(fresh)


# -- encodings on demand -----------------------------------------------------------


def _assert_like_the_walk(entry):
    """``entry``'s digest, then its bytes built on request, equal the
    uncached walk's."""
    walked = hashing._walk(entry.value)
    assert (entry.digest or hashing._digest(entry)) == content_hash(
        entry.value, intern=False
    )
    assert entry.encoded == walked
    assert entry.encoded is entry.encoded  # kept once built


@given(st.lists(mixed_values, min_size=1, max_size=12), st.sampled_from([1, 3, 1 << 16]))
@settings(max_examples=150, deadline=None)
def test_lazily_built_bytes_and_digest_equal_the_walks(sequence, capacity):
    """Each value is hashed top-level first, then as a tuple item, a
    frozenset member and a dataclass field; at capacity 1 and 3 entries
    are evicted meanwhile.  A new entry hashed top-level keeps no bytes; a
    parent's hash keeps its children's; and every entry, evicted or live,
    builds exactly the walk's bytes and digest."""
    interner = HashInterner(capacity)
    seen = []
    for value in sequence:
        known = {id(entry) for entry in interner._cons.values()}
        top = hashing._entry(value, interner)
        top.digest or hashing._digest(top)
        if top.key is not None and id(top) not in known:
            assert top._encoded is None
        seen.append(top)
        for parent in ((value, "child"), frozenset({value, "member"}), Box(value)):
            entry = hashing._entry(parent, interner)
            entry.digest or hashing._digest(entry)
            if entry.key is not None:
                pieces = entry.key[1] if entry.key[0] is frozenset else entry.key[1:]
                assert all(
                    piece._encoded is not None
                    for piece in pieces
                    if piece.__class__ is hashing._Entry
                )
            seen.append(entry)
    assert len(interner) <= capacity
    for entry in seen + list(interner._cons.values()):
        _assert_like_the_walk(entry)



def test_a_deep_value_is_built_one_frame_per_level():
    """Hashing a cold nested value builds its children's bytes on demand,
    as deep as the interner files it: 700 levels, past the uncached walk's
    reach at the default recursion limit."""
    _fresh_interner()
    value = ()
    for level in range(700):
        value = (level, value)
    digest = content_hash(value)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(limit + 2000)
    try:
        assert digest == content_hash(value, intern=False)
    finally:
        sys.setrecursionlimit(limit)
