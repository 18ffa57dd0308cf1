"""Property tests for the hash interning cache.

The contract of :class:`repro.model.hashing.HashInterner` is that it is
*invisible*: for any model value, the interned encoding, hash and size must
equal what the uncached walk produces — including after evictions, repeat
lookups, and for values that are never cacheable (anything containing a
``dict``).  These tests exercise that contract over arbitrary values.
"""

import copy
import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.model import hashing
from repro.model.hashing import (
    HashInterner,
    canonical_bytes,
    configure_interning,
    content_hash,
    content_hash_and_size,
    content_size,
    intern_stats,
    interning_enabled,
)


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
        out = bytearray()
        hashing._encode(value, out, interner)
        assert bytes(out) == canonical_bytes(value, intern=False)
    assert len(interner) <= 3
    if len(set(map(id, items))) > 3:
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


# -- the value memo (``by_value=True``) -----------------------------------------
#
# Its contract (docs/PROTOCOL_GUIDE.md): values that compare equal encode
# equal.  Type-stable strategies keep it — each position only ever holds one
# type — so the memo, shared across a whole *sequence* of values as it is
# across a checker run, must stay invisible.


@dataclasses.dataclass(frozen=True)
class Ledger:
    owner: int
    entries: tuple  # a tuple map: ((key, Inner), ...)
    voters: frozenset


@dataclasses.dataclass
class Scratch:  # not frozen: eq without hash, so Python cannot hash it
    note: str


@dataclasses.dataclass(frozen=True)
class Stamped:
    count: int
    stamp: int = dataclasses.field(default=0, compare=False)


def _fresh_interner(capacity=None):
    """A cold shared interner (disabling drops the old one)."""
    configure_interning(False)
    configure_interning(True, capacity=capacity)
    return hashing._DEFAULT_INTERNER


inners = st.builds(Inner, st.integers(-3, 3), st.sampled_from(["", "a", "b"]))
ledgers = st.builds(
    Ledger,
    st.integers(0, 2),
    st.lists(st.tuples(st.integers(0, 3), inners), max_size=3).map(tuple),
    st.frozensets(st.integers(0, 3), max_size=3),
)
stable_values = st.one_of(
    inners,
    ledgers,
    st.builds(Outer, inners, st.tuples(st.integers(0, 2), ledgers), st.just("t")),
    st.tuples(st.sampled_from(["x", "y"]), inners),
)


@given(st.lists(stable_values, min_size=2, max_size=25))
@settings(max_examples=150)
def test_by_value_agrees_with_uncached_across_a_sequence(sequence):
    """One process-wide memo, many fresh-but-equal objects: every by-value
    digest and size equals the uncached reference."""
    for value in sequence:
        expected = canonical_bytes(value, intern=False)
        expected_hash = content_hash(value, intern=False)
        for candidate in (value, copy.deepcopy(value)):
            assert content_hash(candidate, by_value=True) == expected_hash
            assert content_hash_and_size(candidate, by_value=True) == (
                expected_hash,
                len(expected),
            )


def test_fresh_equal_object_is_a_value_hit_not_an_encode():
    _fresh_interner()
    first = Outer(Inner(1, "a"), (1, 2), "t")
    content_hash(first, by_value=True)
    before = intern_stats()
    twin = Outer(Inner(1, "a"), (1, 2), "t")
    assert content_hash(twin, by_value=True) == content_hash(first, intern=False)
    after = intern_stats()
    assert after["misses"] == before["misses"]
    assert after["value_hits"] == before["value_hits"] + 1
    # Value hits are hits: the published hit share counts them.
    assert after["hits"] == before["hits"] + 1
    # The twin itself is not pinned: no new identity entry.
    assert after["entries"] == before["entries"]


def test_plain_content_hash_stays_exact_beside_the_memo():
    """``True == 1`` in Python; the default entry point never conflates them,
    whatever the memo already holds."""
    _fresh_interner()

    def pair(first):  # a fresh object each time (literals are shared constants)
        return tuple([first, "x"])

    one, true, real = (content_hash(pair(v), intern=False) for v in (1, True, 1.0))
    assert len({one, true, real}) == 3
    assert content_hash(pair(1), by_value=True) == one
    assert content_hash(pair(1)) == one
    assert content_hash(pair(True)) == true
    assert content_hash(pair(1.0)) == real
    assert content_hash_and_size(pair(True))[0] == true
    # Why the memo is opt-in: outside its contract it serves the twin's digest.
    assert content_hash(pair(True), by_value=True) == one


def test_unhashable_values_fall_through_and_are_never_stored():
    """Python cannot hash a dict or a non-frozen dataclass: the probe's
    ``TypeError`` falls through to the walk and the memo stays empty."""
    interner = _fresh_interner()
    for value in (({"k": 1}, "tag"), (Scratch("n"), 1)):
        with pytest.raises(TypeError):
            hash(value)
        expected = content_hash(value, intern=False)
        before = intern_stats()["value_hits"]
        assert content_hash(value, by_value=True) == expected
        assert content_hash_and_size(value, by_value=True)[0] == expected
        assert intern_stats()["value_hits"] == before
        assert len(interner._values) == 0
    with pytest.raises(hashing.UnhashableModelValue):
        content_hash((1, [2]), by_value=True)
    assert len(interner._values) == 0


def test_equality_gap_classes_are_refused():
    """``==`` ignores ``stamp`` but the encoding does not: never memoised."""
    interner = _fresh_interner()
    a, b = (Stamped(1, stamp=1), "s"), (Stamped(1, stamp=2), "s")
    assert a == b
    assert content_hash(a, by_value=True) == content_hash(a, intern=False)
    assert content_hash(b, by_value=True) == content_hash(b, intern=False)
    assert content_hash(a, by_value=True) != content_hash(b, by_value=True)
    assert len(interner) == 0 and len(interner._values) == 0
    assert "Stamped.stamp" in hashing.equality_gap(Stamped)
    assert hashing.equality_gap(Inner) is None


def test_tiny_capacity_evicts_from_both_tables_and_keeps_digests():
    interner = _fresh_interner(capacity=3)
    values = [Outer(Inner(i, "a"), (i, i + 1), "t") for i in range(12)]
    for _ in range(2):
        for value in values:
            twin = dataclasses.replace(value, inner=dataclasses.replace(value.inner))
            for candidate in (value, twin):
                assert content_hash(candidate, by_value=True) == content_hash(
                    candidate, intern=False
                )
            assert len(interner) <= 3
            assert len(interner._values) <= 3
    # 12 values × (Outer + Inner + tuple) through 3 + 3 slots.
    assert interner.evictions > 12


def test_disabling_or_resizing_drops_both_tables():
    old = _fresh_interner()
    content_hash(Inner(1, "a"), by_value=True)
    assert len(old) == 1 and len(old._values) == 1
    configure_interning(True, capacity=1 << 11)
    resized = hashing._DEFAULT_INTERNER
    assert resized is not old and len(resized) == 0 and len(resized._values) == 0
    content_hash(Inner(1, "a"), by_value=True)
    configure_interning(False)
    assert hashing._DEFAULT_INTERNER is None
    assert content_hash(Inner(1, "a"), by_value=True) == content_hash(
        Inner(1, "a"), intern=False
    )
    configure_interning(True)
    assert len(hashing._DEFAULT_INTERNER._values) == 0
    resized.clear()
    assert len(resized) == 0 and len(resized._values) == 0
