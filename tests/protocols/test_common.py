"""Tests for shared protocol helpers (tuple maps, quorums)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.protocols.common import majority_of, tm_get, tm_keys, tm_set


class TestTupleMap:
    def test_get_default(self):
        assert tm_get((), 1) is None
        assert tm_get((), 1, "d") == "d"
        assert tm_get(((1, "a"),), 1) == "a"

    def test_set_inserts_sorted(self):
        entries = tm_set((), 2, "b")
        entries = tm_set(entries, 1, "a")
        assert entries == ((1, "a"), (2, "b"))

    def test_set_replaces(self):
        entries = tm_set(((1, "a"),), 1, "z")
        assert entries == ((1, "z"),)

    def test_keys(self):
        entries = ((1, "a"), (3, "c"))
        assert tm_keys(entries) == (1, 3)

    @given(st.dictionaries(st.integers(), st.text(max_size=5), max_size=8))
    def test_tuple_map_models_dict(self, mapping):
        entries = ()
        for key, value in mapping.items():
            entries = tm_set(entries, key, value)
        assert dict(entries) == mapping
        assert tm_keys(entries) == tuple(sorted(mapping))
        for key, value in mapping.items():
            assert tm_get(entries, key) == value

    @given(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=5), st.integers()),
            max_size=12,
        )
    )
    def test_last_write_wins(self, writes):
        entries = ()
        expected = {}
        for key, value in writes:
            entries = tm_set(entries, key, value)
            expected[key] = value
        assert dict(entries) == expected


def _filter_and_sort(entries, key, value):
    """``tm_set`` as it was first defined: drop the key, append, re-sort."""
    filtered = tuple(entry for entry in entries if entry[0] != key)
    return tuple(sorted(filtered + ((key, value),)))


class TestTupleMapSplice:
    """``tm_set`` splices instead of re-sorting; on every sorted map it
    must still build exactly what the filter-and-sort definition built."""

    @given(
        st.dictionaries(st.integers(-5, 5), st.integers(), max_size=8),
        st.integers(-6, 6),
        st.integers(),
    )
    def test_int_keys_inserted_or_rebound(self, mapping, key, value):
        entries = tuple(sorted(mapping.items()))
        assert tm_set(entries, key, value) == _filter_and_sort(entries, key, value)

    @given(
        st.dictionaries(st.text(max_size=2), st.text(max_size=3), max_size=6),
        st.text(max_size=2),
        st.text(max_size=3),
    )
    def test_text_keys_inserted_or_rebound(self, mapping, key, value):
        entries = tuple(sorted(mapping.items()))
        assert tm_set(entries, key, value) == _filter_and_sort(entries, key, value)

    @given(
        st.dictionaries(st.integers(-5, 5), st.integers(), min_size=1, max_size=8),
        st.data(),
    )
    def test_a_bound_key_is_rebound_in_place(self, mapping, data):
        entries = tuple(sorted(mapping.items()))
        key = data.draw(st.sampled_from(sorted(mapping)))
        rebound = tm_set(entries, key, "new")
        assert rebound == _filter_and_sort(entries, key, "new")
        assert tm_keys(rebound) == tm_keys(entries)


class TestMajority:
    @pytest.mark.parametrize(
        "count,expected", [(1, 1), (2, 2), (3, 2), (4, 3), (5, 3), (7, 4)]
    )
    def test_majority(self, count, expected):
        assert majority_of(count) == expected

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            majority_of(0)

    @given(st.integers(min_value=1, max_value=100))
    def test_two_majorities_intersect(self, count):
        # the quorum-intersection property Paxos relies on
        quorum = majority_of(count)
        assert 2 * quorum > count
