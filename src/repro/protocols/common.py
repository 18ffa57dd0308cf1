"""Shared helpers for protocol state machines.

Protocol node states must be immutable and hashable, so per-index role state
(Paxos decrees, log slots, …) is kept in *tuple maps*: sorted tuples of
``(key, value)`` pairs with functional update.  These helpers keep that idiom
terse and uniform across protocols.
"""

from __future__ import annotations

from typing import Any, Tuple

#: A sorted immutable mapping as a tuple of (key, value) pairs.
TupleMap = Tuple[Tuple[Any, Any], ...]


def tm_get(entries: TupleMap, key: Any, default: Any = None) -> Any:
    """Value stored under ``key``, or ``default``."""
    for entry_key, value in entries:
        if entry_key == key:
            return value
    return default


def tm_set(entries: TupleMap, key: Any, value: Any) -> TupleMap:
    """New tuple map with ``key`` bound to ``value`` (insert or replace)."""
    filtered = tuple(entry for entry in entries if entry[0] != key)
    return tuple(sorted(filtered + ((key, value),)))


def tm_keys(entries: TupleMap) -> Tuple[Any, ...]:
    """All bound keys, in map order."""
    return tuple(entry_key for entry_key, _ in entries)


def majority_of(count: int) -> int:
    """Size of a strict majority quorum among ``count`` members."""
    if count <= 0:
        raise ValueError("count must be positive")
    return count // 2 + 1
