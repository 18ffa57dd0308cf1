"""Shared helpers for protocol state machines.

Protocol node states must be immutable and hashable, so per-index role state
(Paxos decrees, log slots, …) is kept in *tuple maps*: sorted tuples of
``(key, value)`` pairs with functional update.  These helpers keep that idiom
terse and uniform across protocols.

Sorted by key is the contract, not a convenience: equal maps must be equal
tuples, so that equal node states hash alike.  :func:`tm_set` relies on it
and keeps it, and every shipped map is built by :func:`tm_set` from ``()``
(a map whose keys are renamed must stay sorted too: Paxos renames node ids,
never its decree-index keys).
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
    """New tuple map with ``key`` bound to ``value`` (insert or replace).

    ``entries`` must be sorted by key.  A bound key is spliced in place and
    a new one inserted before the first larger key, so the result is sorted
    without a sort.
    """
    for position, (entry_key, _) in enumerate(entries):
        if entry_key == key:
            return entries[:position] + ((key, value),) + entries[position + 1 :]
        if key < entry_key:
            return entries[:position] + ((key, value),) + entries[position:]
    return entries + ((key, value),)


def tm_keys(entries: TupleMap) -> Tuple[Any, ...]:
    """All bound keys, in map order."""
    return tuple(entry_key for entry_key, _ in entries)


def majority_of(count: int) -> int:
    """Size of a strict majority quorum among ``count`` members."""
    if count <= 0:
        raise ValueError("count must be positive")
    return count // 2 + 1
