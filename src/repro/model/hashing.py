"""Deterministic content hashing for model states, messages and events.

The paper's prototype stores *hashes of serialized states* to deduplicate
visited node states cheaply, keeps event hashes in predecessor pointers, and
reduces soundness replay to "integer comparison operations" over message
hashes (§4.2).  This module is our stand-in for MaceMC's serialization layer.

Python's built-in ``hash`` is salted per process for strings, so it cannot
serve as a *stable* content hash.  Instead we canonically encode values to
bytes and hash with BLAKE2b.  The encoding covers the vocabulary protocol
authors are allowed to use in states and payloads: primitives, tuples,
frozensets, mappings with orderable keys, and frozen dataclasses.

Interning
---------

Every handler result is hashed, every send is hashed into ``I+``, every
event hash walks the message it wraps.  Model values are immutable and
heavily shared by identity — protocol handlers build successor states with
``dataclasses.replace``, so an unchanged sub-state is the *same object* in
thousands of encoded values.  :class:`HashInterner` therefore keeps, per
tuple, frozenset and dataclass object, the encoded bytes plus the digest
once one is asked for, in an identity table the walk consults at every
composite: a hit on a nested sub-state skips the entire sub-walk.

The table holds at most ``capacity`` entries, evicts the oldest first (a hit
does not refresh an entry), and keys by ``id``; entries keep a strong
reference to their value, so a cached id can never be recycled while its
entry is alive.  Values containing ``dict``s (accepted read-only for
encoding convenience) are never cached, because a mutation would go
undetected.  Interning changes *nothing* about hash values: the cached bytes
are exactly what the uncached walk (``intern=False``) produces, a property
``tests/model/test_hash_interning.py`` checks against arbitrary values and
``tests/model/golden/encodings.json`` pins byte for byte.

Identity cannot help with the checker's commonest case: a handler re-derives
a state, or re-sends a message, that *equals* one already encoded but is a
fresh object (on two-proposal Paxos, 91% of the values the checker hashes).
For those the interner keeps a second table keyed by the value itself —
Python's own ``__hash__``/``__eq__``, which short-cut on shared sub-objects
— consulted only by ``content_hash(value, by_value=True)`` after an identity
miss; it shares ``capacity`` and the oldest-first eviction.  ``==`` is
coarser than the encoding (``True == 1 == 1.0``), so the probe is exact only
for values whose equality implies equal encodings; that is a contract on
protocol values (docs/PROTOCOL_GUIDE.md), which is why the keyword is passed
where a value came out of a protocol handler and nowhere else, and why
:func:`repro.model.conformance.check_protocol` re-derives every memoised
digest with the uncached walk.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from hashlib import blake2b
from typing import Any, Deque, Dict, Iterable, Optional, Tuple

#: Number of bytes of BLAKE2b digest retained.  64 bits keeps hash values in
#: cheap machine ints while making accidental collisions vanishingly unlikely
#: for the state-space sizes a model checker visits.
_DIGEST_BYTES = 8

# Type tags keep the encoding prefix-free across types, so e.g. the integer 1
# and the string "1" and the one-element tuple (1,) never collide.
_TAG_NONE = b"N"
_TAG_TRUE = b"T"
_TAG_FALSE = b"F"
_TAG_INT = b"i"
_TAG_FLOAT = b"f"
_TAG_STR = b"s"
_TAG_BYTES = b"b"
_TAG_TUPLE = b"t"
_TAG_FROZENSET = b"S"
_TAG_MAPPING = b"m"
_TAG_DATACLASS = b"d"


class UnhashableModelValue(TypeError):
    """A value of an unsupported type appeared inside a model state.

    Model states must be built from immutable values; lists, dicts and sets
    are rejected on purpose (they are mutable, so states containing them are
    not safe to share between explored branches).
    """


class HashInterner:
    """Identity-keyed cache of canonical encodings, plus a value memo.

    One entry per cached *object* (not per equal value): the key is
    ``id(value)`` and the entry pins the value alive, so identity is stable
    for exactly as long as the entry exists.  Stores the canonical bytes
    and — once requested — the BLAKE2b digest, so ``content_hash`` +
    ``content_size`` on the same object cost one walk.

    The value memo maps a value *itself* (``__hash__``/``__eq__``) to the
    entry of the first equal object encoded, so a fresh-but-equal object is
    answered without a walk.  Only ``by_value=True`` calls read or fill it;
    see :func:`content_hash` for the contract that makes that exact.

    Both tables hold at most ``capacity`` entries and evict oldest-first.
    Each is a plain dict beside a deque of its keys in insertion order:
    eviction pops the deque's left end, O(1), and the tables carry none of
    an ``OrderedDict``'s per-entry linked-list nodes.
    """

    __slots__ = (
        "capacity",
        "hits",
        "value_hits",
        "misses",
        "evictions",
        "_table",
        "_values",
        "_table_order",
        "_values_order",
    )

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.value_hits = 0
        self.misses = 0
        self.evictions = 0
        # id(value) -> [value, bytes, hash-or-None]
        self._table: Dict[int, list] = {}
        # value -> the same entry list the identity table holds for it
        self._values: Dict[Any, list] = {}
        # Each table's keys, oldest first.
        self._table_order: Deque[int] = deque()
        self._values_order: Deque[Any] = deque()

    def store(self, value: Any, encoded: bytes) -> None:
        """Insert the encoding of ``value``, evicting the oldest if full."""
        self._file(self._table, self._table_order, id(value), [value, encoded, None])

    def store_value(self, entry: list) -> None:
        """File ``entry`` under its value too, evicting the oldest if full."""
        self._file(self._values, self._values_order, entry[0], entry)

    def _file(self, table: dict, order: Deque[Any], key: Any, entry: list) -> None:
        size = len(table)
        table[key] = entry
        if len(table) > size:
            # A new key; a re-filed one keeps its place, as in an OrderedDict.
            order.append(key)
            if len(table) > self.capacity:
                del table[order.popleft()]
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry of both tables (counters are cumulative)."""
        self._table.clear()
        self._values.clear()
        self._table_order.clear()
        self._values_order.clear()

    def __len__(self) -> int:
        return len(self._table)

    def stats(self) -> Dict[str, int]:
        """Cumulative hit/miss/eviction counters plus the current size.

        ``hits`` counts every call answered without a walk; ``value_hits``
        is the part of it the value memo answered.
        """
        return {
            "hits": self.hits,
            "value_hits": self.value_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._table),
            "capacity": self.capacity,
        }


#: The process-wide default interner used by the module-level helpers.
_DEFAULT_INTERNER: Optional[HashInterner] = HashInterner()


def configure_interning(
    enabled: bool = True, capacity: Optional[int] = None
) -> None:
    """Enable/disable the shared interner, optionally resizing it.

    Disabling drops the cache (and its pinned values); re-enabling starts
    cold.  Used by benchmarks and the cache-equivalence tests to compare
    the interned and uncached paths.
    """
    global _DEFAULT_INTERNER
    if not enabled:
        _DEFAULT_INTERNER = None
        return
    if _DEFAULT_INTERNER is None or (
        capacity is not None and _DEFAULT_INTERNER.capacity != capacity
    ):
        _DEFAULT_INTERNER = HashInterner(capacity or 1 << 16)


def interning_enabled() -> bool:
    """True when the shared interner is active."""
    return _DEFAULT_INTERNER is not None


def intern_stats() -> Dict[str, int]:
    """Counters of the shared interner (zeros when interning is off).

    These are the cache hit/miss figures the benchmark harness (``bench/``)
    records and the checker emits as a ``hash_cache`` trace event
    (docs/OBSERVABILITY.md);
    a live interner also reports ``value_hits``, the share of ``hits`` its
    value memo answered.
    """
    if _DEFAULT_INTERNER is None:
        return {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": 0}
    return _DEFAULT_INTERNER.stats()


#: Precomputed 4-byte big-endian lengths for the overwhelmingly common case.
_LEN4 = tuple(i.to_bytes(4, "big") for i in range(1024))


def _len4(n: int) -> bytes:
    return _LEN4[n] if n < 1024 else n.to_bytes(4, "big")


#: Per-dataclass-class encoding header (tag + qualname + field count),
#: field-name tuple, and whether instances may be interned.  A dataclass's
#: fields are fixed at class creation, so this is computed once per class
#: instead of per instance.
_DATACLASS_INFO: Dict[type, Tuple[bytes, Tuple[str, ...], bool]] = {}


def equality_gap(cls: type) -> Optional[str]:
    """Why ``==`` on dataclass ``cls`` may hold between different encodings.

    Every field is encoded, so a class compared by identity (``eq=False``)
    or with a ``compare=False`` field breaks the value memo's contract
    (:func:`content_hash`).  Returns the reason, naming the field, or None.
    """
    if not cls.__dataclass_params__.eq:
        return f"{cls.__qualname__} is declared eq=False"
    for field in dataclasses.fields(cls):
        if not field.compare:
            return f"{cls.__qualname__}.{field.name} is declared compare=False"
    return None


def _dataclass_info(cls: type) -> Tuple[bytes, Tuple[str, ...], bool]:
    fields = dataclasses.fields(cls)
    name = cls.__qualname__.encode("utf-8")
    # A class with an equality gap is never interned (like a dict, it
    # poisons its ancestors), which keeps it out of the value memo.
    info = _DATACLASS_INFO[cls] = (
        _TAG_DATACLASS + _len4(len(name)) + name + _len4(len(fields)),
        tuple(field.name for field in fields),
        equality_gap(cls) is None,
    )
    return info


def _encode(value: Any, out: bytearray, interner: Optional[HashInterner]) -> bool:
    """Append the canonical encoding of ``value``; returns cacheability.

    A subtree is cacheable unless it contains a ``dict`` (the one accepted
    type that is mutable) or a dataclass with an :func:`equality_gap`;
    non-cacheable subtrees are encoded but never stored, and they poison
    their ancestors' cacheability.

    Exact-type checks for the common primitives come first (this function
    dominates checker profiles), then the interned composites — exact
    ``tuple`` and ``frozenset`` and dataclasses, looked up in and stored to
    ``interner`` when one is given.  Subclasses and rarer types go to
    :func:`_encode_other`, whose ``isinstance`` order defines the encoding.
    """
    cls = value.__class__
    if cls is int:
        body = b"%d" % value
        out += _TAG_INT + _len4(len(body)) + body
        return True
    if cls is str:
        body = value.encode("utf-8")
        out += _TAG_STR + _len4(len(body)) + body
        return True
    if value is None:
        out += _TAG_NONE
        return True
    if cls is bool:
        out += _TAG_TRUE if value else _TAG_FALSE
        return True
    if cls is not tuple and cls is not frozenset:
        info = _DATACLASS_INFO.get(cls)
        if info is None:
            if not dataclasses.is_dataclass(value) or isinstance(value, type):
                return _encode_other(value, out, interner)
            info = _dataclass_info(cls)
    if interner is not None:
        entry = interner._table.get(id(value))
        # ``entry[0] is not value`` can only happen if a caller broke the
        # immutability contract badly enough to free a cached object; treat
        # it as a miss rather than serve foreign bytes.
        if entry is not None and entry[0] is value:
            interner.hits += 1
            out += entry[1]
            return True
        interner.misses += 1
    start = len(out)
    if cls is tuple:
        cacheable = _encode_tuple(value, out, interner)
    elif cls is frozenset:
        cacheable = _encode_frozenset(value, out, interner)
    else:
        header, field_names, cacheable = info
        out += header
        for name in field_names:
            cacheable &= _encode(getattr(value, name), out, interner)
    if cacheable and interner is not None:
        interner.store(value, bytes(out[start:]))
    return cacheable


def _encode_tuple(value: tuple, out: bytearray, interner: Optional[HashInterner]) -> bool:
    out += _TAG_TUPLE + _len4(len(value))
    cacheable = True
    for item in value:
        cacheable &= _encode(item, out, interner)
    return cacheable


def _encode_frozenset(
    value: frozenset, out: bytearray, interner: Optional[HashInterner]
) -> bool:
    # Sets are unordered: encode elements individually and sort the
    # encodings so equal sets encode equally.
    cacheable = True
    pieces = []
    for item in value:
        piece = bytearray()
        cacheable &= _encode(item, piece, interner)
        pieces.append(piece)
    pieces.sort()
    out += _TAG_FROZENSET + _len4(len(pieces))
    out += b"".join(pieces)
    return cacheable


def _encode_other(value: Any, out: bytearray, interner: Optional[HashInterner]) -> bool:
    """Subclasses and rare types, never interned themselves.

    The ``isinstance`` order is the definition of the encoding — an ``int``
    subclass such as an ``IntEnum`` member encodes as an int, a namedtuple
    as a tuple — and the exact-type branches of :func:`_encode` agree with
    it byte for byte.
    """
    if isinstance(value, int):
        body = str(value).encode("ascii")
        out += _TAG_INT + _len4(len(body)) + body
    elif isinstance(value, float):
        body = repr(value).encode("ascii")
        out += _TAG_FLOAT + _len4(len(body)) + body
    elif isinstance(value, str):
        body = value.encode("utf-8")
        out += _TAG_STR + _len4(len(body)) + body
    elif isinstance(value, bytes):
        out += _TAG_BYTES + _len4(len(value)) + value
    elif isinstance(value, tuple):
        return _encode_tuple(value, out, interner)
    elif isinstance(value, frozenset):
        return _encode_frozenset(value, out, interner)
    elif isinstance(value, dict):
        # Mappings are accepted read-only for convenience in *encoding* (for
        # example a frozen dataclass exposing a derived dict); model states
        # themselves should prefer tuples of pairs.  Mutable, so neither a
        # dict nor any value containing one is ever interned.
        try:
            items = sorted(value.items())
        except TypeError as exc:  # unorderable keys
            raise UnhashableModelValue(
                f"mapping with unorderable keys in model value: {value!r}"
            ) from exc
        out += _TAG_MAPPING + _len4(len(items))
        for key, item in items:
            _encode(key, out, interner)
            _encode(item, out, interner)
        return False
    else:
        raise UnhashableModelValue(
            f"unsupported type {type(value).__name__!r} in model value: {value!r}"
        )
    return True


def canonical_bytes(value: Any, intern: bool = True) -> bytes:
    """Return the canonical, prefix-free byte encoding of ``value``.

    The encoding is deterministic across processes and Python versions that
    share ``repr`` semantics for floats (we encode floats via ``repr`` to
    remain exact for round-trippable values).  ``intern=False`` forces the
    uncached walk — the reference the property tests compare the interned
    path against; the produced bytes are identical either way.
    """
    out = bytearray()
    _encode(value, out, _DEFAULT_INTERNER if intern else None)
    return bytes(out)


def _entry(value: Any, intern: bool, by_value: bool) -> list:
    """``[value, bytes, digest]`` for ``value``, the digest filled in.

    The one path behind :func:`content_hash` and
    :func:`content_hash_and_size`: the identity table, then — with
    ``by_value`` — the value memo, then the walk.  A value the walk stored
    comes back as its identity-table entry (filed in the value memo too
    under ``by_value``), so its digest is computed once; a primitive, an
    uncacheable value or an uninterned call gets a throwaway entry.  An
    unhashable value (a ``TypeError`` from the probe) takes the plain walk
    and is never filed.
    """
    interner = _DEFAULT_INTERNER if intern else None
    if interner is None:
        entry = [value, canonical_bytes(value, intern=False), None]
    else:
        entry = interner._table.get(id(value))
        if entry is not None and entry[0] is value:
            interner.hits += 1
        else:
            entry = None
            if by_value:
                try:
                    entry = interner._values.get(value)
                except TypeError:
                    by_value = False
            if entry is not None:
                interner.hits += 1
                interner.value_hits += 1
            else:
                out = bytearray()
                _encode(value, out, interner)
                entry = interner._table.get(id(value))
                if entry is None:
                    entry = [value, bytes(out), None]
                elif by_value:
                    interner.store_value(entry)
    if entry[2] is None:
        entry[2] = int.from_bytes(
            blake2b(entry[1], digest_size=_DIGEST_BYTES).digest(), "big"
        )
    return entry


def content_hash(value: Any, intern: bool = True, by_value: bool = False) -> int:
    """Stable 64-bit content hash of a model value.

    Equal values always hash equally, across processes and runs; this is the
    identity used for visited-state dedup, predecessor pointers and the
    soundness replay's generated-message sets.

    ``by_value=True`` lets an identity miss be answered by an ``==``-equal
    value encoded earlier.  Python equality is coarser than the encoding
    (``True == 1 == 1.0``), so this is exact only under the contract of
    docs/PROTOCOL_GUIDE.md — *values of one protocol that compare equal
    encode equal* — and callers pass it only for values a protocol handler
    produced; :func:`repro.model.conformance.check_protocol` checks the
    contract.  The default stays exact for arbitrary values.
    """
    return _entry(value, intern, by_value)[2]


def content_size(value: Any, intern: bool = True) -> int:
    """Serialized size of ``value`` in bytes.

    Used by the deterministic memory accounting behind the Fig. 12
    reproduction: retained memory is the sum of serialized sizes of the
    states a checker keeps, which makes the reported series independent of
    allocator behaviour.
    """
    return len(canonical_bytes(value, intern=intern))


def content_hash_and_size(
    value: Any, intern: bool = True, by_value: bool = False
) -> Tuple[int, int]:
    """Hash and serialized size from a single canonical encoding pass.

    Callers that need both — the monotonic network stores a message by hash
    and charges its serialized size — walk (or intern) once and derive
    both.  ``by_value`` as in :func:`content_hash`.
    """
    entry = _entry(value, intern, by_value)
    return entry[2], len(entry[1])


def substitute_node_ids(value: Any, mapping: Dict[int, int]) -> Any:
    """``value`` with every node id in ``mapping`` replaced, structurally.

    A generic renaming walker over the hashable model vocabulary (primitives,
    tuples, frozensets, mappings, frozen dataclasses), used as the default
    ``rename_state`` of the symmetry contract (docs/REDUCTION.md).  Unchanged
    subtrees are returned *by identity*, so renamed values keep sharing —
    and hence interner entries — with their originals wherever possible.

    Caveat: node ids are plain ``int``s, so this walker rewrites **every**
    integer equal to a mapped node id, wherever it occurs.  That is only
    correct when no other integer field of the state (a ballot number, a
    slot index, a counter) can collide with a mapped id.  Protocols whose
    states embed such ambiguous ints must implement ``rename_state``
    themselves instead of relying on this default.
    """
    if not mapping:
        return value
    cls = value.__class__
    if cls is bool or value is None or cls is str or cls is float or cls is bytes:
        return value
    if cls is int or (isinstance(value, int) and not isinstance(value, bool)):
        return mapping.get(value, value)
    if isinstance(value, tuple):
        items = tuple(substitute_node_ids(item, mapping) for item in value)
        if all(new is old for new, old in zip(items, value)):
            return value
        if hasattr(value, "_fields"):  # namedtuple
            return cls(*items)
        return items
    if isinstance(value, frozenset):
        items = frozenset(substitute_node_ids(item, mapping) for item in value)
        return value if items == value else items
    if isinstance(value, dict):
        return {
            substitute_node_ids(key, mapping): substitute_node_ids(item, mapping)
            for key, item in value.items()
        }
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        changes = {}
        for field in dataclasses.fields(value):
            old = getattr(value, field.name)
            new = substitute_node_ids(old, mapping)
            if new is not old:
                changes[field.name] = new
        return dataclasses.replace(value, **changes) if changes else value
    return value


def hash_many(values: Iterable[Any]) -> Dict[int, Any]:
    """Hash each value, returning a ``hash -> value`` mapping.

    Convenience helper for tests and debugging tools that need to resolve
    hashes back to values.
    """
    return {content_hash(value): value for value in values}
