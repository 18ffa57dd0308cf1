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

Canonical encoding sits inside the checker's innermost loops: every handler
result is hashed, every send is hashed into ``I+``, every event hash walks
the message it wraps.  Model values are immutable and heavily shared by
identity — protocol handlers build successor states with
``dataclasses.replace``, so an unchanged sub-state is the *same object* in
thousands of encoded values — which makes an identity-keyed cache of
canonical encodings both safe and very effective.  :class:`HashInterner`
caches, per composite object, the encoded bytes plus the derived digest and
size; :func:`canonical_encode` consults it recursively, so a cache hit on a
nested sub-state skips the entire sub-walk.

The cache is an LRU bounded by ``capacity`` entries and keyed by ``id``;
entries keep a strong reference to their value, so a cached id can never be
recycled while its entry is alive.  Values containing ``dict``s (accepted
read-only for encoding convenience) are never cached, because a mutation
would go undetected.  Interning changes *nothing* about hash values: the
cached bytes are exactly what the uncached walk would produce, a property
``tests/model/test_hash_interning.py`` checks against arbitrary values.

Identity cannot help with the checker's commonest case: a handler re-derives
a state, or re-sends a message, that *equals* one already encoded but is a
fresh object (on two-proposal Paxos, 91% of the values the checker hashes).
For those the interner keeps a second table keyed by the value itself —
Python's own ``__hash__``/``__eq__``, which short-cut on shared sub-objects
— consulted only by ``content_hash(value, by_value=True)`` after an identity
miss.  ``==`` is coarser than the encoding (``True == 1 == 1.0``), so the
probe is exact only for values whose equality implies equal encodings; that
is a contract on protocol values (docs/PROTOCOL_GUIDE.md), which is why the
keyword is passed where a value came out of a protocol handler and nowhere
else, and why :func:`repro.model.conformance.check_protocol` re-derives
every memoised digest with the uncached walk.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from hashlib import blake2b
from typing import Any, Dict, Iterable, Optional, Tuple

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
    """Identity-keyed LRU cache of canonical encodings, plus a value memo.

    One entry per cached *object* (not per equal value): the key is
    ``id(value)`` and the entry pins the value alive, so identity is stable
    for exactly as long as the entry exists.  Stores the canonical bytes,
    the serialized size, and — once requested — the BLAKE2b digest, so
    ``content_hash`` + ``content_size`` on the same object cost one walk.

    The value memo maps a value *itself* (``__hash__``/``__eq__``) to the
    entry of the first equal object encoded, so a fresh-but-equal object is
    answered without a walk.  Only ``by_value=True`` calls read or fill it;
    see :func:`content_hash` for the contract that makes that exact.  It
    shares ``capacity`` with the identity table and evicts oldest-first.
    """

    __slots__ = (
        "capacity", "hits", "value_hits", "misses", "evictions", "_table", "_values"
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
        self._table: "OrderedDict[int, list]" = OrderedDict()
        # value -> the same entry list the identity table holds for it
        self._values: "OrderedDict[Any, list]" = OrderedDict()

    def lookup(self, value: Any) -> Optional[list]:
        """The cache entry for ``value``, refreshed in the LRU, or None."""
        entry = self._table.get(id(value))
        if entry is None or entry[0] is not value:
            # ``entry[0] is not value`` can only happen if a caller broke
            # the immutability contract badly enough to free a cached
            # object; treat it as a miss rather than serve foreign bytes.
            return None
        self._table.move_to_end(id(value))
        return entry

    def store(self, value: Any, encoded: bytes) -> list:
        """Insert the encoding of ``value``, evicting LRU entries if full."""
        entry = [value, encoded, None]
        self._table[id(value)] = entry
        if len(self._table) > self.capacity:
            self._table.popitem(last=False)
            self.evictions += 1
        return entry

    def store_value(self, entry: list) -> None:
        """File ``entry`` under its value too, evicting the oldest if full."""
        self._values[entry[0]] = entry
        if len(self._values) > self.capacity:
            self._values.popitem(last=False)
            self.evictions += 1

    def clear(self) -> None:
        """Drop every entry of both tables (counters are cumulative)."""
        self._table.clear()
        self._values.clear()

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

    These are the cache hit/miss figures ``tools/bench.py`` records and the
    checker emits as a ``hash_cache`` trace event (docs/OBSERVABILITY.md);
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


#: Value-keyed caches of full primitive encodings (tag + length + body).
#: Ints and strings recur constantly inside states (node ids, ballots,
#: indexes, value strings); both types are immutable and exactly typed here,
#: so value keying is safe.  Cleared wholesale when they grow past the cap.
#: Gated by :func:`configure_encoding_caches` so benchmarks can compare the
#: cached hot path against the original encode-everything-every-time walk.
_INT_ENCODINGS: Dict[int, bytes] = {}
_STR_ENCODINGS: Dict[str, bytes] = {}
_PRIMITIVE_CACHE_CAP = 1 << 15
_ENCODING_CACHES = True


def configure_encoding_caches(enabled: bool = True) -> None:
    """Toggle the value-keyed primitive/dataclass-header encoding caches.

    Disabling also clears them.  Used by ``tools/bench.py`` to measure the
    unoptimized baseline; the produced encodings are identical either way.
    """
    global _ENCODING_CACHES
    _ENCODING_CACHES = enabled
    if not enabled:
        _INT_ENCODINGS.clear()
        _STR_ENCODINGS.clear()
        _DATACLASS_INFO.clear()

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
    info = _DATACLASS_INFO.get(cls)
    if info is None:
        fields = dataclasses.fields(cls)
        name = cls.__qualname__.encode("utf-8")
        header = _TAG_DATACLASS + _len4(len(name)) + name + _len4(len(fields))
        # A class with an equality gap is never interned (like a dict, it
        # poisons its ancestors), which keeps it out of the value memo.
        info = (
            header,
            tuple(field.name for field in fields),
            equality_gap(cls) is None,
        )
        if _ENCODING_CACHES:
            _DATACLASS_INFO[cls] = info
    return info


def _encode(value: Any, out: bytearray, interner: Optional[HashInterner]) -> bool:
    """Append the canonical encoding of ``value``; returns cacheability.

    A subtree is cacheable unless it contains a ``dict`` (the one accepted
    type that is mutable) or a dataclass with an :func:`equality_gap`;
    non-cacheable subtrees are encoded but never stored, and they poison
    their ancestors' cacheability.

    The branch order is frequency-tuned (this function dominates checker
    profiles): exact-type checks for the common primitives first, then the
    interned composites, with subclasses and rarer types handled by
    :func:`_encode_slow` — whose branch chain is the original, and hence
    the defining, encoding semantics.
    """
    cls = value.__class__
    if cls is int:
        if _ENCODING_CACHES:
            piece = _INT_ENCODINGS.get(value)
            if piece is None:
                body = str(value).encode("ascii")
                piece = _TAG_INT + _len4(len(body)) + body
                if len(_INT_ENCODINGS) >= _PRIMITIVE_CACHE_CAP:
                    _INT_ENCODINGS.clear()
                _INT_ENCODINGS[value] = piece
            out += piece
        else:
            body = str(value).encode("ascii")
            out += _TAG_INT + _len4(len(body)) + body
        return True
    if cls is str:
        if _ENCODING_CACHES:
            piece = _STR_ENCODINGS.get(value)
            if piece is None:
                body = value.encode("utf-8")
                piece = _TAG_STR + _len4(len(body)) + body
                if len(_STR_ENCODINGS) >= _PRIMITIVE_CACHE_CAP:
                    _STR_ENCODINGS.clear()
                _STR_ENCODINGS[value] = piece
            out += piece
        else:
            body = value.encode("utf-8")
            out += _TAG_STR + _len4(len(body)) + body
        return True
    if value is None:
        out += _TAG_NONE
        return True
    if cls is bool:
        out += _TAG_TRUE if value else _TAG_FALSE
        return True
    if cls is tuple:
        if interner is None:
            out += _TAG_TUPLE
            out += _len4(len(value))
            for item in value:
                _encode(item, out, None)
            return True
        key = id(value)
        entry = interner._table.get(key)
        if entry is not None and entry[0] is value:
            interner._table.move_to_end(key)
            interner.hits += 1
            out += entry[1]
            return True
        interner.misses += 1
        piece = bytearray(_TAG_TUPLE)
        piece += _len4(len(value))
        cacheable = True
        table = interner._table
        for item in value:
            # Inlined leaf dispatch: composites recurse through _encode
            # maybe a dozen times per fresh state, but leaves number in the
            # hundreds — the call overhead is the cost, not the encoding.
            icls = item.__class__
            if icls is int:
                if _ENCODING_CACHES:
                    enc = _INT_ENCODINGS.get(item)
                    if enc is not None:
                        piece += enc
                        continue
            elif icls is str:
                if _ENCODING_CACHES:
                    enc = _STR_ENCODINGS.get(item)
                    if enc is not None:
                        piece += enc
                        continue
            elif item is None:
                piece += _TAG_NONE
                continue
            else:
                child = table.get(id(item))
                if child is not None and child[0] is item:
                    interner.hits += 1
                    piece += child[1]
                    continue
            cacheable &= _encode(item, piece, interner)
        if cacheable:
            entry = [value, bytes(piece), None]
            table[id(value)] = entry
            if len(table) > interner.capacity:
                table.popitem(last=False)
                interner.evictions += 1
        out += piece
        return cacheable
    if cls is frozenset:
        if interner is not None:
            key = id(value)
            entry = interner._table.get(key)
            if entry is not None and entry[0] is value:
                interner._table.move_to_end(key)
                interner.hits += 1
                out += entry[1]
                return True
            interner.misses += 1
        # Sets are unordered: encode elements individually and sort the
        # encodings so equal sets encode equally.
        cacheable = True
        encodings = []
        for item in value:
            piece = bytearray()
            cacheable &= _encode(item, piece, interner)
            encodings.append(bytes(piece))
        encodings.sort()
        body = bytearray(_TAG_FROZENSET)
        body += _len4(len(encodings))
        for piece in encodings:
            body += piece
        if interner is not None and cacheable:
            interner.store(value, bytes(body))
        out += body
        return cacheable
    info = _DATACLASS_INFO.get(cls)
    if info is not None or (
        dataclasses.is_dataclass(value) and not isinstance(value, type)
    ):
        if interner is None:
            return _encode_dataclass(value, out, None)
        key = id(value)
        entry = interner._table.get(key)
        if entry is not None and entry[0] is value:
            interner._table.move_to_end(key)
            interner.hits += 1
            out += entry[1]
            return True
        interner.misses += 1
        if info is None:
            info = _dataclass_info(cls)
        header, field_names, cacheable = info
        piece = bytearray(header)
        table = interner._table
        for name in field_names:
            item = getattr(value, name)
            # Same inlined leaf dispatch as the tuple branch above.
            icls = item.__class__
            if icls is int:
                if _ENCODING_CACHES:
                    enc = _INT_ENCODINGS.get(item)
                    if enc is not None:
                        piece += enc
                        continue
            elif icls is str:
                if _ENCODING_CACHES:
                    enc = _STR_ENCODINGS.get(item)
                    if enc is not None:
                        piece += enc
                        continue
            elif item is None:
                piece += _TAG_NONE
                continue
            else:
                child = table.get(id(item))
                if child is not None and child[0] is item:
                    interner.hits += 1
                    piece += child[1]
                    continue
            cacheable &= _encode(item, piece, interner)
        if cacheable:
            entry = [value, bytes(piece), None]
            table[id(value)] = entry
            if len(table) > interner.capacity:
                table.popitem(last=False)
                interner.evictions += 1
        out += piece
        return cacheable
    return _encode_slow(value, out, interner)


def _encode_dataclass(
    value: Any, out: bytearray, interner: Optional[HashInterner]
) -> bool:
    """The dataclass branch of :func:`_encode`, shared by both paths."""
    header, field_names, cacheable = _dataclass_info(value.__class__)
    out += header
    for name in field_names:
        cacheable &= _encode(getattr(value, name), out, interner)
    return cacheable


def _encode_slow(
    value: Any, out: bytearray, interner: Optional[HashInterner]
) -> bool:
    """Rare types and subclasses: the original isinstance-ordered chain.

    Anything here encodes exactly as it always did — e.g. an ``int``
    subclass via the int branch, a namedtuple via the tuple branch — so the
    fast exact-type dispatch above never changes a hash value.
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
        out += _TAG_TUPLE + _len4(len(value))
        cacheable = True
        for item in value:
            cacheable &= _encode(item, out, interner)
        return cacheable
    elif isinstance(value, frozenset):
        cacheable = True
        encodings = []
        for item in value:
            piece = bytearray()
            cacheable &= _encode(item, piece, interner)
            encodings.append(bytes(piece))
        encodings.sort()
        out += _TAG_FROZENSET + _len4(len(encodings))
        for piece in encodings:
            out += piece
        return cacheable
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


def canonical_encode(value: Any, out: bytearray) -> None:
    """Append a canonical, prefix-free byte encoding of ``value`` to ``out``.

    The encoding is deterministic across processes and Python versions that
    share ``repr`` semantics for floats (we encode floats via ``repr`` to
    remain exact for round-trippable values).  Consults the shared interner
    when one is configured; the produced bytes are identical either way.
    """
    _encode(value, out, _DEFAULT_INTERNER)


def canonical_bytes(value: Any, intern: bool = True) -> bytes:
    """Return the canonical byte encoding of ``value``.

    ``intern=False`` forces the uncached walk — the reference the property
    tests compare the interned path against.
    """
    interner = _DEFAULT_INTERNER if intern else None
    if interner is not None:
        entry = interner.lookup(value)
        if entry is not None:
            interner.hits += 1
            return entry[1]
    out = bytearray()
    _encode(value, out, interner)
    return bytes(out)


def _interned_entry(value: Any, by_value: bool) -> list:
    """The entry for ``value`` after an identity miss in the shared interner.

    With ``by_value`` the value memo is probed first, and a value that had
    to be encoded after all is filed there too.  An unhashable value (a
    ``TypeError`` from the probe) takes the plain walk and is never filed.
    """
    interner = _DEFAULT_INTERNER
    if by_value:
        try:
            entry = interner._values.get(value)
        except TypeError:
            by_value = False
        else:
            if entry is not None:
                interner.hits += 1
                interner.value_hits += 1
                return entry
    out = bytearray()
    cacheable = _encode(value, out, interner)
    # _encode already stored cacheable composites; fetch the entry it made
    # (primitives and uncacheable values land here with entry None).
    if cacheable:
        entry = interner._table.get(id(value))
        if entry is not None and entry[0] is value:
            if by_value:
                interner.store_value(entry)
            return entry
    return [value, bytes(out), None]


def content_hash(value: Any, intern: bool = True, by_value: bool = False) -> int:
    """Stable 64-bit content hash of a model value.

    Equal values always hash equally, across processes and runs; this is the
    identity used for visited-state dedup, predecessor pointers and the
    soundness replay's generated-message sets.  The hit path is inlined —
    one dict probe, no LRU touch — because this function sits inside the
    checker's innermost loops; recency bookkeeping is worth paying only on
    the (much rarer) encode path.

    ``by_value=True`` lets an identity miss be answered by an ``==``-equal
    value encoded earlier.  Python equality is coarser than the encoding
    (``True == 1 == 1.0``), so this is exact only under the contract of
    docs/PROTOCOL_GUIDE.md — *values of one protocol that compare equal
    encode equal* — and callers pass it only for values a protocol handler
    produced; :func:`repro.model.conformance.check_protocol` checks the
    contract.  The default stays exact for arbitrary values.
    """
    interner = _DEFAULT_INTERNER
    if intern and interner is not None:
        entry = interner._table.get(id(value))
        if entry is not None and entry[0] is value:
            interner.hits += 1
        else:
            entry = _interned_entry(value, by_value)
        digest = entry[2]
        if digest is None:
            digest = int.from_bytes(
                blake2b(entry[1], digest_size=_DIGEST_BYTES).digest(), "big"
            )
            entry[2] = digest
        return digest
    digest = blake2b(
        canonical_bytes(value, intern=False), digest_size=_DIGEST_BYTES
    ).digest()
    return int.from_bytes(digest, "big")


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
    and charges its serialized size — previously encoded twice; this walks
    (or interns) once and derives both.  ``by_value`` as in
    :func:`content_hash`.
    """
    interner = _DEFAULT_INTERNER
    if intern and interner is not None:
        entry = interner._table.get(id(value))
        if entry is not None and entry[0] is value:
            interner.hits += 1
        else:
            entry = _interned_entry(value, by_value)
        digest = entry[2]
        if digest is None:
            digest = int.from_bytes(
                blake2b(entry[1], digest_size=_DIGEST_BYTES).digest(), "big"
            )
            entry[2] = digest
        return digest, len(entry[1])
    encoded = canonical_bytes(value, intern=False)
    digest = blake2b(encoded, digest_size=_DIGEST_BYTES).digest()
    return int.from_bytes(digest, "big"), len(encoded)


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
