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
event hash walks the message it wraps, and most of those values are fresh
objects equal to one already hashed: a handler re-derives a state, or
re-sends a message, that another interleaving produced before.
:class:`HashInterner` hash-conses them.  It keeps one entry per *distinct*
tuple, frozenset and dataclass value: a canonical object, its cons key and,
once asked for, its digest.  Like the paper's
prototype, which keeps hashes of serialized states rather than the
serializations, it does not keep a value's canonical bytes by default.

A value is looked up in two steps.  The identity table maps the ``id`` of
each canonical object to its entry, so a canonical object (and each of its
canonical sub-objects) is answered with one dict probe.  On an identity
miss, the cons table is keyed by the value's class and its *pieces*, one
per field or item: a child's canonical entry (itself found the same way,
and hashed by identity), an exact ``int`` or ``str``, ``None``, or — for a
``bool``, a ``float``, ``bytes`` and subclasses of the primitives — the
child's own canonical encoding (with its class, for a subclass), so
``True``, ``1`` and ``1.0`` are three different pieces.  A frozenset's
pieces form a frozenset.  The key is exact: two values have the same key
exactly when they have the same type structure and encoding, so a probe
walks only the fresh spine of a value, never calls a model value's
``__hash__`` or ``__eq__``, and needs no contract from the protocol.  A
new value becomes canonical itself — or, if some child was a fresh object
equal to a canonical one, a copy built around the canonical children does.

Only a new value pays for its encoding, and only when something reads it.
Its bytes are its key's pieces joined: the header, then each child's
bytes (sorted, for a frozenset).  Hashing a value joins them, hashes them
and drops them, so a node state's encoding lives for one ``blake2b`` call
(a size builds them again).  A value's bytes are kept once something asks
for them as bytes: a parent joining its children, or
:func:`canonical_bytes`.  So the interner holds the encodings of the
values that occur inside other values, not those of the top-level states
the checker hashes; a top-level value that later becomes a child is
encoded once more, then kept.

:func:`canonical_and_hash` and :func:`canonical` hand out the canonical
object.  The checker stores that object instead of the handler's: the
execution kernel, seeding, checkpoint decoding and the parallel merge all
substitute it, so records and ``I+`` share sub-objects with one another and
with the interner, and later walks over them hit the identity table.

The tables hold at most ``capacity`` entries and evict the oldest first (a
hit does not refresh an entry).  Entries pin their canonical object, so a
cached ``id`` can never be recycled while its entry is alive, and a parent
entry's key pins its children's entries.  A value containing a ``dict``
(accepted read-only for encoding convenience), a subclass of ``tuple`` or
``frozenset``, or a frozenset with two elements that encode alike is never
cached: they are walked every time and poison their ancestors.  Interning
changes *nothing* about hash values: the bytes an entry builds are exactly
what the uncached walk (``intern=False``) produces, a property
``tests/model/test_hash_interning.py`` checks against arbitrary values and
interleavings of them, and ``tests/model/golden/encodings.json`` pins byte
for byte.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from hashlib import blake2b
from operator import attrgetter
from typing import Any, Callable, Deque, Dict, Iterable, Iterator, Optional, Tuple

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


class _Entry:
    """One distinct value: its canonical object, cons key and digest.

    Hashed and compared by identity, so an entry can stand for its value
    inside a parent's cons key.  The key is the tuple the cons table
    already owns.  Only a new value pays for its encoding, and only once
    something reads it: :attr:`encoded` joins the key's pieces on first
    request and keeps the bytes; hashing builds them, records the digest
    and keeps nothing else.  A throwaway entry (an uncached walk) has no
    key: its bytes are set at construction.
    """

    __slots__ = ("value", "key", "_encoded", "digest")

    def __init__(self, value: Any, key: Optional[tuple], encoded: Optional[bytes] = None):
        self.value = value
        self.key = key
        self._encoded = encoded
        self.digest: Optional[int] = None

    @property
    def encoded(self) -> bytes:
        """The canonical bytes, built from the key on first request and kept."""
        encoded = self._encoded
        if encoded is None:
            encoded = self._encoded = _build(self)
        return encoded


class HashInterner:
    """Hash-consing table of model values: one entry per distinct value.

    ``_table`` maps ``id(canonical object)`` to its entry; ``_cons`` maps
    the value's key — its class and pieces (module docstring) — to the same
    entry; ``_order`` holds the keys oldest first, so eviction pops its
    left end in O(1).  Both dicts hold exactly the live entries.  Only a
    new value pays for its encoding, and an entry holds its bytes only
    once a parent's encoding or :func:`canonical_bytes` has asked for them
    (:class:`_Entry`).
    """

    __slots__ = (
        "capacity",
        "identity_hits",
        "cons_hits",
        "misses",
        "evictions",
        "_table",
        "_cons",
        "_order",
    )

    def __init__(self, capacity: int = 1 << 16):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        #: Answers by the identity table (a canonical object) and by the
        #: cons table (a fresh object equal to a known value).
        self.identity_hits = 0
        self.cons_hits = 0
        self.misses = 0
        self.evictions = 0
        self._table: Dict[int, _Entry] = {}
        self._cons: Dict[tuple, _Entry] = {}
        self._order: Deque[tuple] = deque()

    def _file(self, key: tuple, value: Any) -> _Entry:
        """Enter a new value with canonical object ``value``."""
        entry = _Entry(value, key)
        self._table[id(value)] = entry
        self._cons[key] = entry
        self._order.append(key)
        self.misses += 1
        if len(self._cons) > self.capacity:
            oldest = self._cons.pop(self._order.popleft())
            del self._table[id(oldest.value)]
            self.evictions += 1
        return entry

    def is_canonical(self, value: Any) -> bool:
        """True when ``value`` is the canonical object of a live entry."""
        entry = self._table.get(id(value))
        return entry is not None and entry.value is value

    def entries(self) -> Iterator[Tuple[Any, bytes]]:
        """``(canonical object, canonical bytes)`` per entry, oldest first.

        Bytes an entry does not hold are built for the caller and not kept.
        """
        for entry in self._cons.values():
            yield entry.value, entry._encoded or _build(entry)

    def clear(self) -> None:
        """Drop every entry (counters are cumulative)."""
        self._table.clear()
        self._cons.clear()
        self._order.clear()

    def __len__(self) -> int:
        return len(self._cons)

    def stats(self) -> Dict[str, int]:
        """Cumulative hit/miss/eviction counters plus the current size.

        A miss files a new value; every other answer is a hit, and
        ``value_hits`` is the part of them the cons table answered for a
        fresh object.
        """
        return {
            "hits": self.identity_hits + self.cons_hits,
            "value_hits": self.cons_hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._cons),
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
    (docs/OBSERVABILITY.md); a live interner also reports ``value_hits``,
    the share of ``hits`` its cons table answered.
    """
    if _DEFAULT_INTERNER is None:
        return {"hits": 0, "misses": 0, "evictions": 0, "entries": 0, "capacity": 0}
    return _DEFAULT_INTERNER.stats()


#: Precomputed 4-byte big-endian lengths for the overwhelmingly common case.
_LEN4 = tuple(i.to_bytes(4, "big") for i in range(1024))


def _len4(n: int) -> bytes:
    return _LEN4[n] if n < 1024 else n.to_bytes(4, "big")


#: Per-dataclass-class encoding header (tag + qualname + field count),
#: field names, and a getter returning the field values as a tuple.  A
#: dataclass's fields are fixed at class creation, so this is computed once
#: per class instead of per instance.
_DATACLASS_INFO: Dict[type, Tuple[bytes, Tuple[str, ...], Callable[[Any], tuple]]] = {}


def _dataclass_info(cls: type) -> Tuple[bytes, Tuple[str, ...], Callable[[Any], tuple]]:
    names = tuple(field.name for field in dataclasses.fields(cls))
    encoded_name = cls.__qualname__.encode("utf-8")
    if len(names) > 1:
        fields = attrgetter(*names)
    elif names:
        get = attrgetter(names[0])
        fields = lambda value: (get(value),)  # noqa: E731
    else:
        fields = lambda value: ()  # noqa: E731
    info = _DATACLASS_INFO[cls] = (
        _TAG_DATACLASS + _len4(len(encoded_name)) + encoded_name + _len4(len(names)),
        names,
        fields,
    )
    return info


def _is_dataclass_instance(value: Any) -> bool:
    return dataclasses.is_dataclass(value) and not isinstance(value, type)


def _encode(value: Any, out: bytearray) -> None:
    """Append the canonical encoding of ``value``: the uncached walk.

    Exact-type checks for the common primitives come first, then the
    composites.  Subclasses and rarer types go to :func:`_encode_other`,
    whose ``isinstance`` order defines the encoding.
    """
    cls = value.__class__
    if cls is int:
        body = b"%d" % value
        out += _TAG_INT + _len4(len(body)) + body
    elif cls is str:
        body = value.encode("utf-8")
        out += _TAG_STR + _len4(len(body)) + body
    elif value is None:
        out += _TAG_NONE
    elif cls is bool:
        out += _TAG_TRUE if value else _TAG_FALSE
    elif cls is tuple:
        _encode_tuple(value, out)
    elif cls is frozenset:
        _encode_frozenset(value, out)
    else:
        info = _DATACLASS_INFO.get(cls)
        if info is None:
            if not _is_dataclass_instance(value):
                _encode_other(value, out)
                return
            info = _dataclass_info(cls)
        out += info[0]
        for item in info[2](value):
            _encode(item, out)


def _encode_tuple(value: tuple, out: bytearray) -> None:
    out += _TAG_TUPLE + _len4(len(value))
    for item in value:
        _encode(item, out)


def _encode_frozenset(value: frozenset, out: bytearray) -> None:
    # Sets are unordered: encode elements individually and sort the
    # encodings so equal sets encode equally.
    pieces = []
    for item in value:
        piece = bytearray()
        _encode(item, piece)
        pieces.append(piece)
    pieces.sort()
    out += _TAG_FROZENSET + _len4(len(pieces))
    out += b"".join(pieces)


def _encode_other(value: Any, out: bytearray) -> None:
    """Subclasses and rare types.

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
        _encode_tuple(value, out)
    elif isinstance(value, frozenset):
        _encode_frozenset(value, out)
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
            _encode(key, out)
            _encode(item, out)
    else:
        raise UnhashableModelValue(
            f"unsupported type {type(value).__name__!r} in model value: {value!r}"
        )


def _walk(value: Any) -> bytes:
    out = bytearray()
    _encode(value, out)
    return bytes(out)


# -- hash-consing ------------------------------------------------------------------


def _cons(value: Any, interner: HashInterner) -> Any:
    """Find or file ``value`` after an identity miss.

    For a tuple, frozenset or dataclass: its entry, found by its cons key
    (module docstring) or filed new.  For another child: its piece —
    the primitives other than exact ints and strings are pieces by their
    canonical encoding, a subclass's with its class, so the canonical
    object keeps it.  None when the value is uncacheable: a ``dict``, a
    subclass of ``tuple`` or ``frozenset``, or whatever contains one.  An
    unsupported type raises :class:`UnhashableModelValue` from the walk.

    One loop turns the fields or items into pieces; a primitive or a
    canonical child costs no call, a fresh child one recursive call.  It
    reads classes with ``type()``, whose call site stays fast whatever the
    class, where ``__class__`` would slow down on the many classes the
    loop sees (measured: a cons probe ~10% faster).
    """
    cls = type(value)
    if cls is tuple or cls is frozenset:
        items = value
    else:
        info = _DATACLASS_INFO.get(cls)
        if info is None:
            if _is_dataclass_instance(value):
                info = _dataclass_info(cls)
            elif cls is float or cls is bytes:
                return _walk(value)
            elif isinstance(value, (int, float, str, bytes)):
                return (cls, _walk(value))
            else:
                _walk(value)
                return None
        items = info[2](value)
    table = interner._table
    key = [cls, *items]
    at = 0
    for item in items:
        at += 1
        kind = type(item)
        if kind is int or kind is str or item is None:
            continue
        if kind is bool:
            key[at] = _TAG_TRUE if item else _TAG_FALSE
        else:
            piece = table.get(id(item))
            if piece is None or piece.value is not item:
                piece = _cons(item, interner)
                if piece is None:
                    return None
            key[at] = piece
    if cls is frozenset:
        return _cons_frozenset(value, key, interner)
    key = tuple(key)
    entry = interner._cons.get(key)
    if entry is None:
        return _new(value, key, interner)
    interner.cons_hits += 1
    return entry


def _cons_frozenset(value: frozenset, key: list, interner: HashInterner) -> Optional[_Entry]:
    """The entry of ``value``, whose pieces follow ``frozenset`` in
    ``key``.  A frozenset's pieces form a frozenset, so its key ignores
    iteration order; its bytes sort the elements' encodings (:func:`_build`)."""
    pieces = key[1:]
    members = frozenset(pieces)
    if len(members) != len(pieces):
        # Two elements encode alike (say two eq=False dataclass instances
        # with equal fields): a set of pieces cannot count them.
        return None
    key = (frozenset, members)
    entry = interner._cons.get(key)
    if entry is not None:
        interner.cons_hits += 1
        return entry
    items = _canonical_items(pieces, value)
    return interner._file(key, value if items is None else frozenset(items))


def _build(entry: _Entry) -> bytes:
    """``entry``'s canonical bytes, joined from its key's pieces.

    The header, then each child's bytes — which the children keep — sorted
    for a frozenset.  The caller decides whether ``entry`` keeps them.  A
    child is built by a direct recursive call, one frame per level of
    nesting, so a value nests as deep as :func:`_cons` can file it.
    """
    key = entry.key
    cls = key[0]
    parts = []
    for piece in key[1] if cls is frozenset else key[1:]:
        if piece.__class__ is _Entry:
            encoded = piece._encoded
            if encoded is None:
                encoded = piece._encoded = _build(piece)
            parts.append(encoded)
        else:
            parts.append(_piece_bytes(piece))
    if cls is frozenset:
        parts.sort()
        header = _TAG_FROZENSET + _len4(len(parts))
    elif cls is tuple:
        header = _TAG_TUPLE + _len4(len(parts))
    else:
        header = _DATACLASS_INFO[cls][0]
    return header + b"".join(parts)


def _piece_bytes(piece: Any) -> bytes:
    """The canonical encoding of the primitive a cons-key piece stands for."""
    cls = piece.__class__
    if cls is int:
        body = b"%d" % piece
        return _TAG_INT + _len4(len(body)) + body
    if cls is str:
        body = piece.encode("utf-8")
        return _TAG_STR + _len4(len(body)) + body
    if cls is bytes:
        return piece
    if piece is None:
        return _TAG_NONE
    return piece[1]


def _canonical_items(pieces: Iterable[Any], items: Iterable[Any]) -> Optional[list]:
    """``items`` with every fresh child (one that is not its entry's
    object) replaced by its entry's object; None when there is none."""
    pairs = list(zip(pieces, items))
    for piece, item in pairs:
        if piece.__class__ is _Entry and piece.value is not item:
            return [
                piece.value if piece.__class__ is _Entry else item
                for piece, item in pairs
            ]
    return None


def _rebuild(value: Any, names: Tuple[str, ...], items: Iterable[Any]) -> Any:
    """A dataclass instance of ``value``'s class with fields ``items``.

    Set field by field, as a frozen dataclass's ``__init__`` does, so the
    instance keeps CPython's compact attribute layout; no ``__init__`` or
    ``__post_init__`` runs, and attributes that are not fields are not
    copied.
    """
    twin = object.__new__(value.__class__)
    for name, item in zip(names, items):
        object.__setattr__(twin, name, item)
    return twin


def _new(value: Any, key: tuple, interner: HashInterner) -> _Entry:
    """File the tuple or dataclass ``value``, whose key ``key`` is new.

    Its canonical object is ``value`` itself unless some child is a fresh
    object, not its entry's; then it is a copy of ``value`` around the
    children's canonical objects.  Its bytes wait until read.
    """
    cls = key[0]
    pieces = key[1:]
    if cls is tuple:
        items = _canonical_items(pieces, value)
        if items is not None:
            value = tuple(items)
    else:
        _, names, fields = _DATACLASS_INFO[cls]
        items = _canonical_items(pieces, fields(value))
        if items is not None:
            value = _rebuild(value, names, items)
    return interner._file(key, value)


def _entry(value: Any, interner: Optional[HashInterner]) -> _Entry:
    """The entry of ``value``: the interner's, or a throwaway one.

    The one path behind every public helper: the identity table, then the
    cons table, then (a primitive, an uncacheable value or an uninterned
    call) a plain walk into an entry nobody files.
    """
    if interner is not None:
        entry = interner._table.get(id(value))
        if entry is not None and entry.value is value:
            interner.identity_hits += 1
            return entry
        entry = _cons(value, interner)
        if entry.__class__ is _Entry:
            return entry
    return _Entry(value, None, _walk(value))


def _digest(entry: _Entry) -> int:
    """Compute and keep ``entry``'s digest; callers read ``entry.digest``
    first, which is set for every entry hashed before.

    Bytes the entry does not hold are built for the hash and dropped.
    """
    encoded = entry._encoded or _build(entry)
    digest = entry.digest = int.from_bytes(
        blake2b(encoded, digest_size=_DIGEST_BYTES).digest(), "big"
    )
    return digest


def canonical_bytes(value: Any, intern: bool = True) -> bytes:
    """Return the canonical, prefix-free byte encoding of ``value``.

    The encoding is deterministic across processes and Python versions that
    share ``repr`` semantics for floats (we encode floats via ``repr`` to
    remain exact for round-trippable values).  ``intern=False`` forces the
    uncached walk — the reference the property tests compare the interned
    path against; the produced bytes are identical either way.
    """
    if intern and _DEFAULT_INTERNER is not None:
        return _entry(value, _DEFAULT_INTERNER).encoded
    return _walk(value)


def content_hash(value: Any, intern: bool = True) -> int:
    """Stable 64-bit content hash of a model value.

    Equal values always hash equally, across processes and runs; this is the
    identity used for visited-state dedup, predecessor pointers and the
    soundness replay's generated-message sets.  Exact for every value: the
    interner answers a fresh object by its exact cons key, never by ``==``.
    """
    entry = _entry(value, _DEFAULT_INTERNER if intern else None)
    return entry.digest or _digest(entry)


def content_size(value: Any, intern: bool = True) -> int:
    """Serialized size of ``value`` in bytes: the length of its canonical
    encoding.

    Computed on demand from the encoding, which an interned value does not
    keep for it.  No checker reads sizes: memory is measured
    (:func:`repro.obs.metrics.live_bytes`), not modelled from them.
    """
    return content_hash_and_size(value, intern)[1]


def content_hash_and_size(value: Any, intern: bool = True) -> Tuple[int, int]:
    """Hash and serialized size of ``value``, interning (or walking) it once.

    The size is the length of the encoding, built again when the entry does
    not keep its bytes.
    """
    entry = _entry(value, _DEFAULT_INTERNER if intern else None)
    return entry.digest or _digest(entry), len(entry._encoded or _build(entry))


def canonical_and_hash(value: Any) -> Tuple[Any, int]:
    """``value``'s canonical object and hash.

    The canonical object encodes exactly like ``value`` and has the same
    type structure; it is the one object the shared interner keeps for
    that value (``value`` itself when interning is off or the value is not
    cacheable).  Callers that keep a value — the checker's records and
    ``I+`` — keep this object instead, so equal values are stored once and
    later lookups of them are identity hits.
    """
    entry = _entry(value, _DEFAULT_INTERNER)
    return entry.value, entry.digest or _digest(entry)


def canonical(value: Any) -> Any:
    """The canonical object of ``value`` (:func:`canonical_and_hash`)."""
    if _DEFAULT_INTERNER is None:
        return value
    return _entry(value, _DEFAULT_INTERNER).value


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
