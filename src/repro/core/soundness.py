"""A-posteriori soundness verification (§4.1 ``isStateSound`` / ``isSequenceValid``).

LMC's Cartesian system states may be invalid — combinations of node states
that no real run produces.  When an invariant is violated on one, this module
decides whether the combination is *valid*: it enumerates, per node, the
event sequences that could have led from the live state to that node's state
(by following predecessor pointers), and searches the cross product for one
combination whose events admit a valid total order.

The replay follows the paper's efficient implementation: an event is
represented by the hash of the message it consumes (network events) and the
hashes of the messages it generates; replay then reduces to integer
bookkeeping on a multiset ``net`` of generated-message hashes:

1. a local event is always enabled; a network event is enabled if its
   consumed hash is in ``net``;
2. executing pops the event and, for network events, removes the consumed
   hash from ``net``;
3. the event's generated hashes are added to ``net``.

Greedy selection of *any* enabled event is sufficient (§4.1: "It actually
does not matter which enabled event is selected") — the proof sketch is that
executing an enabled event never disables another node's enabled event
(messages are only ever added for others), so enabled events persist and the
greedy order is maximal.  That argument has one gap the paper glosses over:
when two steps *compete to consume the same message hash* (identical message
content hashed twice), executing one consumer disables the other, and greedy
can starve a node that a different order would have fed.  Replay therefore
falls back to a memoised backtracking search — but only when some consumed
hash has more than one consumer, the sole case greedy can err on, so the
common path stays the paper's linear sweep.

Most combinations never reach that sweep.  Each enumerated sequence is
compiled once (:class:`CompiledSequence`) into its plain hash steps, its
per-hash generated-minus-consumed balance and its external needs, and a
combination in which some sequence's deficit for a hash exceeds the others'
surplus is dismissed on those counts alone (:func:`starved_need`) — the
question "is there a valid total order" quotiented against one node's
sequence at a time, in the spirit of partial model checking.  The condition
is necessary for any replay to succeed, so it changes no verdict and no
witness.

Most *calls* never reach the per-combination quotient either.  Beside each
memoised enumeration the verifier keeps a record summary
(:func:`summarise`): the needs common to all of the record's sequences, at
their smallest deficit, and per hash the largest balance any of its
sequences offers.  When some node's common need exceeds the best the other
nodes could supply between them (:func:`refuted_by_bound`), every
combination of the product fails :func:`starved_need`, so the call is
refuted once — partial model checking again, quotienting by one record at
a time — and only its combination count and verdict-cache traffic are
replayed, exactly as the per-combination loop would have left them.

Crash/restart steps (docs/FAULTS.md) thread through both enumeration and
replay with no special casing: their predecessor links carry
``consumed_hash=None`` and ``generated_hashes=()``, so they behave exactly
like local events — always enabled, touching ``net`` not at all — and the
resolved witness trace naturally contains the ``CrashEvent``/``RestartEvent``
values at their positions in the total order.  One conservatism follows: a
message both executed before a node's crash and redelivered after its
restart appears as *two* consumers of one hash, so the replay demands it be
generated twice.  A real network can redeliver a retransmitted or duplicate
copy without a second generation; such schedules may therefore be rejected
as inconclusive (a possible missed bug, never a false positive).

Drop and duplicate steps (docs/FAULTS.md) thread through the same machinery:

* a ``DropEvent`` link carries ``consumed_hash`` = the lost message's hash,
  so replay requires the message to be *generated* before it is lost and
  consumes the per-destination copy — a witness can never both drop and
  deliver the same copy, and a drop of a message nobody sent is invalid;
* a ``DuplicateEvent`` link is a local-like step (``consumed_hash=None``,
  generated = the handler's sends): the fault-minted copy has no generating
  handler of its own, so demanding a second generation would starve every
  replay.  The conservatism is the mirror of the crash-redelivery note
  above — the duplicate's position in a witness is constrained only by its
  own sends, not by the original delivery, which can in principle admit an
  order a real duplicate-delivering network would serialize differently;
  the checker only mints duplicates of messages genuinely in ``I+``, so the
  copy itself is always justified.

Deviations from the paper, both explicit and bounded:

* self-referencing predecessor links are ignored (the paper does the same);
* predecessor-path enumeration walks *simple* paths (no repeated state on a
  path) and is capped by :data:`MAX_SEQUENCES_PER_NODE` and
  :data:`MAX_COMBINATIONS_PER_CHECK`; a capped search that found no valid
  order reports "inconclusive", which the checker treats as invalid (no bug
  reported), mirroring the paper's favour-simplicity stance.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice, product
from math import prod
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.records import LocalStateSpace, NodeStateRecord, SequenceStep
from repro.model.events import Event
from repro.model.types import NodeId
from repro.obs.emitter import NULL_EMITTER, TraceEmitter
from repro.stats.counters import ExplorationStats


#: Sequences one call enumerates per node at most: the §5.2 exponential
#: path blow-up cannot hang a single call.
MAX_SEQUENCES_PER_NODE = 256

#: Sequence combinations one call tries at most.
MAX_COMBINATIONS_PER_CHECK = 8192

#: LRU bound on cached replay verdicts.
REPLAY_CACHE_LIMIT = 4096

#: One node's candidate event sequence, oldest event first.
NodeSequence = Tuple[SequenceStep, ...]

#: A step reduced to pure hash bookkeeping: (consumed or None, generated).
PlainStep = Tuple[Optional[int], Tuple[int, ...]]

#: A combination's executed total order as ``(node, step index)`` pairs.
Order = Tuple[Tuple[NodeId, int], ...]


def plain_steps(steps: NodeSequence) -> Tuple[PlainStep, ...]:
    """The hash-only form of a sequence: all the replay ever reads."""
    return tuple((step.consumed_hash, step.generated_hashes) for step in steps)


class CompiledSequence:
    """One node's candidate sequence, compiled once for every replay it joins.

    Built where the sequence is enumerated, so once per sequence-memo entry:

    * ``steps`` — the :class:`SequenceStep` values, which resolve a replayed
      order back to the witness events;
    * ``plain`` — the ``(consumed, generated)`` step tuple the replay runs on;
    * ``key`` — the verifier's small int for ``(node, plain)``, this
      sequence's share of a verdict-cache key;
    * ``balance`` — per message hash, how often the sequence generates it
      minus how often it consumes it;
    * ``needs`` — ``(hash, deficit)`` for every negative balance: what the
      *other* nodes of a combination must supply, net of their own
      consumption, for any total order to exist (:func:`starved_need`).
    """

    __slots__ = ("node", "steps", "plain", "key", "balance", "needs")

    def __init__(
        self,
        node: NodeId,
        plain: Tuple[PlainStep, ...],
        steps: NodeSequence,
        key: int,
    ):
        self.node = node
        self.steps = steps
        self.plain = plain
        self.key = key
        balance: Dict[int, int] = {}
        for consumed, generated in plain:
            if consumed is not None:
                balance[consumed] = balance.get(consumed, 0) - 1
            for item in generated:
                balance[item] = balance.get(item, 0) + 1
        self.balance = balance
        self.needs = tuple(
            (item, -count) for item, count in balance.items() if count < 0
        )


#: A record's summary over its compiled sequences, ``(common, best)``: see
#: :func:`summarise`.
RecordSummary = Tuple[Dict[int, int], Dict[int, int]]


def summarise(sequences: Sequence[CompiledSequence]) -> RecordSummary:
    """The record-level bound's view of one node's candidate sequences.

    ``common[h]`` is the smallest deficit for ``h`` across ``sequences``,
    kept only for hashes every sequence needs; ``best[h]`` is the largest
    ``balance.get(h, 0)`` across them.  Whichever sequence a combination
    picks, it needs at least ``common`` and offers at most ``best``.
    """
    if not sequences:
        return {}, {}
    common = dict(sequences[0].needs)
    for sequence in sequences[1:]:
        balance = sequence.balance
        common = {
            item: min(deficit, -balance[item])
            for item, deficit in common.items()
            if balance.get(item, 0) < 0
        }
    items = set().union(*[sequence.balance for sequence in sequences])
    best = {
        item: max(sequence.balance.get(item, 0) for sequence in sequences)
        for item in items
    }
    return common, best


def refuted_by_bound(summaries: Sequence[RecordSummary]) -> bool:
    """True when every combination of the product fails :func:`starved_need`.

    Some node ``i`` and hash ``h`` with ``common_i[h] > sum(best_j[h], j != i)``:
    any combination's sequence for ``i`` needs at least ``common_i[h]``
    while the others supply at most their ``best``, so that sequence is
    starved of ``h`` whichever sequences the others contribute.  A necessary
    condition of the quotient, decided once per call in
    O(nodes x common needs).
    """
    for index, (common, _best) in enumerate(summaries):
        for item, deficit in common.items():
            for other, (_common, best) in enumerate(summaries):
                if other != index:
                    deficit -= best.get(item, 0)
            if deficit > 0:
                return True
    return False


class SoundnessVerifier:
    """Validates system states against the predecessor structure in ``LS``."""

    def __init__(
        self,
        space: LocalStateSpace,
        stats: ExplorationStats,
        emitter: TraceEmitter = NULL_EMITTER,
        memoize: bool = True,
    ):
        self._space = space
        self._stats = stats
        self._emitter = emitter
        self._memoize = memoize
        #: (node, record index) -> (store version at compute time, compiled
        #: sequences, their :func:`summarise` summary).  A bumped store
        #: version (new record or new predecessor pointer anywhere in that
        #: node's store) invalidates the entry, so memoised enumerations —
        #: and the compiled form and summary that ride on them — are reused
        #: exactly while the DAG below them is stable.
        self._sequence_memo: Dict[
            Tuple[NodeId, int], Tuple[int, List[CompiledSequence], RecordSummary]
        ] = {}
        #: (node, plain steps) -> the small int standing for it in cache keys.
        self._sequence_keys: Dict[Tuple[NodeId, Tuple[PlainStep, ...]], int] = {}
        #: Combination replay key -> executed order as (node, step index)
        #: pairs, or None when no valid total order exists.  The key is the
        #: tuple of the sequences' interned ``(node, plain)`` ints — purely
        #: consumed/generated hashes, which determine the replay outcome; the
        #: witness events are re-resolved against the *current* combination,
        #: so traces are identical to uncached runs.
        self._replay_cache: "OrderedDict[Tuple[int, ...], Optional[Order]]" = (
            OrderedDict()
        )

    # -- public API -----------------------------------------------------------

    def is_state_sound(
        self, records: Dict[NodeId, NodeStateRecord]
    ) -> Optional[Tuple[Event, ...]]:
        """Search for a valid total order realising this combination.

        The paper's ``isStateSound`` (§4.1, Fig. 9 lines 17-25).  ``records``
        maps every node to the node-state record of the candidate system
        state.  Returns the witness event sequence (a valid total order over
        all nodes' events) when the state is valid, else ``None``.

        Each call is one §5.4 measurement unit ("LMC-OPT triggers the
        soundness verification for 773 times, and each call takes 45 ms in
        average"): with tracing enabled it emits one ``soundness`` span
        carrying the sequence count examined, how many of those the
        starvation quotient dismissed and how many reached the replay,
        whether the record-level bound refuted the call outright, the
        outcome and — for an unsound one — the last starved node and hash.
        """
        self._stats.soundness_calls += 1
        if not self._emitter.enabled:
            return self._search(records)
        sequences_before = self._stats.soundness_sequences
        audit: Dict[str, int] = {
            "quotient_rejected": 0,
            "replayed": 0,
            "bound_refuted": False,
        }
        with self._emitter.span("soundness", nodes=len(records)) as span:
            witness = self._search(records, audit)
            if witness is not None:
                audit.pop("starved_node", None)
                audit.pop("starved_hash", None)
            span.add(
                sequences=self._stats.soundness_sequences - sequences_before,
                sound=witness is not None,
                **audit,
            )
        return witness

    def _search(
        self,
        records: Dict[NodeId, NodeStateRecord],
        audit: Optional[Dict[str, int]] = None,
    ) -> Optional[Tuple[Event, ...]]:
        """The uninstrumented body of :meth:`is_state_sound`.

        ``audit`` (tracing only) collects the span's quotient/replay counts.
        The walk takes the cross product in node order and stops at the
        first combination the replay accepts; ``tried`` counts the
        combinations handed to the replay — the §5.4 ``soundness_sequences``
        unit — and never exceeds :data:`MAX_COMBINATIONS_PER_CHECK`.  With
        memoisation on, a call the record-level bound refutes skips the
        product walk and counts the product, capped; ``memoize=False`` keeps
        the per-combination reference.
        """
        per_node: List[List[CompiledSequence]] = []
        summaries: List[Optional[RecordSummary]] = []
        for node in sorted(records):
            sequences, summary = self._compiled(records[node])
            if not sequences:
                # No acyclic path reaches this state: with the prototype's
                # simplifications the state cannot be validated.
                return None
            per_node.append(sequences)
            summaries.append(summary)

        cap = MAX_COMBINATIONS_PER_CHECK
        if self._memoize and refuted_by_bound(summaries):
            tried = min(prod(len(sequences) for sequences in per_node), cap)
            self._stats.soundness_sequences += tried
            self._file_refuted(per_node, tried, audit)
            return None
        replay = self._replay if self._memoize else replay_compiled
        tried = 0
        for combo in product(*per_node):
            if tried == cap:
                break
            tried += 1
            order = replay(combo, audit)
            if order is not None:
                self._stats.soundness_sequences += tried
                steps = {sequence.node: sequence.steps for sequence in combo}
                return tuple(steps[node][index].event for node, index in order)
        self._stats.soundness_sequences += tried
        return None

    def _replay(
        self,
        combo: Sequence[CompiledSequence],
        audit: Optional[Dict[str, int]] = None,
    ) -> Optional[Order]:
        """:func:`replay_compiled` behind the verdict cache.

        The replay outcome — both whether a valid total order exists and
        *which* order the deterministic search finds — is a pure function of
        the per-step ``(consumed_hash, generated_hashes)`` tuples, so the
        sequences' interned ``(node, plain)`` keys form the cache key.
        Witness events are resolved by the caller against the current
        combination, keeping traces byte-identical to uncached runs.
        """
        key = tuple([sequence.key for sequence in combo])
        cache = self._replay_cache
        cached = cache.get(key, _REPLAY_MISS)
        if cached is not _REPLAY_MISS:
            cache.move_to_end(key)
            self._stats.replay_cache_hits += 1
            return cached
        order = replay_compiled(combo, audit)
        cache[key] = order
        if len(cache) > REPLAY_CACHE_LIMIT:
            cache.popitem(last=False)
        return order

    def _file_refuted(
        self,
        per_node: Sequence[Sequence[CompiledSequence]],
        tried: int,
        audit: Optional[Dict[str, int]],
    ) -> None:
        """Leave a bound-refuted call's traces where the product walk would.

        The first ``tried`` combination keys pass through the verdict cache
        in product order, as :meth:`_replay` would take them: a hit moves to
        the end and is counted, a miss is filed as ``None`` (the quotient's
        verdict) and may evict the oldest entry.  With ``audit``, the misses
        count as quotient dismissals and the last one names the starved pair.
        """
        cache = self._replay_cache
        hits = 0
        last_miss: Optional[Tuple[int, ...]] = None
        keys = product(*[[sequence.key for sequence in each] for each in per_node])
        for key in islice(keys, tried):
            if key in cache:
                cache.move_to_end(key)
                hits += 1
                continue
            cache[key] = None
            last_miss = key
            if len(cache) > REPLAY_CACHE_LIMIT:
                cache.popitem(last=False)
        self._stats.replay_cache_hits += hits
        if audit is None:
            return
        audit["bound_refuted"] = True
        if last_miss is not None:
            audit["quotient_rejected"] += tried - hits
            combo = [
                next(sequence for sequence in each if sequence.key == key)
                for each, key in zip(per_node, last_miss)
            ]
            audit["starved_node"], audit["starved_hash"] = starved_need(combo)

    # -- sequence enumeration ------------------------------------------------

    def enumerate_sequences(self, record: NodeStateRecord) -> List[CompiledSequence]:
        """All simple predecessor paths from the live state to ``record``.

        Memoised per record, keyed on the node store's structural version:
        any new record or predecessor pointer in that store bumps the
        version and invalidates the memo, so a reused enumeration is always
        the one a fresh walk would produce.  Repeated preliminary violations
        on the same node states — the §5.4 dominant cost — then pay for the
        DAG walk, and for compiling and summarising its sequences, once
        instead of per violation.
        """
        return self._compiled(record)[0]

    def _compiled(
        self, record: NodeStateRecord
    ) -> Tuple[List[CompiledSequence], Optional[RecordSummary]]:
        """:meth:`enumerate_sequences` plus the memo entry's summary
        (``None`` when memoisation is off)."""
        if not self._memoize:
            return self._walk_sequences(record), None
        store = self._space.store(record.node)
        key = (record.node, record.index)
        cached = self._sequence_memo.get(key)
        if cached is not None and cached[0] == store.version:
            self._stats.sequence_cache_hits += 1
            return cached[1], cached[2]
        sequences = self._walk_sequences(record)
        summary = summarise(sequences)
        self._sequence_memo[key] = (store.version, sequences, summary)
        return sequences, summary

    def _walk_sequences(self, record: NodeStateRecord) -> List[CompiledSequence]:
        """The uncached predecessor-DAG walk behind :meth:`enumerate_sequences`.

        Walks the predecessor DAG backwards by record index, pushing each
        link's shared :class:`SequenceStep`; a path never revisits a record
        (simple paths) and self-referencing links are skipped, per the
        paper's simplification.  Truncated at :data:`MAX_SEQUENCES_PER_NODE`.
        """
        sequences: List[CompiledSequence] = []
        store = self._space.store(record.node)
        records = store.records
        keys = self._sequence_keys

        def walk(current: NodeStateRecord, suffix: List[SequenceStep], seen: set) -> bool:
            """Extend paths backwards; returns False when the cap is hit."""
            if current.seed:
                # The live/seed state: the suffix, reversed, is a complete
                # sequence from the live state to the target record.
                steps = tuple(reversed(suffix))
                plain = plain_steps(steps)
                key = keys.setdefault((record.node, plain), len(keys))
                sequences.append(CompiledSequence(record.node, plain, steps, key))
                return len(sequences) < MAX_SEQUENCES_PER_NODE
            for prev, step in store.links_of(current):
                if prev < 0 or prev in seen:
                    # Self-reference (§4.2) — the current record is in
                    # ``seen`` — a defensive none, or a revisit.
                    continue
                suffix.append(step)
                seen.add(prev)
                keep_going = walk(records[prev], suffix, seen)
                seen.discard(prev)
                suffix.pop()
                if not keep_going:
                    return False
            return True

        walk(record, [], {record.index})
        return sequences


#: Cache-miss sentinel for the replay verdict cache (``None`` is a verdict).
_REPLAY_MISS = object()


def starved_need(combo: Sequence[CompiledSequence]) -> Optional[Tuple[NodeId, int]]:
    """A ``(node, hash)`` whose deficit the rest of ``combo`` cannot cover, if any.

    The starvation quotient: the valid-total-order question evaluated
    against one node's sequence at a time, on hash counts alone.  ``net``
    starts empty and only generation increments it, so a hash the whole
    combination consumes more often than it generates leaves some consumer
    undrained in every order — an exact necessary condition of the replay
    (crash-redelivery and drop steps already demand one generation per
    consumption; duplicate steps consume nothing).  ``None`` means "not
    refuted", not "valid".
    """
    for sequence in combo:
        for needed, deficit in sequence.needs:
            for other in combo:
                if other is not sequence:
                    deficit -= other.balance.get(needed, 0)
            if deficit > 0:
                return sequence.node, needed
    return None


def replay_compiled(
    combo: Sequence[CompiledSequence], audit: Optional[Dict[str, int]] = None
) -> Optional[Order]:
    """Replay one combination — unless the quotient already refutes it.

    ``audit`` (tracing only) counts dismissals and replays and keeps the
    last starved node and hash.
    """
    starved = starved_need(combo)
    if starved is not None:
        if audit is not None:
            audit["quotient_rejected"] += 1
            audit["starved_node"], audit["starved_hash"] = starved
        return None
    if audit is not None:
        audit["replayed"] += 1
    return replay_sequences_indexed(
        {sequence.node: sequence.plain for sequence in combo}
    )


def replay_sequences_indexed(
    sequences: Dict[NodeId, Sequence[PlainStep]]
) -> Optional[Order]:
    """The ``isSequenceValid`` greedy replay over plain message-hash steps.

    Returns the executed total order as ``(node, step index)`` pairs when
    every node's sequence drains, else ``None``.  When greedy starves and
    the failure could be a greedy artefact (competing consumers of one
    hash), retries with :func:`backtrack_order`.  The outcome depends only
    on the steps' consumed/generated hashes, which is what makes verdicts
    cacheable across combinations.
    """
    pointers: Dict[NodeId, int] = {node: 0 for node in sequences}
    net: Dict[int, int] = {}
    order: List[Tuple[NodeId, int]] = []
    total = sum(len(sequence) for sequence in sequences.values())
    nodes = sorted(sequences)

    progress = True
    while progress:
        progress = False
        for node in nodes:
            sequence = sequences[node]
            pointer = pointers[node]
            while pointer < len(sequence):
                consumed, generated = sequence[pointer]
                if consumed is not None:
                    available = net.get(consumed, 0)
                    if available == 0:
                        break
                    if available == 1:
                        del net[consumed]
                    else:
                        net[consumed] = available - 1
                for item in generated:
                    net[item] = net.get(item, 0) + 1
                order.append((node, pointer))
                pointer += 1
                progress = True
            pointers[node] = pointer
    if len(order) == total:
        return tuple(order)
    if not has_competing_consumers(sequences):
        return None
    found = backtrack_order(sequences)
    if found is None:
        return None
    return tuple(found)


def replay_sequences(
    sequences: Dict[NodeId, NodeSequence]
) -> Optional[Tuple[Event, ...]]:
    """:func:`replay_sequences_indexed` over :class:`SequenceStep` sequences,
    with the order resolved to events."""
    order = replay_sequences_indexed(
        {node: plain_steps(steps) for node, steps in sequences.items()}
    )
    if order is None:
        return None
    return tuple(sequences[node][index].event for node, index in order)


#: Position-vector memo bound for :func:`backtrack_order`.  The position
#: space is the product of (len + 1) over nodes, so real soundness calls
#: (3 nodes, short predecessor paths) sit far under this; hitting the cap
#: reports "no order found", which the checker already treats as invalid.
BACKTRACK_STATE_CAP = 4096


def has_competing_consumers(
    sequences: Dict[NodeId, Sequence[PlainStep]]
) -> bool:
    """True when two steps (any nodes) consume the same message hash.

    This is the only configuration under which the §4.1 greedy replay can
    wrongly starve: with unique consumers, executing an enabled event never
    disables another, and greedy failure is a true negative.
    """
    seen: set = set()
    for sequence in sequences.values():
        for consumed, _generated in sequence:
            if consumed is None:
                continue
            if consumed in seen:
                return True
            seen.add(consumed)
    return False


def backtrack_order(
    sequences: Dict[NodeId, Sequence[PlainStep]],
    state_cap: int = BACKTRACK_STATE_CAP,
) -> Optional[List[Tuple[NodeId, int]]]:
    """Complete search for a causally valid total order of plain steps.

    Depth-first over which node executes next, memoised on the position
    vector — sound because ``net`` is a pure function of the executed prefix
    multiset, hence of the positions.  Bounded by ``state_cap`` visited
    position vectors; an exhausted cap means "none found" (inconclusive,
    treated as invalid, mirroring the enumeration caps).  Returns the order
    as ``(node, index)`` pairs.
    """
    nodes = sorted(sequences)
    total = sum(len(sequences[node]) for node in nodes)
    seen: set = set()
    order: List[Tuple[NodeId, int]] = []

    def dfs(positions: Dict[NodeId, int], net: Dict[int, int]) -> bool:
        if len(order) == total:
            return True
        key = tuple(positions[node] for node in nodes)
        if key in seen or len(seen) >= state_cap:
            return False
        seen.add(key)
        for node in nodes:
            pointer = positions[node]
            if pointer >= len(sequences[node]):
                continue
            consumed, generated = sequences[node][pointer]
            if consumed is not None:
                if net.get(consumed, 0) == 0:
                    continue
                net[consumed] -= 1
                if not net[consumed]:
                    del net[consumed]
            for item in generated:
                net[item] = net.get(item, 0) + 1
            positions[node] = pointer + 1
            order.append((node, pointer))
            if dfs(positions, net):
                return True
            order.pop()
            positions[node] = pointer
            for item in generated:
                net[item] -= 1
                if not net[item]:
                    del net[item]
            if consumed is not None:
                net[consumed] = net.get(consumed, 0) + 1
        return False

    if dfs({node: 0 for node in nodes}, {}):
        return order
    return None
