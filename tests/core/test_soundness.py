"""Tests for soundness verification: sequence enumeration and greedy replay."""

from itertools import count, product
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.soundness as soundness
from repro.core.records import LocalStateSpace
from repro.core.soundness import (
    CompiledSequence,
    SequenceStep,
    SoundnessVerifier,
    refuted_by_bound,
    replay_sequences,
    replay_sequences_indexed,
    starved_need,
    summarise,
)
from repro.model.events import DeliveryEvent, InternalEvent, event_hash
from repro.model.hashing import content_hash
from repro.model.types import Action, Message
from repro.obs.emitter import MemoryEmitter
from repro.stats.counters import ExplorationStats


def internal(node, name):
    return InternalEvent(Action(node=node, name=name))


def delivery(dest, src, payload):
    return DeliveryEvent(Message(dest=dest, src=src, payload=payload))


def step(event, consumed=None, generated=()):
    return SequenceStep(event, consumed, tuple(generated))


def link(space, record, previous, event, consumed=None, generated=()):
    """Add the link ``previous --event--> record`` to ``record``'s store."""
    store = space.store(record.node)
    step_id = space.steps.intern(event, event_hash(event), consumed, tuple(generated))
    return record.add_predecessor(store, previous.index, step_id)


def compiled(node, plain):
    """A compiled sequence of event-less steps: all the bound reads."""
    steps = tuple(SequenceStep(None, consumed, generated) for consumed, generated in plain)
    return CompiledSequence(node, plain, steps, key=0)


class TestReplay:
    def test_empty_sequences_are_valid(self):
        assert replay_sequences({0: (), 1: ()}) == ()

    def test_local_events_always_enabled(self):
        order = replay_sequences({0: (step(internal(0, "a")),)})
        assert order is not None
        assert len(order) == 1

    def test_delivery_needs_generated_message(self):
        msg_hash = 111
        send = step(internal(0, "send"), generated=(msg_hash,))
        recv = step(delivery(1, 0, "m"), consumed=msg_hash)
        # send generates, recv consumes: valid in this order only.
        assert replay_sequences({0: (send,), 1: (recv,)}) is not None
        assert replay_sequences({0: (), 1: (recv,)}) is None

    def test_consumption_respects_multiplicity(self):
        msg_hash = 7
        send_once = step(internal(0, "send"), generated=(msg_hash,))
        recv = step(delivery(1, 0, "m"), consumed=msg_hash)
        recv_again = step(delivery(1, 0, "m"), consumed=msg_hash)
        # One generated copy cannot satisfy two consumptions.
        assert (
            replay_sequences({0: (send_once,), 1: (recv, recv_again)}) is None
        )
        send_twice = step(internal(0, "send"), generated=(msg_hash, msg_hash))
        assert (
            replay_sequences({0: (send_twice,), 1: (recv, recv_again)})
            is not None
        )

    def test_cross_dependencies_resolved_greedily(self):
        # 0 sends m1; 1 consumes m1 and sends m2; 0 consumes m2.
        m1, m2 = 1, 2
        seq0 = (
            step(internal(0, "send"), generated=(m1,)),
            step(delivery(0, 1, "m2"), consumed=m2),
        )
        seq1 = (step(delivery(1, 0, "m1"), consumed=m1, generated=(m2,)),)
        order = replay_sequences({0: seq0, 1: seq1})
        assert order is not None
        assert len(order) == 3

    def test_circular_wait_is_invalid(self):
        # Each node's first event needs the other's message: deadlock.
        m1, m2 = 1, 2
        seq0 = (step(delivery(0, 1, "x"), consumed=m2, generated=(m1,)),)
        seq1 = (step(delivery(1, 0, "y"), consumed=m1, generated=(m2,)),)
        assert replay_sequences({0: seq0, 1: seq1}) is None

    def test_order_interleaves_nodes(self):
        m1 = 5
        seq0 = (step(internal(0, "a")), step(delivery(0, 1, "m"), consumed=m1))
        seq1 = (step(internal(1, "b"), generated=(m1,)),)
        order = replay_sequences({0: seq0, 1: seq1})
        assert order is not None
        nodes = [event.node for event in order]
        assert set(nodes) == {0, 1}


class TestPlainReplay:
    def test_empty_unit_valid(self):
        assert replay_sequences_indexed({}) == ()

    def test_send_then_receive(self):
        # Steps are (consumed, generated): node 0 sends hash 7, node 1 consumes it.
        order = replay_sequences_indexed({0: ((None, (7,)),), 1: ((7, ()),)})
        assert order is not None
        assert order[0] == (0, 0)  # the send must run first

    def test_deadlock_detected(self):
        sequences = {0: ((1, (2,)),), 1: ((2, (1,)),)}
        assert replay_sequences_indexed(sequences) is None


class TestSequenceEnumeration:
    def _space_with_chain(self):
        """Node 0: seed -> s1 -> s2, with an extra alternative path to s2."""
        space = LocalStateSpace((0,))
        seed = space.seed(0, "seed")
        store = space.store(0)
        s1 = store.add("s1", content_hash("s1"), 1, 0, 0)
        link(space, s1, seed, internal(0, "e1"))
        s2 = store.add("s2", content_hash("s2"), 2, 0, 0)
        link(space, s2, s1, internal(0, "e2"))
        link(space, s2, seed, internal(0, "e3"))
        return space, seed, s1, s2

    def test_all_simple_paths_enumerated(self):
        space, _seed, _s1, s2 = self._space_with_chain()
        verifier = SoundnessVerifier(space, ExplorationStats())
        sequences = verifier.enumerate_sequences(s2)
        lengths = sorted(len(seq.steps) for seq in sequences)
        assert lengths == [1, 2]  # seed->s2 direct, and seed->s1->s2

    def test_seed_state_has_one_empty_sequence(self):
        space, seed, _s1, _s2 = self._space_with_chain()
        verifier = SoundnessVerifier(space, ExplorationStats())
        assert [seq.steps for seq in verifier.enumerate_sequences(seed)] == [()]

    def test_self_reference_links_ignored(self):
        space = LocalStateSpace((0,))
        seed = space.seed(0, "seed")
        store = space.store(0)
        s1 = store.add("s1", content_hash("s1"), 1, 0, 0)
        link(space, s1, seed, internal(0, "e"))
        link(space, s1, s1, internal(0, "loop"))
        verifier = SoundnessVerifier(space, ExplorationStats())
        sequences = verifier.enumerate_sequences(s1)
        assert len(sequences) == 1

    def test_sequence_cap_respected(self):
        space, _seed, _s1, s2 = self._space_with_chain()
        verifier = SoundnessVerifier(space, ExplorationStats())
        with mock.patch.object(soundness, "MAX_SEQUENCES_PER_NODE", 1):
            sequences = verifier.enumerate_sequences(s2)
        assert len(sequences) == 1

    def test_is_state_sound_counts_calls(self):
        space, _seed, _s1, s2 = self._space_with_chain()
        stats = ExplorationStats()
        verifier = SoundnessVerifier(space, stats)
        witness = verifier.is_state_sound({0: s2})
        assert witness is not None
        assert stats.soundness_calls == 1
        assert stats.soundness_sequences >= 1

    def test_combination_cap_gives_up(self):
        space, _seed, _s1, s2 = self._space_with_chain()
        stats = ExplorationStats()
        verifier = SoundnessVerifier(space, stats)
        with mock.patch.object(soundness, "MAX_COMBINATIONS_PER_CHECK", 0):
            assert verifier.is_state_sound({0: s2}) is None


class TestRecordLevelBound:
    def test_summary_keeps_needs_common_to_every_sequence(self):
        sequences = [
            compiled(0, ((7, ()), (7, ()), (8, ()))),
            compiled(0, ((7, ()), (None, (9,)))),
        ]
        common, best = summarise(sequences)
        assert common == {7: 1}  # 8 is needed by one sequence only
        assert best == {7: -1, 8: 0, 9: 1}

    def test_bound_compares_a_common_need_with_the_others_best_supply(self):
        needs_two = summarise([compiled(0, ((7, ()), (7, ())))])
        offers = summarise(
            [compiled(1, ((None, (7,)),)), compiled(1, ())]
        )
        assert refuted_by_bound([needs_two, offers])
        # Two copies from one sequence of the other node cover the need.
        plenty = summarise([compiled(1, ((None, (7, 7)),))])
        assert not refuted_by_bound([needs_two, plenty])
        # A lone node's deficit has no one to cover it; its own generation
        # nets out in its balance (the bound counts, it does not order).
        assert refuted_by_bound([summarise([compiled(0, ((7, ()),))])])
        assert not refuted_by_bound(
            [summarise([compiled(0, ((7, ()), (None, (7,))))])]
        )


# Three hash values over one- to three-step sequences: needs, surpluses and
# refutations are all common, and the small alphabet repeats plain tuples.
bound_hashes = st.integers(min_value=1, max_value=3)
bound_plains = st.lists(
    st.tuples(
        st.one_of(st.none(), bound_hashes),
        st.lists(bound_hashes, max_size=1).map(tuple),
    ),
    min_size=1,
    max_size=3,
).map(tuple)
#: Per node, the candidate sequences of each of its records.
bound_records = st.lists(
    st.lists(st.lists(bound_plains, min_size=1, max_size=4), min_size=1, max_size=2),
    min_size=1,
    max_size=3,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(bound_plains, min_size=1, max_size=4), min_size=1, max_size=3))
def test_a_refuted_call_starves_every_combination(plains_per_node):
    per_node = [
        [compiled(node, plain) for plain in plains]
        for node, plains in enumerate(plains_per_node)
    ]
    if refuted_by_bound([summarise(sequences) for sequences in per_node]):
        for combo in product(*per_node):
            assert starved_need(combo) is not None


def _space_realising(records_per_node):
    """A space whose records enumerate exactly the given plain sequences.

    Every sequence is its own chain of fresh states from the seed into the
    record, so the walk finds one path per chain, in insertion order.
    """
    space = LocalStateSpace(tuple(range(len(records_per_node))))
    fresh = count(1)
    targets = []
    for node, records in enumerate(records_per_node):
        seed = space.seed(node, ("seed", node))
        store = space.store(node)

        def state():
            number = next(fresh)
            return store.add(("s", number), number, 1, 1, 0)

        targets.append([])
        for sequences in records:
            target = state()
            for plain in sequences:
                previous = seed
                for position, (consumed, generated) in enumerate(plain):
                    current = target if position == len(plain) - 1 else state()
                    event = internal(node, f"e{next(fresh)}")
                    link(space, current, previous, event, consumed, generated)
                    previous = current
            targets[node].append(target)
    return space, targets


@settings(max_examples=200, deadline=None)
@given(
    records_per_node=bound_records,
    picks=st.lists(st.integers(min_value=0, max_value=1), min_size=1, max_size=12),
    # 4096 and 8192 stand for no bound: no case builds more than 4**3
    # combinations per call, or 2**3 * 4**3 cache keys.
    cache_limit=st.sampled_from([1, 3, 4096]),
    max_combinations=st.one_of(st.just(8192), st.integers(min_value=0, max_value=6)),
)
def test_the_bound_leaves_what_the_product_walk_leaves(
    records_per_node, picks, cache_limit, max_combinations
):
    """Bound on vs off: same counters, same verdicts, same spans, and the
    verdict cache holds the same keys in the same LRU order."""
    space, targets = _space_realising(records_per_node)
    # Each call picks one record per node; the picks cycle over the nodes.
    calls = [
        {
            node: records[picks[(call + node) % len(picks)] % len(records)]
            for node, records in enumerate(targets)
        }
        for call in range(len(picks))
    ]

    def run():
        stats, emitter = ExplorationStats(), MemoryEmitter()
        verifier = SoundnessVerifier(space, stats, emitter=emitter)
        with mock.patch.object(
            soundness, "MAX_COMBINATIONS_PER_CHECK", max_combinations
        ), mock.patch.object(soundness, "REPLAY_CACHE_LIMIT", cache_limit):
            verdicts = [verifier.is_state_sound(records) for records in calls]
        spans = [
            {key: value for key, value in record["fields"].items() if key != "bound_refuted"}
            for record in emitter.records
            if record["kind"] == "span" and record["name"] == "soundness"
        ]
        return (
            stats.snapshot(),
            verdicts,
            spans,
            list(verifier._replay_cache.items()),
        )

    with_bound = run()
    with mock.patch.object(soundness, "refuted_by_bound", lambda summaries: False):
        without_bound = run()
    assert with_bound == without_bound


def _verify(records_per_node, max_combinations=8192, **verifier_kw):
    """One traced call on the first record of each node of a realised space,
    with at most ``max_combinations`` tried: ``(witness, stats, soundness
    span fields)``."""
    space, targets = _space_realising(records_per_node)
    stats, emitter = ExplorationStats(), MemoryEmitter()
    verifier = SoundnessVerifier(space, stats, emitter=emitter, **verifier_kw)
    first = {node: records[0] for node, records in enumerate(targets)}
    with mock.patch.object(soundness, "MAX_COMBINATIONS_PER_CHECK", max_combinations):
        witness = verifier.is_state_sound(first)
    (span,) = [record["fields"] for record in emitter.records if record.get("name") == "soundness"]
    return witness, stats, span


class TestCombinationSearch:
    def test_picks_the_working_combination(self):
        # Node 0's first candidate needs hash 5, which nobody generates; its
        # second generates the 9 that node 1 consumes.
        witness, stats, _span = _verify(
            [[[((5, ()),), ((None, (9,)),)]], [[((9, ()),)]]]
        )
        assert witness is not None
        assert [event.node for event in witness] == [0, 1]
        assert stats.soundness_sequences == 2

    def test_the_cap_bounds_the_product_walk(self):
        unit = [[[((5, ()),)] * 4], [[((6, ()),)] * 4]]
        for memoize in (True, False):
            witness, stats, _span = _verify(unit, max_combinations=3, memoize=memoize)
            assert witness is None
            assert stats.soundness_sequences == 3

    def test_a_node_without_candidates_is_unsound_after_zero_tries(self):
        space = LocalStateSpace((0, 1))
        seed = space.seed(0, ("seed", 0))
        space.seed(1, ("seed", 1))
        unreachable = space.store(1).add(("s", 1), 1, 1, 1, 0)
        stats = ExplorationStats()
        verifier = SoundnessVerifier(space, stats)
        assert verifier.is_state_sound({0: seed, 1: unreachable}) is None
        assert (stats.soundness_calls, stats.soundness_sequences) == (1, 0)

    def test_the_bound_refutes_and_counts_the_capped_product(self):
        # Node 0 needs hash 5 twice; node 1 offers at most one copy.
        unit = [[[((5, ()), (5, ()))] * 3], [[((None, (5,)),), ((None, ()),)]]]
        for cap, tried in ((8192, 6), (4, 4)):
            witness, stats, span = _verify(unit, max_combinations=cap)
            assert witness is None
            assert span["bound_refuted"] is True
            assert stats.soundness_sequences == span["sequences"] == tried
