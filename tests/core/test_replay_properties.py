"""Property tests for the soundness replay's greedy-confluence claim.

§4.1 asserts that during ``isSequenceValid`` "it actually does not matter
which enabled event is selected": if *any* interleaving of the per-node
sequences respects message causality, the greedy scheduler finds one.  We
check that claim against a brute-force scheduler over hypothesis-generated
sequence sets: greedy succeeds exactly when some interleaving exists.
"""

from itertools import permutations
from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.soundness import (
    CompiledSequence,
    SequenceStep,
    replay_compiled,
    replay_sequences,
    replay_sequences_indexed,
    starved_need,
)
from repro.model.events import InternalEvent
from repro.model.types import Action

#: A generated plain step: (consumed hash or None, generated hashes).
Plain = Tuple[Optional[int], Tuple[int, ...]]


def compiled(node, plain):
    """A compiled sequence of event-less steps: all the quotient reads."""
    steps = tuple(SequenceStep(None, consumed, generated) for consumed, generated in plain)
    return CompiledSequence(node, plain, steps, key=0)


def make_step(node: int, index: int, plain: Plain) -> SequenceStep:
    consumed, generated = plain
    return SequenceStep(
        InternalEvent(Action(node=node, name=f"e{node}-{index}")),
        consumed,
        generated,
    )


def brute_force_valid(sequences: Dict[int, Tuple[Plain, ...]]) -> bool:
    """Is there ANY causally valid interleaving?  Exhaustive search."""
    items: List[Tuple[int, int]] = [
        (node, i)
        for node, seq in sequences.items()
        for i in range(len(seq))
    ]
    if len(items) > 7:
        raise AssertionError("keep generated cases tiny")

    def ok(order: Tuple[Tuple[int, int], ...]) -> bool:
        # per-node positions must appear in order
        positions: Dict[int, int] = {node: 0 for node in sequences}
        net: Dict[int, int] = {}
        for node, index in order:
            if positions[node] != index:
                return False
            consumed, generated = sequences[node][index]
            if consumed is not None:
                if net.get(consumed, 0) == 0:
                    return False
                net[consumed] -= 1
            for item in generated:
                net[item] = net.get(item, 0) + 1
            positions[node] += 1
        return True

    return any(ok(order) for order in permutations(items))


hash_values = st.integers(min_value=1, max_value=4)
plain_steps = st.tuples(
    st.one_of(st.none(), hash_values),
    st.lists(hash_values, max_size=2).map(tuple),
)
sequence_sets = st.dictionaries(
    st.integers(min_value=0, max_value=2),
    st.lists(plain_steps, max_size=3).map(tuple),
    min_size=1,
    max_size=3,
).filter(lambda d: sum(len(s) for s in d.values()) <= 6)


@settings(max_examples=300, deadline=None)
@given(sequence_sets)
def test_greedy_matches_brute_force(plain_sequences):
    rich = {
        node: tuple(
            make_step(node, i, plain) for i, plain in enumerate(sequence)
        )
        for node, sequence in plain_sequences.items()
    }
    greedy = replay_sequences(rich)
    expected = brute_force_valid(plain_sequences)
    assert (greedy is not None) == expected


@settings(max_examples=200, deadline=None)
@given(sequence_sets)
def test_greedy_order_is_itself_valid(plain_sequences):
    rich = {
        node: tuple(
            make_step(node, i, plain) for i, plain in enumerate(sequence)
        )
        for node, sequence in plain_sequences.items()
    }
    order = replay_sequences(rich)
    if order is None:
        return
    # The returned total order must contain every event exactly once and be
    # causally executable when re-simulated step by step.
    assert len(order) == sum(len(seq) for seq in rich.values())
    positions = {node: 0 for node in rich}
    net = {}
    for event in order:
        node = event.node
        step = rich[node][positions[node]]
        assert step.event is event
        if step.consumed_hash is not None:
            assert net.get(step.consumed_hash, 0) > 0
            net[step.consumed_hash] -= 1
        for item in step.generated_hashes:
            net[item] = net.get(item, 0) + 1
        positions[node] += 1
    assert all(
        positions[node] == len(rich[node]) for node in rich
    )


# A pinned counterexample to the naive greedy sweep (hypothesis-found): node 2
# greedily consumes the hash-1 message it just generated, starving node 1 —
# yet the order (2.0, 1.0, 2.1) is valid.  Greedy can only err like this when
# two steps compete to consume the same hash; replay must then fall back to
# the complete backtracking search.
COMPETING_CONSUMERS = {
    0: (),
    1: ((1, (1,)),),
    2: ((None, (1,)), (1, ())),
}


def test_competing_consumers_fall_back_to_backtracking():
    rich = {
        node: tuple(
            make_step(node, i, plain) for i, plain in enumerate(sequence)
        )
        for node, sequence in COMPETING_CONSUMERS.items()
    }
    order = replay_sequences(rich)
    assert order is not None
    assert brute_force_valid(COMPETING_CONSUMERS)


def test_plain_replay_falls_back_too():
    order = replay_sequences_indexed(COMPETING_CONSUMERS)
    assert order is not None
    assert len(order) == 3


# -- the starvation quotient ---------------------------------------------------

# Two hash values over up to nine steps force repeated hashes: several
# consumers of one hash (so greedy can err and the backtracking fallback
# runs), multiplicities above one, drop-like steps (consume, generate
# nothing) and local/crash-like steps (consume nothing).
quotient_hashes = st.integers(min_value=1, max_value=2)
quotient_steps = st.tuples(
    st.one_of(st.none(), quotient_hashes),
    st.lists(quotient_hashes, max_size=3).map(tuple),
)
quotient_combos = st.lists(
    st.lists(quotient_steps, max_size=3).map(tuple), min_size=2, max_size=4
)


@settings(max_examples=500, deadline=None)
@given(quotient_combos)
def test_quotient_never_changes_a_replay(plain_sequences):
    combo = [
        compiled(node, plain) for node, plain in enumerate(plain_sequences)
    ]
    full = replay_sequences_indexed(dict(enumerate(plain_sequences)))
    if starved_need(combo) is not None:
        assert full is None
    assert replay_compiled(combo) == full


def test_quotient_counts_multiplicity_and_own_generation():
    twice = ((7, ()), (7, ()))
    once, two = ((None, (7,)),), ((None, (7, 7)),)
    assert starved_need([compiled(0, twice), compiled(1, once)]) == (0, 7)
    assert starved_need([compiled(0, twice), compiled(1, two)]) is None
    # A sequence's own generation covers its own consumption...
    own = ((None, (7,)), (7, ()))
    assert starved_need([compiled(0, own), compiled(1, ())]) is None
    # ...and a drop-like consumer competes for the same single copy.
    drop = ((7, ()),)
    combo = [compiled(0, own), compiled(1, drop)]
    assert starved_need(combo) == (1, 7)
