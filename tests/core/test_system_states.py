"""Tests for system-state creation: GEN, summarised GEN, pairwise OPT."""

from collections import Counter
from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.records import LocalStateSpace
from repro.core.system_states import (
    SummaryIndex,
    clean_block_size,
    combination_to_system_state,
    enumerate_general,
    enumerate_optimized,
)
from repro.invariants.base import DecomposableInvariant
from repro.model.hashing import content_hash
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, NodeId
from repro.protocols.tree import ReceivedImpliesSent, TreeNodeState


class ValueAgreement(DecomposableInvariant):
    """Toy agreement: a state's first item is its value; None = undecided."""

    name = "value-agreement"

    def local_projection(self, node, state):
        return state[0]


class TripleConflict(ValueAgreement):
    """Same projection, but declared non-pairwise: LMC-GEN's product."""

    pairwise = False


class Choosers(Protocol):
    """Three nodes, each of which may choose "a" or "b" once."""

    def node_ids(self):
        return (0, 1, 2)

    def initial_state(self, node):
        return (None, node)

    def enabled_actions(self, state):
        if state[0] is not None:
            return ()
        return tuple(Action(node=state[1], name="choose", payload=v) for v in "ab")

    def handle_action(self, state, action):
        return HandlerResult((action.payload, state[1]))

    def handle_message(self, state, message):
        return HandlerResult(state)


def test_non_pairwise_invariant_runs_and_reports_gen_under_opt():
    checkers = [
        LocalModelChecker(Choosers(), TripleConflict(), config=config(stop_on_first_bug=False))
        for config in (LMCConfig.optimized, LMCConfig.general)
    ]
    assert [checker.algorithm for checker in checkers] == ["LMC-GEN", "LMC-GEN"]
    optimized, general = (
        (
            {k: v for k, v in result.stats.snapshot().items() if not k.startswith("phase_")},
            [bug.trace_lines() for bug in result.bugs],
        )
        for result in (checker.run() for checker in checkers)
    )
    assert optimized[0]["confirmed_bugs"] > 0
    assert optimized == general


def build_space(per_node: Dict[NodeId, list]) -> LocalStateSpace:
    space = LocalStateSpace(tuple(sorted(per_node)))
    records = {}
    for node, states in per_node.items():
        seed, *rest = states
        records[(node, 0)] = space.seed(node, seed)
        for i, state in enumerate(rest, start=1):
            records[(node, i)] = space.store(node).add(
                state, content_hash((node, state)), i, 0, 0
            )
    return space


def anchor_of(space, node, index=-1):
    return space.store(node).records[index]


def index_of(space, key_of):
    """A summary index over every record of ``space``, noted in discovery order."""
    index = SummaryIndex(space.node_ids, key_of)
    for node in space.node_ids:
        for record in space.store(node).records:
            index.note(record)
    return index


def opt(space, node, anchor, invariant, **kwargs):
    """``enumerate_optimized`` over an index built from ``space``."""
    index = index_of(space, invariant.local_projection)
    return list(enumerate_optimized(space, node, anchor, invariant, index, **kwargs))


class TestGeneral:
    def test_full_product_anchored(self):
        space = build_space({0: [("a",)], 1: [(None,), ("b",)], 2: [(None,)]})
        anchor = anchor_of(space, 0)
        combos = list(enumerate_general(space, 0, anchor))
        assert len(combos) == 2  # node1 has two states, node2 one
        for combo in combos:
            assert combo[0] is anchor

    def test_discarded_records_excluded(self):
        space = build_space({0: [("a",)], 1: [(None,), ("b",)]})
        store = space.store(1)
        store.mark_discarded(store.records[1])
        combos = list(enumerate_general(space, 0, anchor_of(space, 0)))
        assert len(combos) == 1

    def test_combination_to_system_state(self):
        space = build_space({0: [("a",)], 1: [("b",)]})
        combo = next(enumerate_general(space, 0, anchor_of(space, 0)))
        system = combination_to_system_state(combo)
        assert system.get(0) == ("a",)
        assert system.get(1) == ("b",)


class TestPairwiseOpt:
    def test_no_projection_on_anchor_means_nothing(self):
        space = build_space({0: [(None,)], 1: [("a",)], 2: [("b",)]})
        combos = opt(space, 0, anchor_of(space, 0), ValueAgreement())
        assert combos == []

    def test_no_conflict_means_nothing(self):
        space = build_space({0: [("a",)], 1: [("a",)], 2: [(None,)]})
        combos = opt(space, 0, anchor_of(space, 0), ValueAgreement())
        assert combos == []

    def test_conflicting_pair_completed_over_third_node(self):
        space = build_space(
            {0: [("a",)], 1: [(None,), ("b",)], 2: [(None,), (None,)]}
        )
        combos = opt(space, 0, anchor_of(space, 0), ValueAgreement())
        # pair (0:"a", 1:"b") completed over node2's two states
        assert len(combos) == 2
        for combo in combos:
            assert combo[1].state == ("b",)

    def test_completion_cap(self):
        space = build_space({0: [("a",)], 1: [("b",)], 2: [(None,)]})
        space.store(2).add((None, "x2"), content_hash("x2"), 1, 0, 0)
        space.store(2).add((None, "y2"), content_hash("y2"), 2, 0, 0)
        all_combos = opt(space, 0, anchor_of(space, 0), ValueAgreement())
        capped = opt(space, 0, anchor_of(space, 0), ValueAgreement(), completion_cap=1)
        assert len(all_combos) == 3
        assert len(capped) == 1

    def test_every_pairwise_combo_violates(self):
        space = build_space(
            {0: [("a",)], 1: [(None,), ("b",)], 2: [(None,), ("a",)]}
        )
        invariant = ValueAgreement()
        for combo in opt(space, 0, anchor_of(space, 0), invariant):
            assert not invariant.check(combination_to_system_state(combo))


class CountingConflict(ValueAgreement):
    """Pairwise custom notion that reads the node ids; counts its calls."""

    def __init__(self):
        self.calls = Counter()

    def projections_conflict(self, projections):
        (a, pa), (b, pb) = projections.items()
        self.calls[(a, pa, b, pb)] += 1
        return pa != pb and a < b


class ListProjection(ValueAgreement):
    """Projects to an unhashable value (a one-element list)."""

    def local_projection(self, node, state):
        return None if state[0] is None else [state[0]]


def combo_keys(combos):
    return [tuple(sorted((n, r.index) for n, r in combo.items())) for combo in combos]


def replay_pass(schedule, invariant, nodes=(0, 1, 2), cap=None, reference=None):
    """Grow a space like a checker pass; compare both partner scans per anchor.

    ``schedule`` items are ``(node, value)`` — a new state of ``node``
    projecting to ``value`` — or ``("discard", node, record index)``.  Every
    new record is noted and then anchors one enumeration through the
    grouped scan and one through the record-by-record reference scan; the
    two must agree combination for combination, in order.  ``reference`` is
    the (equivalent) invariant instance the reference scan asks, when the
    caller wants the two scans' calls counted apart.  Returns all
    combinations the pass yielded.
    """
    reference = reference or invariant
    space = LocalStateSpace(nodes)
    index = SummaryIndex(nodes, invariant.local_projection)
    yielded = []
    for serial, item in enumerate(schedule):
        if item[0] == "discard":
            _tag, node, record_index = item
            store = space.store(node)
            store.mark_discarded(store.records[record_index])
            continue
        node, value = item
        store = space.store(node)
        state = (value, serial)
        if store.records:
            record = store.add(state, content_hash(state), serial, 0, 0)
        else:
            record = space.seed(node, state)
        index.note(record)
        indexed = combo_keys(
            enumerate_optimized(space, node, record, invariant, index, cap)
        )
        scanned = combo_keys(
            enumerate_optimized(space, node, record, reference, index, cap, False)
        )
        assert indexed == scanned
        yielded.extend(indexed)
    return yielded


class TestGroupedIndexEquivalence:
    """The value-grouped index yields what the record scan yields, in order."""

    INTERLEAVED = [
        (2, None),
        (1, "a"),
        (1, "b"),
        (1, "c"),
        (1, "a"),
        (1, None),
        (1, "c"),
        (1, "b"),
        (2, None),
        (0, "a"),
        (0, "c"),
        (0, "d"),
    ]

    def test_default_notion_three_interleaved_values(self):
        for cap in (None, 1):
            combos = replay_pass(self.INTERLEAVED, ValueAgreement(), cap=cap)
            assert combos
        # anchor "a" on node 0 pairs with node 1's b, c, c, b — two groups
        # merged back into discovery order (record indexes 1, 2, 5, 6)
        partners = [
            dict(key)[1]
            for key in replay_pass(self.INTERLEAVED[:10], ValueAgreement(), cap=1)
            if dict(key)[0] == 0
        ]
        assert partners == [1, 2, 5, 6]

    def test_node_id_dependent_custom_notion(self):
        invariant = ReceivedImpliesSent(origin=0, target=1)
        space = build_space(
            {
                0: [
                    TreeNodeState(0),
                    TreeNodeState(0, forwarded=True),
                    TreeNodeState(0, sent=True),
                ],
                1: [
                    TreeNodeState(1),
                    TreeNodeState(1, received=True),
                    TreeNodeState(1, received=True, forwarded=True),
                ],
                2: [TreeNodeState(2), TreeNodeState(2, forwarded=True)],
            }
        )
        for node in space.node_ids:
            for record in space.store(node).records:
                for cap in (None, 1):
                    indexed, scanned = (
                        opt(space, node, record, invariant, completion_cap=cap, grouped=grouped)
                        for grouped in (True, False)
                    )
                    assert combo_keys(indexed) == combo_keys(scanned)
        # "unsent" on the origin against "received" on the target conflicts
        # (2 partners x 2 completions); the same values on swapped nodes
        # would not.
        unsent = anchor_of(space, 0, index=0)
        assert len(opt(space, 0, unsent, invariant)) == 4

    def test_discarded_record_inside_a_conflicting_group(self):
        schedule = [
            (2, None),
            (1, "b"),
            (1, "c"),
            (1, "b"),
            (1, "b"),
            ("discard", 1, 2),
            (0, "a"),
        ]
        for invariant in (ValueAgreement(), CountingConflict()):
            combos = replay_pass(schedule, invariant)
            partners = [dict(key)[1] for key in combos if dict(key)[0] == 0]
            assert partners == [0, 1, 3]

    def test_unhashable_projection_gets_singleton_groups(self):
        combos = replay_pass(self.INTERLEAVED, ListProjection())
        assert combos == replay_pass(self.INTERLEAVED, ValueAgreement())

        class ListNodeOrder(ListProjection):
            def projections_conflict(self, projections):
                (a, pa), (b, pb) = projections.items()
                return pa != pb and a < b

        assert replay_pass(self.INTERLEAVED, ListNodeOrder()) == replay_pass(
            self.INTERLEAVED, CountingConflict()
        )

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.tuples(
                    st.integers(0, 2), st.sampled_from([None, "a", "b", "c"])
                ),
                st.tuples(st.just("discard"), st.integers(0, 2), st.integers(0, 5)),
            ),
            max_size=24,
        ),
        st.sampled_from([None, 1, 2]),
    )
    def test_any_interleaving_of_notes(self, raw, cap):
        seen = Counter()
        schedule = []
        for item in raw:
            if item[0] == "discard":
                # only non-seed records that exist can be discarded
                if not 0 < item[2] < seen[item[1]]:
                    continue
            else:
                seen[item[0]] += 1
            schedule.append(item)
        replay_pass(schedule, ValueAgreement(), cap=cap)
        replay_pass(schedule, CountingConflict(), cap=cap)

    def test_one_real_conflict_call_per_distinct_key(self):
        indexed, scanned = CountingConflict(), CountingConflict()
        # later anchors repeat projections already asked about — the group
        # visit collapses records, the memo collapses anchors — and the last
        # asks from node 1 about value pairs node 0 anchored before, where
        # the verdict differs: the node ids must be part of the memo key
        schedule = self.INTERLEAVED + [(0, "a"), (1, "b"), (1, "a")]
        assert replay_pass(schedule, indexed, reference=scanned)
        assert set(indexed.calls) == set(scanned.calls)
        assert max(indexed.calls.values()) == 1
        # the reference asks once per (anchor, projecting partner record)
        assert sum(scanned.calls.values()) > 2 * sum(indexed.calls.values())


class TestSummarisedEquivalence:
    """``clean_block_size`` then ``enumerate_general``, as the checker runs them.

    Against the plain walk, over a ``SummaryIndex`` noted before the
    discards, like a checker pass's, and arbitrary small spaces: a clean
    block covers the whole product, and an anchor with a violating tuple
    yields the walk's violating combinations at the walk's positions.
    """

    @staticmethod
    def walked(space, anchor_node, anchor, check):
        position, violating = 0, []
        for combo in enumerate_general(space, anchor_node, anchor):
            position += 1
            if not check(combination_to_system_state(combo)):
                violating.append((position, combo_keys([combo])[0]))
        return position, violating

    @staticmethod
    def summarised(space, anchor_node, anchor, check):
        calls = []

        def holds(combo):
            calls.append(combo)
            return check(combination_to_system_state(combo))

        index = index_of(space, ValueAgreement().local_projection)
        size = clean_block_size(space, anchor_node, anchor, index, holds)
        if size is not None:
            return size, [], len(calls)
        position, violating = 0, []
        for combo in enumerate_general(space, anchor_node, anchor):
            position += 1
            if not holds(combo):
                violating.append((position, combo_keys([combo])[0]))
        return position, violating, len(calls)

    @settings(max_examples=80, deadline=None)
    @given(
        st.dictionaries(
            st.integers(0, 3),
            st.lists(st.sampled_from([None, "a", "b"]), min_size=1, max_size=6),
            min_size=1,
            max_size=4,
        ),
        st.data(),
    )
    def test_counts_and_violations_match_the_walk(self, values, data):
        space = build_space(
            {node: [(value, i) for i, value in enumerate(vs)] for node, vs in values.items()}
        )
        for node, store in space.stores.items():
            for record in store.records[1:]:
                if data.draw(st.booleans(), label=f"discard {node}/{record.index}"):
                    store.mark_discarded(record)
        agreement = ValueAgreement().check
        anchor_node = data.draw(st.sampled_from(sorted(values)), label="anchor")
        anchor = anchor_of(space, anchor_node)
        total, violating = self.walked(space, anchor_node, anchor, agreement)
        covered, summarised, calls = self.summarised(space, anchor_node, anchor, agreement)
        assert covered == total
        assert summarised == violating
        # at most one call per distinct tuple of other nodes' values, plus
        # one per combination when some tuple violates
        tuples = 3 ** (len(values) - 1)
        assert calls <= (tuples + total if violating else tuples)

    def test_groups_whose_first_or_every_record_is_discarded(self):
        values = [None, "a", "c", "a", "b"]
        space = build_space({0: [("b", 0)], 1: [(v, i) for i, v in enumerate(values)]})
        index = index_of(space, ValueAgreement().local_projection)
        store = space.store(1)
        for discarded in (1, 4):  # the first "a"; the only "b"
            store.mark_discarded(store.records[discarded])
        # groups in note order are None, "a", "c", "b"; "a" is represented
        # by its second record, after "c"'s first, and "b" not at all
        assert [record.index for record in index.representatives(1)] == [0, 2, 3]
        anchor, check = anchor_of(space, 0), ValueAgreement().check
        walk = (3, [(2, ((0, 0), (1, 2))), (3, ((0, 0), (1, 3)))])
        assert self.walked(space, 0, anchor, check) == walk
        assert self.summarised(space, 0, anchor, check)[:2] == walk
