"""Tests for system-state creation: GEN, OPT (pairwise + pruned)."""

from collections import Counter
from typing import Dict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.records import LocalStateSpace
from repro.core.system_states import (
    ProjectionIndex,
    combination_to_system_state,
    enumerate_general,
    enumerate_optimized,
    enumerate_summarised,
)
from repro.invariants.base import DecomposableInvariant
from repro.model.hashing import content_hash
from repro.model.types import NodeId
from repro.protocols.tree import ReceivedImpliesSent, TreeNodeState


class ValueAgreement(DecomposableInvariant):
    """Toy agreement: states are (value,) tuples; None value = undecided."""

    name = "value-agreement"

    def check(self, system):
        values = {v for _n, (v,) in system.items() if v is not None}
        return len(values) <= 1

    def local_projection(self, node, state):
        return state[0]


class TripleConflict(ValueAgreement):
    """Same projection, but declared non-pairwise (full-product path)."""

    pairwise = False


class CustomConflict(ValueAgreement):
    """Same conflict expressed through an override (generate-and-filter)."""

    pairwise = False

    def projections_conflict(self, projections):
        return len(set(projections.values())) >= 2


def build_space(per_node: Dict[NodeId, list]) -> LocalStateSpace:
    space = LocalStateSpace(tuple(sorted(per_node)))
    records = {}
    for node, states in per_node.items():
        seed, *rest = states
        records[(node, 0)] = space.seed(node, seed)
        for i, state in enumerate(rest, start=1):
            records[(node, i)] = space.store(node).add(
                state, content_hash((node, state)), i, 0, frozenset()
            )
    return space


def anchor_of(space, node, index=-1):
    return space.store(node).records[index]


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
        combos = list(
            enumerate_optimized(space, 0, anchor_of(space, 0), ValueAgreement())
        )
        assert combos == []

    def test_no_conflict_means_nothing(self):
        space = build_space({0: [("a",)], 1: [("a",)], 2: [(None,)]})
        combos = list(
            enumerate_optimized(space, 0, anchor_of(space, 0), ValueAgreement())
        )
        assert combos == []

    def test_conflicting_pair_completed_over_third_node(self):
        space = build_space(
            {0: [("a",)], 1: [(None,), ("b",)], 2: [(None,), (None,)]}
        )
        combos = list(
            enumerate_optimized(space, 0, anchor_of(space, 0), ValueAgreement())
        )
        # pair (0:"a", 1:"b") completed over node2's two states
        assert len(combos) == 2
        for combo in combos:
            assert combo[1].state == ("b",)

    def test_completion_cap(self):
        space = build_space({0: [("a",)], 1: [("b",)], 2: [(None,)]})
        space.store(2).add((None, "x2"), content_hash("x2"), 1, 0, frozenset())
        space.store(2).add((None, "y2"), content_hash("y2"), 2, 0, frozenset())
        all_combos = list(
            enumerate_optimized(space, 0, anchor_of(space, 0), ValueAgreement())
        )
        capped = list(
            enumerate_optimized(
                space, 0, anchor_of(space, 0), ValueAgreement(), completion_cap=1
            )
        )
        assert len(all_combos) == 3
        assert len(capped) == 1

    def test_every_pairwise_combo_violates(self):
        space = build_space(
            {0: [("a",)], 1: [(None,), ("b",)], 2: [(None,), ("a",)]}
        )
        invariant = ValueAgreement()
        for combo in enumerate_optimized(space, 0, anchor_of(space, 0), invariant):
            assert not invariant.check(combination_to_system_state(combo))


class TestFullProductOpt:
    def test_pruned_product_matches_filtered_general(self):
        space = build_space(
            {0: [("a",), (None,)], 1: [(None,), ("b,")], 2: [(None,), ("c",)]}
        )
        invariant = TripleConflict()
        anchor = anchor_of(space, 0, index=0)
        optimized = {
            tuple(sorted((n, r.index) for n, r in combo.items()))
            for combo in enumerate_optimized(space, 0, anchor, invariant)
        }
        filtered = set()
        for combo in enumerate_general(space, 0, anchor):
            projections = {
                n: invariant.local_projection(n, r.state)
                for n, r in combo.items()
                if invariant.local_projection(n, r.state) is not None
            }
            if invariant.projections_conflict(projections):
                filtered.add(
                    tuple(sorted((n, r.index) for n, r in combo.items()))
                )
        assert optimized == filtered

    def test_custom_conflict_generate_and_filter(self):
        space = build_space({0: [("a",)], 1: [(None,), ("b",)]})
        combos = list(
            enumerate_optimized(space, 0, anchor_of(space, 0), CustomConflict())
        )
        assert len(combos) == 1
        assert combos[0][1].state == ("b",)

    def test_zero_cost_when_nothing_projects(self):
        space = build_space(
            {0: [(None,)] * 1, 1: [(None,), (None,)], 2: [(None,)]}
        )
        combos = list(
            enumerate_optimized(
                space, 0, anchor_of(space, 0), TripleConflict()
            )
        )
        assert combos == []


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
    grouped index and one through the un-indexed reference scan; the two
    must agree combination for combination, in order.  ``reference`` is the
    (equivalent) invariant instance the un-indexed scan asks, when the
    caller wants the two scans' calls counted apart.  Returns all
    combinations the pass yielded.
    """
    reference = reference or invariant
    space = LocalStateSpace(nodes)
    index = ProjectionIndex(nodes)
    projections = {}

    def projection_of(node, record):
        key = (node, record.index)
        if key not in projections:
            projections[key] = invariant.local_projection(node, record.state)
        return projections[key]

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
            record = store.add(state, content_hash(state), serial, 0, frozenset())
        else:
            record = space.seed(node, state)
        index.note(node, record, projection_of(node, record))
        indexed = combo_keys(
            enumerate_optimized(
                space, node, record, invariant, cap, projection_of, index
            )
        )
        scanned = combo_keys(
            enumerate_optimized(space, node, record, reference, cap, projection_of)
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
        index = ProjectionIndex(space.node_ids)
        for node in space.node_ids:
            for record in space.store(node).records:
                index.note(node, record, invariant.local_projection(node, record.state))
        for node in space.node_ids:
            for record in space.store(node).records:
                for cap in (None, 1):
                    indexed = enumerate_optimized(
                        space, node, record, invariant, cap, index=index
                    )
                    scanned = enumerate_optimized(space, node, record, invariant, cap)
                    assert combo_keys(indexed) == combo_keys(scanned)
        # "unsent" on the origin against "received" on the target conflicts
        # (2 partners x 2 completions); the same values on swapped nodes
        # would not.
        unsent = anchor_of(space, 0, index=0)
        combos = list(enumerate_optimized(space, 0, unsent, invariant, index=index))
        assert len(combos) == 4

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
    """``enumerate_summarised`` against the filtered ``enumerate_general``.

    Over arbitrary small spaces (with discards): the covered counts add up
    to the product, the violating combinations come out in the walk's order,
    and before each one the running count equals the walk's position.
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

        position, violating = 0, []
        for covered, combo in enumerate_summarised(
            space, anchor_node, anchor, lambda node, record: record.state[0], holds
        ):
            position += covered
            if combo is not None:
                assert covered == 1
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

        def agreement(system):
            return len({state[0] for _node, state in system.items()} - {None}) <= 1

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
