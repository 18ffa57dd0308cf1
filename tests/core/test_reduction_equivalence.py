"""Reduction must be invisible when off and verdict-preserving when on.

PR 7's symmetry reduction and commutativity pruning (docs/REDUCTION.md) are
gated behind ``LMCConfig.symmetry_reduction`` and ``LMCConfig.por_pruning``;
with both knobs off — or on but with nothing to reduce — every counter,
verdict and witness trace must be byte-identical to an unreduced run, the
same discipline ``test_cache_equivalence`` and ``test_fault_equivalence``
apply to the PR 3 caches and the PR 4 fault scheduler.  With a knob on, the
checker may visit fewer system states but must report the same bugs, and
every reported bug must still replay end to end.

The algebra the soundness argument leans on is pinned directly: the
composed renaming group is closed under composition, orbit keys are
invariant across an orbit (canonicalisation is idempotent), the block
counter finds exactly the orbits first-occurrence filtering admits, and
seeding from an asymmetric live snapshot collapses the group to its
stabilizer.
"""

from dataclasses import dataclass
from math import factorial
from typing import Any, Dict, Tuple
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import symmetry
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.records import LocalStateSpace
from repro.core.symmetry import SymmetryReducer, build_group
from repro.core.system_states import enumerate_general
from repro.explore.budget import SearchBudget
from repro.model.hashing import content_hash, substitute_node_ids
from repro.model.types import NodeId
from repro.protocols.echo import EchoNodeState, EchoProtocol, PongsImplyPing
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator
from repro.replay import validate_bug
from tests.core.equivalence import observable, onepaxos_s56, paxos_s55


def _verdict(result):
    """The reduction-invariant projection: verdicts, not visit counts."""
    return {
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": sorted(bug.description for bug in result.bugs),
    }


#: Small exhaustible workloads covering clean and buggy verdict shapes; the
#: tree and echo protocols declare symmetry (echo) or nothing (the Fig. 2
#: tree has no interchangeable leaves), 2PC declares participant classes.
SCENARIOS = {
    "tree": lambda: (TreeProtocol(), ReceivedImpliesSent()),
    "echo": lambda: (EchoProtocol(num_nodes=3), PongsImplyPing()),
    "2pc-clean": lambda: (EagerCommitCoordinator(3), CommitValidity()),
    "2pc-buggy": lambda: (EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity()),
}


def test_reduction_is_off_by_default():
    for config in (LMCConfig(), LMCConfig.optimized(), LMCConfig.general()):
        assert config.symmetry_reduction is False
        assert config.por_pruning is False


@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    max_transitions=st.one_of(st.none(), st.integers(min_value=20, max_value=200)),
)
@settings(max_examples=15, deadline=None)
def test_knobs_off_is_byte_identical(scenario, max_transitions):
    """Explicitly-off knobs == the defaults, bit for bit."""
    budget = (
        SearchBudget.unbounded()
        if max_transitions is None
        else SearchBudget(max_transitions=max_transitions)
    )
    protocol, invariant = SCENARIOS[scenario]()
    baseline = LocalModelChecker(
        protocol, invariant, budget=budget, config=LMCConfig.optimized()
    ).run()
    protocol, invariant = SCENARIOS[scenario]()
    gated = LocalModelChecker(
        protocol,
        invariant,
        budget=budget,
        config=LMCConfig.optimized(symmetry_reduction=False, por_pruning=False),
    ).run()
    observed = observable(gated)
    assert observed == observable(baseline)
    assert observed["counts"]["symmetry_skips"] == 0
    assert observed["counts"]["por_links_suppressed"] == 0


def test_no_declared_symmetry_is_byte_identical():
    """A protocol that declares nothing pays nothing with the knob on.

    The Fig. 2 tree has no interchangeable leaves (leaf 1's sibling is
    interior, leaf 3's sibling is the target), so ``symmetry_classes``
    returns no class and ``SymmetryReducer.for_pass`` hands back ``None`` —
    the run must be byte-identical to the baseline.
    """
    baseline = LocalModelChecker(
        TreeProtocol(), ReceivedImpliesSent(), config=LMCConfig.optimized()
    ).run()
    reduced = LocalModelChecker(
        TreeProtocol(),
        ReceivedImpliesSent(),
        config=LMCConfig.optimized(symmetry_reduction=True),
    ).run()
    assert observable(reduced) == observable(baseline)


@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    symmetry=st.booleans(),
    por=st.booleans(),
)
@settings(max_examples=15, deadline=None)
def test_reduction_on_preserves_verdicts(scenario, symmetry, por):
    """Any knob combination reports the same bugs as the unreduced run."""
    protocol, invariant = SCENARIOS[scenario]()
    baseline = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized(stop_on_first_bug=False)
    ).run()
    protocol, invariant = SCENARIOS[scenario]()
    reduced = LocalModelChecker(
        protocol,
        invariant,
        config=LMCConfig.optimized(
            stop_on_first_bug=False,
            symmetry_reduction=symmetry,
            por_pruning=por,
        ),
    ).run()
    assert _verdict(reduced) == _verdict(baseline)
    assert (
        reduced.stats.system_states_created
        <= baseline.stats.system_states_created
    )


@pytest.mark.parametrize("por", [False, True], ids=["symmetry", "symmetry+por"])
def test_symmetry_reduces_general_enumeration_and_keeps_the_verdict(por):
    """On LMC-GEN the full product shrinks by at least 2x.

    Four nodes, one scripted proposer: the three passive acceptors form one
    class (group size 6), so orbit filtering must at least halve
    ``system_states_created`` while the verdict stays clean — alone, and
    with commutativity pruning on as well.
    """
    results = {}
    for symmetry in (False, True):
        protocol = PaxosProtocol(num_nodes=4, proposals=((0, 0, "v0"),))
        results[symmetry] = LocalModelChecker(
            protocol,
            PaxosAgreement(0),
            config=LMCConfig.general(
                symmetry_reduction=symmetry, por_pruning=symmetry and por
            ),
            budget=SearchBudget(max_depth=4),
        ).run()
    assert _verdict(results[True]) == _verdict(results[False])
    unreduced = results[False].stats.system_states_created
    reduced = results[True].stats.system_states_created
    assert reduced * 2 <= unreduced
    assert results[True].stats.symmetry_skips > 0


def test_snapshot_bugs_survive_reduction_with_replayable_witness():
    """The §5.5 and §5.6 bugs are found with both knobs on, and replay."""
    for make in (paxos_s55, onepaxos_s56):
        protocol, invariant, initial = make()
        baseline = LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized()
        ).run(initial)
        protocol, invariant, initial = make()
        reduced = LocalModelChecker(
            protocol,
            invariant,
            config=LMCConfig.optimized(symmetry_reduction=True, por_pruning=True),
        ).run(initial)
        assert _verdict(reduced) == _verdict(baseline)
        assert reduced.found_bug
        outcome = validate_bug(protocol, reduced.first_bug(), invariant)
        assert outcome.complete and outcome.violates


def test_por_suppresses_links_without_losing_the_s55_bug():
    """Commutativity pruning actually fires on §5.5 and keeps the witness."""
    protocol, invariant, initial = paxos_s55()
    result = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized(por_pruning=True)
    ).run(initial)
    assert result.found_bug
    assert result.stats.por_links_suppressed > 0
    outcome = validate_bug(protocol, result.first_bug(), invariant)
    assert outcome.complete and outcome.violates


# -- the group algebra the soundness argument relies on -------------------------


def _apply(mapping: Dict[NodeId, NodeId], node: NodeId) -> NodeId:
    return mapping.get(node, node)


def test_group_is_closed_under_composition():
    """π∘σ of any two group elements is again a group element."""
    protocol = PaxosProtocol(num_nodes=5, proposals=((0, 0, "v0"),))
    group = build_group(protocol.symmetry_classes())
    nodes = protocol.node_ids()
    elements = {
        frozenset((node, _apply(mapping, node)) for node in nodes)
        for mapping in group
    }
    assert len(elements) == len(group)
    for outer in group:
        for inner in group:
            composed = frozenset(
                (node, _apply(outer, _apply(inner, node))) for node in nodes
            )
            assert composed in elements


@dataclass(frozen=True)
class _FakeRecord:
    """The record shape ``SymmetryReducer`` consumes: state plus identity."""

    node: NodeId
    index: int
    state: Any
    hash: int


def _record(node: NodeId, state: Any, index: int = 0) -> _FakeRecord:
    return _FakeRecord(node=node, index=index, state=state, hash=content_hash(state))


def _echo_state(node: NodeId, pinged: bool, ponged: bool, pongs: Tuple[int, ...]):
    return EchoNodeState(
        node=node, pinged=pinged, ponged=ponged, pongs_seen=frozenset(pongs)
    )


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_orbit_key_is_invariant_across_the_orbit(data):
    """Renaming a combination by any group element keeps its orbit key.

    This is canonicalisation idempotence: the orbit key of every member of
    an orbit is the key of the orbit's representative, so first-occurrence
    filtering admits exactly one member per orbit.
    """
    protocol = EchoProtocol(num_nodes=4)
    reducer = SymmetryReducer(protocol, protocol.symmetry_classes())
    nodes = protocol.node_ids()
    combo = {}
    for node in nodes:
        state = _echo_state(
            node,
            pinged=data.draw(st.booleans()),
            ponged=data.draw(st.booleans()),
            pongs=tuple(
                data.draw(
                    st.sets(st.sampled_from(nodes), max_size=len(nodes))
                )
            ),
        )
        combo[node] = _record(node, state, index=data.draw(st.integers(0, 3)))
    mapping = data.draw(st.sampled_from(reducer.group))
    # The renamed-hash cache keys on (node, record index): in a real store
    # that pair names one record, so the sibling records here must carry
    # fresh indexes rather than reuse the originals' under a new state.
    renamed = {
        _apply(mapping, node): _record(
            _apply(mapping, node),
            protocol.rename_state(record.state, mapping),
            index=record.index + 100,
        )
        for node, record in combo.items()
    }
    assert reducer.orbit_key(renamed) == reducer.orbit_key(combo)
    # And first-occurrence filtering treats the sibling as already seen.
    assert reducer.first_occurrence(combo)
    assert not reducer.first_occurrence(renamed)
    assert reducer.orbit_hits == 1


def test_orbit_keys_are_hash_tuples_over_the_whole_node_set():
    """A key lists one hash per node of the reducer's node set, in node
    order; a combination missing a node cannot be keyed."""
    protocol = EchoProtocol(num_nodes=3)
    reducer = SymmetryReducer(protocol, protocol.symmetry_classes())
    assert reducer.nodes == (0, 1, 2)
    combo = {
        node: _record(node, _echo_state(node, False, False, ()))
        for node in reversed(protocol.node_ids())
    }
    key = reducer.orbit_key(combo)
    assert len(key) == 3 and all(type(item) is int for item in key)
    assert key[0] == combo[0].hash
    del combo[2]
    with pytest.raises(ValueError, match="node set"):
        reducer.orbit_key(combo)


def _add(space: LocalStateSpace, state: EchoNodeState):
    """Store ``state`` as a new record of its node; None when already known."""
    store = space.store(state.node)
    state_hash = content_hash(state)
    if store.lookup(state_hash) is not None:
        return None
    return store.add(state, state_hash, 1, 0, 0)


def _counted_and_walked(reducers, space, anchor):
    """New orbits of ``anchor``'s block: counted by one reducer, walked by the other."""
    counted, walked = reducers
    new = sum(
        fresh for _combinations, fresh in counted.count_block(space, anchor.node, anchor)
    )
    expected = sum(
        walked.first_occurrence(combo)
        for combo in enumerate_general(space, anchor.node, anchor)
    )
    return new, expected


def _echo_space(responders: int):
    protocol = EchoProtocol(num_nodes=responders + 1)
    space = LocalStateSpace(protocol.node_ids())
    for node in protocol.node_ids():
        space.seed(node, protocol.initial_state(node))
    reducers = tuple(
        SymmetryReducer(protocol, protocol.symmetry_classes()) for _ in range(2)
    )
    return protocol, space, reducers


@given(
    responders=st.sampled_from([2, 3]),
    chunk=st.integers(1, 5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_count_block_finds_the_orbits_first_occurrence_admits(responders, chunk, data):
    """``count_block`` against ``first_occurrence`` over ``enumerate_general``.

    Records arrive in a random interleaving across the nodes (group of 2
    with two responders, of 6 with three), each new record anchoring a
    block; chunks as small as one combination.  After every block both
    reducers must agree on the new-orbit count, the orbit-key set and the
    hit count.
    """
    protocol, space, reducers = _echo_space(responders)
    assert all(len(r.group) == factorial(responders) for r in reducers)
    nodes = protocol.node_ids()
    additions = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(nodes),
                st.booleans(),
                st.booleans(),
                st.sets(st.sampled_from(nodes)),
            ),
            max_size=10,
        )
    )
    with mock.patch.object(symmetry, "BLOCK_CHUNK", chunk):
        for node, pinged, ponged, pongs in additions:
            anchor = _add(space, _echo_state(node, pinged, ponged, tuple(pongs)))
            if anchor is None:
                continue
            new, expected = _counted_and_walked(reducers, space, anchor)
            assert new == expected
            counted, walked = reducers
            assert counted._seen == walked._seen
            assert counted.orbit_hits == walked.orbit_hits


def test_count_block_anchor_before_its_renamed_sibling_exists():
    """An anchor whose renamed sibling record is not stored yet.

    Responder 1 pongs first: its π-pair names a state responder 2 has not
    reached, so the orbit is new and no sibling variant exists.  When
    responder 2 reaches the mirrored state, its block holds that orbit
    again and counts it as a hit — as the walk does.
    """
    protocol, space, reducers = _echo_space(2)
    counted, walked = reducers
    first = _add(space, _echo_state(1, pinged=False, ponged=True, pongs=()))
    assert _counted_and_walked(reducers, space, first) == (1, 1)
    combo = {node: space.store(node).records[-1] for node in protocol.node_ids()}
    assert list(counted.orbit_variants(space, combo)) == []
    sibling = _add(space, _echo_state(2, pinged=False, ponged=True, pongs=()))
    # Blocks at responder 2: {seed, first} at responder 1; the pair with
    # ``first`` is new, the pair with the seed mirrors the earlier block.
    assert _counted_and_walked(reducers, space, sibling) == (1, 1)
    assert counted.orbit_hits == walked.orbit_hits == 1
    assert counted._seen == walked._seen


def test_stabilizer_collapses_on_asymmetric_snapshot():
    """Seeding from the §5.5 snapshot must disable the all-nodes group.

    ``scenario_protocol`` scripts no proposals, so every node is passive and
    the hook declares all three interchangeable — true of the uniform boot
    state, false of the crafted partial-choice snapshot.  The stabilizer
    filter must cut the group to the identity (and ``for_pass`` then
    disables the reducer entirely).
    """
    protocol = scenario_protocol(buggy=True)
    reducer = SymmetryReducer(protocol, protocol.symmetry_classes())
    assert len(reducer.group) == 6
    reducer.restrict_to_stabilizer(partial_choice_state())
    assert len(reducer.group) == 1
    assert reducer.group[0] == {}


def test_stabilizer_keeps_the_full_group_on_uniform_boot():
    protocol = PaxosProtocol(num_nodes=4, proposals=((0, 0, "v0"),))
    reducer = SymmetryReducer(protocol, protocol.symmetry_classes())
    assert len(reducer.group) == 6
    reducer.restrict_to_stabilizer(protocol.initial_system_state())
    assert len(reducer.group) == 6


def test_generic_substitution_walker_renames_structured_values():
    """The default ``rename_state`` path rewrites ids inside containers."""
    state = _echo_state(2, pinged=False, ponged=True, pongs=(1, 3))
    renamed = substitute_node_ids(state, {2: 3, 3: 2})
    assert renamed == _echo_state(3, pinged=False, ponged=True, pongs=(1, 2))
    # Identity on values holding no mapped ids — same object, not a copy.
    untouched = _echo_state(0, pinged=True, ponged=False, pongs=())
    assert substitute_node_ids(untouched, {2: 3, 3: 2}) is untouched


def test_paxos_rename_state_relabels_ballots_but_not_rounds():
    """Paxos' explicit ``rename_state`` is sharper than the generic walker.

    A ballot's ``proposer`` is a node id but its ``round`` is not; decree
    indexes are not node ids either.  The explicit hook relabels only the
    id-typed fields — the reason Paxos cannot use ``substitute_node_ids``.
    """
    protocol = PaxosProtocol(num_nodes=4, proposals=((0, 0, "v0"),))
    state = protocol.initial_state(1)
    renamed = protocol.rename_state(state, {1: 2, 2: 1})
    assert renamed.node == 2
    assert protocol.rename_state(state, {}) == state
