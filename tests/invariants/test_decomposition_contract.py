"""The LMC-OPT decomposition contract, checked against reachable states.

``DecomposableInvariant`` documents the contract OPT's skipping relies on:
*if a system state violates ``check``, its node states' projections must
satisfy ``projections_conflict``* (pairwise, for ``pairwise`` invariants).
These tests enumerate reachable system states of buggy builds (which do
produce violations) and verify the contract on every single one — the
evidence that LMC-OPT cannot skip a real bug for our shipped invariants.

The grouped ``SummaryIndex`` scan leans on a second clause of the contract:
``projections_conflict`` is a pure function of its argument and equal
projections are interchangeable, so one verdict per distinct ``(node,
projection, node, projection)`` may stand for every record pair behind it.
:func:`assert_verdicts_pure` checks that clause for every shipped
invariant over the projections its protocol actually reaches.

Summarised LMC-GEN leans on the optional ``summary`` hook: ``check`` is a
function of the per-node summary tuple, so one verdict stands for every
combination behind a tuple.  :func:`assert_summary_contract` checks it for
every shipped invariant that declares the hook, over every combination of
reachable node states.

A shipped invariant states its violation once, as the decomposition, and
its ``check`` is derived from it.  :func:`assert_contract` compares that
derived ``check`` with the predicate each invariant used to state by hand
(the reference functions below) on every system state it is given.
"""

import importlib
import pickle
import pkgutil
from itertools import combinations, permutations, product
from typing import List

import pytest

import repro.protocols
from repro.explore.global_checker import (
    GlobalModelChecker,
)
from repro.invariants.base import (
    DecomposableInvariant,
    Invariant,
    PredicateInvariant,
    declares_summary,
)
from repro.model.conformance import summary_contract_problems
from repro.model.system_state import SystemState
from repro.protocols.onepaxos import OnePaxosAgreement, OnePaxosAgreementAll
from repro.protocols.onepaxos.scenarios import (
    post_leaderchange_state,
    scenario_protocol as onepaxos_scenario,
)
from repro.protocols.paxos import PaxosAgreement, PaxosAgreementAll
from repro.protocols.paxos.scenarios import (
    partial_choice_state,
    scenario_protocol as paxos_scenario,
)
from repro.protocols.ring import AtMostOneLeader, GreedyRingElection
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
)
from tests.model.test_conformance import BlindAtomicity


# -- reference predicates: each invariant's hand-written ``check`` ---------------


def paxos_agreement(invariant, system) -> bool:
    chosen = {
        state.chosen_value(invariant.index)
        for _node, state in system.items()
        if state.chosen_value(invariant.index) is not None
    }
    return len(chosen) <= 1


def paxos_agreement_all(invariant, system) -> bool:
    per_index = {}
    for _node, state in system.items():
        for index, slot in state.learners:
            if slot.chosen is not None:
                per_index.setdefault(index, set()).add(slot.chosen)
    return all(len(values) <= 1 for values in per_index.values())


def onepaxos_agreement_all(invariant, system) -> bool:
    per_index = {}
    for _node, state in system.items():
        for index, value in state.chosen1:
            per_index.setdefault(index, set()).add(value)
    return all(len(values) <= 1 for values in per_index.values())


def atomicity(invariant, system) -> bool:
    outcomes = {
        state.decided for _node, state in system.items() if state.decided is not None
    }
    return len(outcomes) <= 1


def commit_validity(invariant, system) -> bool:
    committed = any(state.decided is True for _node, state in system.items())
    if not committed:
        return True
    return all(state.my_vote is not False for _node, state in system.items())


def at_most_one_leader(invariant, system) -> bool:
    leaders = [node for node, state in system.items() if state.leader]
    return len(leaders) <= 1


def received_implies_sent(invariant, system) -> bool:
    target_state = system.get(invariant.target)
    origin_state = system.get(invariant.origin)
    return not target_state.received or origin_state.sent


def reachable_systems(protocol, initial=None, limit=20000) -> List[SystemState]:
    """All distinct system states reachable from ``initial`` (exhaustive)."""
    collected: List[SystemState] = []
    seen = set()

    def collector(system: SystemState) -> bool:
        key = hash(system)
        if key not in seen:
            seen.add(key)
            collected.append(system)
        assert len(collected) <= limit, "state space larger than expected"
        return True  # never report

    checker = GlobalModelChecker(
        protocol,
        PredicateInvariant("collector", collector),
        stop_on_first_bug=False,
    )
    result = checker.run(initial)
    assert result.completed
    return collected


def assert_contract(invariant: DecomposableInvariant, systems, reference) -> int:
    """Check the contract on every system state; return violation count.

    ``reference`` is the invariant's hand-written predicate: the derived
    ``check`` must give its verdict on every system state.
    """
    violations = 0
    for system in systems:
        holds = invariant.check(system)
        assert holds == reference(invariant, system), (
            f"derived check disagrees with the reference on {system!r}"
        )
        if holds:
            continue
        violations += 1
        projections = {
            node: invariant.local_projection(node, state)
            for node, state in system.items()
        }
        projections = {
            node: value for node, value in projections.items() if value is not None
        }
        assert invariant.projections_conflict(projections), (
            f"violating state without projection conflict: {system!r}"
        )
        if invariant.pairwise:
            assert any(
                invariant.projections_conflict({a: projections[a], b: projections[b]})
                for a, b in combinations(sorted(projections), 2)
            ), f"violation not pairwise-witnessed: {system!r}"
    return violations


def local_products(systems) -> List[SystemState]:
    """Every combination of reachable *node* states — LMC's Cartesian view.

    An invariant that holds on every real run is only ever violated by
    these (possibly invalid) combinations, which are exactly what LMC-OPT
    feeds its conflict test.
    """
    per_node = {}
    for system in systems:
        for node, state in system.items():
            per_node.setdefault(node, {})[hash(state)] = state
    nodes = sorted(per_node)
    return [
        SystemState(dict(zip(nodes, states)))
        for states in product(*(per_node[node].values() for node in nodes))
    ]


def assert_verdicts_pure(invariant: DecomposableInvariant, systems) -> int:
    """The verdict-memo clause of the contract; returns the pairs checked.

    Over every ordered pair of reachable ``(node, projection)`` on two
    different nodes: projections are hashable (so the index groups them),
    asking twice gives the same verdict, and an equal-but-not-identical
    copy of either projection (a pickle round trip; singletons such as
    ``True`` stay identical) gives that verdict too.
    """
    reached = {
        (node, projection)
        for system in systems
        for node, state in system.items()
        if (projection := invariant.local_projection(node, state)) is not None
    }
    checked = 0
    for (a, pa), (b, pb) in permutations(reached, 2):
        if a == b:
            continue
        verdict = invariant.projections_conflict({a: pa, b: pb})
        assert isinstance(verdict, bool)
        assert invariant.projections_conflict({a: pa, b: pb}) is verdict
        ca, cb = pickle.loads(pickle.dumps((pa, pb)))
        assert (ca, cb) == (pa, pb) and hash((ca, cb)) == hash((pa, pb))
        assert invariant.projections_conflict({a: ca, b: cb}) is verdict
        assert invariant.projections_conflict({a: ca, b: pb}) is verdict
        checked += 1
    return checked


def assert_summary_contract(invariant: Invariant, systems) -> int:
    """The ``summary`` contract over ``systems``; returns the distinct tuples.

    The exhaustive form of what ``check_protocol`` samples: one checker,
    :func:`repro.model.conformance.summary_contract_problems`.
    """
    assert declares_summary(invariant)
    tuples, problems = summary_contract_problems(invariant, systems)
    assert not problems, problems[0]
    return tuples


@pytest.fixture(scope="module")
def paxos_systems():
    return reachable_systems(paxos_scenario(buggy=True), partial_choice_state())


def test_paxos_agreement_contract(paxos_systems):
    systems = paxos_systems
    found = assert_contract(PaxosAgreement(0), systems, paxos_agreement)
    assert found > 0, "the buggy space must contain real violations"
    assert assert_verdicts_pure(PaxosAgreement(0), systems) > 0
    assert assert_summary_contract(PaxosAgreement(0), local_products(systems)) > 1


def test_paxos_agreement_all_contract(paxos_systems):
    systems = paxos_systems
    found = assert_contract(PaxosAgreementAll(), systems, paxos_agreement_all)
    assert found > 0
    assert assert_verdicts_pure(PaxosAgreementAll(), systems) > 0
    assert assert_summary_contract(PaxosAgreementAll(), local_products(systems)) > 1


def test_onepaxos_agreement_contract():
    protocol = onepaxos_scenario(buggy=True)
    systems = reachable_systems(protocol, post_leaderchange_state(protocol))
    for invariant, reference in (
        (OnePaxosAgreement(0), paxos_agreement),
        (OnePaxosAgreementAll(), onepaxos_agreement_all),
    ):
        assert assert_contract(invariant, systems, reference) > 0
        assert assert_verdicts_pure(invariant, systems) > 0
        assert assert_summary_contract(invariant, local_products(systems)) > 1


def test_2pc_commit_validity_contract():
    protocol = EagerCommitCoordinator(3, no_voters=(2,))
    systems = reachable_systems(protocol)
    assert assert_contract(CommitValidity(), systems, commit_validity) > 0
    assert assert_verdicts_pure(CommitValidity(), systems) > 0
    assert assert_summary_contract(CommitValidity(), local_products(systems)) > 1


def test_2pc_atomicity_contract():
    # No real run of this build mixes commit and abort; the violations
    # live in the Cartesian combinations of node states.
    protocol = EagerCommitCoordinator(3, no_voters=(2,))
    systems = local_products(reachable_systems(protocol))
    assert assert_contract(Atomicity(), systems, atomicity) > 0
    assert assert_verdicts_pure(Atomicity(), systems) > 0
    assert assert_summary_contract(Atomicity(), systems) > 1


def test_tree_received_implies_sent_contract():
    # The primer's ``----r``: violated only by an invalid combination, and
    # the one shipped conflict notion that reads the node ids.
    invariant = ReceivedImpliesSent()
    systems = local_products(reachable_systems(TreeProtocol()))
    assert assert_contract(invariant, systems, received_implies_sent) > 0
    assert assert_verdicts_pure(invariant, systems) > 0
    assert assert_summary_contract(invariant, systems) > 1
    assert invariant.projections_conflict({0: "unsent", 4: "received"})
    assert not invariant.projections_conflict({4: "unsent", 0: "received"})


def test_ring_leader_contract():
    protocol = GreedyRingElection(3, initiators=(0,))
    systems = reachable_systems(protocol)
    assert assert_contract(AtMostOneLeader(), systems, at_most_one_leader) > 0
    assert assert_verdicts_pure(AtMostOneLeader(), systems) > 0
    assert assert_summary_contract(AtMostOneLeader(), local_products(systems)) > 1


def test_summary_contract_catches_a_summary_that_hides_the_verdict():
    systems = local_products(
        reachable_systems(EagerCommitCoordinator(3, no_voters=(2,)))
    )
    with pytest.raises(AssertionError, match="different verdicts"):
        assert_summary_contract(BlindAtomicity(), systems)


def test_no_shipped_invariant_states_its_violation_twice():
    for module in pkgutil.walk_packages(repro.protocols.__path__, "repro.protocols."):
        importlib.import_module(module.name)
    shipped, pending = [], [DecomposableInvariant]
    while pending:
        for subclass in pending.pop().__subclasses__():
            pending.append(subclass)
            if subclass.__module__.startswith("repro.protocols."):
                shipped.append(subclass)
    assert len(shipped) >= 8
    derived = DecomposableInvariant.check
    assert [cls.__qualname__ for cls in shipped if cls.check is not derived] == []
