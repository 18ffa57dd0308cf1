"""Tests for the local model checker on the library's protocols."""

import tracemalloc

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker, apply_event
from repro.invariants.base import PredicateInvariant
from repro.model.multiset import FrozenMultiset
from repro.model.system_state import GlobalState
from repro.protocols.chain import ChainOrder, ChainProtocol
from repro.protocols.echo import EchoProtocol, PongsImplyPing
from repro.protocols.paxos import (
    BuggyPaxosProtocol,
    PaxosAgreement,
    PaxosProtocol,
)
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.randtree import (
    ChildrenSiblingsDisjoint,
    RandTreeProtocol,
    SiblingMixupRandTree,
)
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    CommitValidity,
    EagerCommitCoordinator,
    TwoPhaseCommit,
)
from repro.stats.counters import COUNTERS

TRUE_INV = PredicateInvariant("true", lambda s: True)


class TestCompleteness:
    """LMC must confirm every bug the sound global checker confirms."""

    def test_tree_no_false_positive(self):
        result = LocalModelChecker(TreeProtocol(), ReceivedImpliesSent()).run()
        assert result.completed
        assert not result.found_bug
        # The invalid Cartesian combination (received-without-sent) must have
        # been created, flagged, and rejected by soundness verification.
        assert result.stats.preliminary_violations > 0
        assert result.stats.soundness_calls == result.stats.preliminary_violations

    def test_chain_no_false_positive(self):
        result = LocalModelChecker(ChainProtocol(4), ChainOrder()).run()
        assert result.completed and not result.found_bug
        assert result.stats.preliminary_violations > 0

    def test_echo_no_false_positive(self):
        result = LocalModelChecker(EchoProtocol(3), PongsImplyPing()).run()
        assert result.completed and not result.found_bug

    def test_2pc_finds_eager_commit_bug(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        result = LocalModelChecker(protocol, CommitValidity()).run()
        assert result.found_bug
        assert result.first_bug().trace

    def test_2pc_correct_is_clean(self):
        result = LocalModelChecker(
            TwoPhaseCommit(3, no_voters=(2,)), CommitValidity()
        ).run()
        assert result.completed and not result.found_bug

    def test_randtree_local_invariant_bug_found(self):
        result = LocalModelChecker(
            SiblingMixupRandTree(4), ChildrenSiblingsDisjoint()
        ).run()
        assert result.found_bug

    def test_randtree_correct_is_clean(self):
        result = LocalModelChecker(
            RandTreeProtocol(3), ChildrenSiblingsDisjoint()
        ).run()
        assert result.completed and not result.found_bug


class TestWitnessTraces:
    """Confirmed LMC bugs carry a replayable valid total order."""

    @pytest.mark.parametrize(
        "factory",
        [
            lambda: (
                EagerCommitCoordinator(3, no_voters=(2,)),
                CommitValidity(),
                None,
            ),
            lambda: (
                scenario_protocol(buggy=True),
                PaxosAgreement(0),
                partial_choice_state(),
            ),
        ],
    )
    def test_trace_replays_on_consuming_semantics(self, factory):
        protocol, invariant, initial = factory()
        result = LocalModelChecker(protocol, invariant).run(initial)
        bug = result.first_bug()
        state = GlobalState(bug.initial_state, FrozenMultiset())
        for event in bug.trace:
            state = apply_event(protocol, state, event)
            assert state is not None, "witness event not executable"
        # The replayed run must actually violate the invariant, and the
        # nodes LMC combined must be at exactly the states it reported.
        assert not invariant.check(state.system)


class TestGenVsOpt:
    def test_opt_creates_zero_system_states_on_correct_paxos(self, paxos_opt_full):
        result = paxos_opt_full
        assert result.completed
        assert result.stats.system_states_created == 0
        assert result.algorithm == "LMC-OPT"

    def test_gen_creates_many_system_states_on_correct_paxos(self, paxos_gen_full):
        result = paxos_gen_full
        assert result.completed
        assert result.stats.system_states_created > 1000
        assert result.stats.preliminary_violations == 0
        assert result.algorithm == "LMC-GEN"

    def test_gen_and_opt_agree_on_buggy_scenario(self):
        live = partial_choice_state()
        protocol = scenario_protocol(buggy=True)
        for config in (LMCConfig.general(), LMCConfig.optimized()):
            result = LocalModelChecker(
                protocol, PaxosAgreement(0), config=config
            ).run(live)
            assert result.found_bug, config

    def test_gen_and_opt_agree_on_correct_scenario(self):
        live = partial_choice_state()
        protocol = scenario_protocol(buggy=False)
        for config in (LMCConfig.general(), LMCConfig.optimized()):
            result = LocalModelChecker(
                protocol, PaxosAgreement(0), config=config
            ).run(live)
            assert result.completed and not result.found_bug, config

    def test_opt_explores_same_node_states_as_gen(
        self, paxos_gen_full, paxos_opt_full
    ):
        assert paxos_gen_full.stats.node_states == paxos_opt_full.stats.node_states
        assert paxos_gen_full.stats.transitions == paxos_opt_full.stats.transitions


class TestPaperScenario55:
    """The §5.5 injected-bug experiment from the crafted live state."""

    def test_bug_found_and_story_matches(self):
        result = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            config=LMCConfig.optimized(),
        ).run(partial_choice_state())
        bug = result.first_bug()
        assert "v0" in bug.description and "v1" in bug.description
        described = " ".join(bug.trace_lines())
        # The witness must contain the contender's proposition and the
        # decisive empty PrepareResponse from the fresh acceptor.
        assert "propose@1" in described
        assert "PrepareResponse" in described

    def test_live_state_is_reachable_by_real_run(self):
        """The crafted snapshot must be producible by consuming semantics."""
        protocol = PaxosProtocol(
            num_nodes=3, proposals=((0, 0, "v0"),), require_init=False
        )
        target = partial_choice_state()
        # Search the global state space for a state whose nodes 0-2 local
        # states match the snapshot exactly (message losses = messages left
        # in flight, which the global state may still carry).
        checker = GlobalModelChecker(
            protocol,
            PredicateInvariant(
                "not-target", lambda s: not _matches_snapshot(s, target)
            ),
            stop_on_first_bug=True,
        )
        result = checker.run()
        assert result.found_bug, "snapshot unreachable by any real run"

    def test_soundness_rejections_happen(self):
        result = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            config=LMCConfig.optimized(),
        ).run(partial_choice_state())
        # Invalid Cartesian combinations must be filtered: more preliminary
        # violations than confirmed bugs.
        assert result.stats.preliminary_violations > result.stats.confirmed_bugs


def _matches_snapshot(system, target) -> bool:
    reduced = {node: _strip_pending(state) for node, state in system.items()}
    wanted = {node: _strip_pending(state) for node, state in target.items()}
    return reduced == wanted


def _strip_pending(state):
    from dataclasses import replace

    return replace(state, pending=())


class TestStopCriteria:
    def test_transition_budget(self):
        result = LocalModelChecker(
            PaxosProtocol(), TRUE_INV, budget=SearchBudget(max_transitions=50)
        ).run()
        assert not result.completed
        assert "transition budget" in result.stop_reason

    def test_state_budget(self):
        result = LocalModelChecker(
            PaxosProtocol(), TRUE_INV, budget=SearchBudget(max_states=10)
        ).run()
        assert not result.completed
        assert "state budget" in result.stop_reason

    def test_depth_bound_completes_with_reason(self):
        result = LocalModelChecker(
            PaxosProtocol(), TRUE_INV, budget=SearchBudget(max_depth=2)
        ).run()
        assert result.completed
        assert result.stop_reason == "depth bound reached"

    def test_zero_time_budget(self):
        result = LocalModelChecker(
            PaxosProtocol(), TRUE_INV, budget=SearchBudget(max_seconds=0.0)
        ).run()
        assert not result.completed


class TestSeriesAndStats:
    def test_depth_series_monotone(self, paxos_gen_full):
        depths = paxos_gen_full.series.depths()
        assert list(depths) == sorted(depths)
        assert paxos_gen_full.series.max_depth() >= 15  # combined length

    @pytest.mark.parametrize("checker", [LocalModelChecker, GlobalModelChecker])
    def test_series_carries_live_bytes_exactly_while_tracing(self, checker):
        """An untraced sample holds the counters (LMC adds RSS) and no
        memory figure; under tracemalloc each also holds the live bytes."""

        def samples():
            return checker(TreeProtocol(), ReceivedImpliesSent()).run().series.samples

        expected = set(COUNTERS) | ({"rss_bytes"} if checker is LocalModelChecker else set())
        untraced = [{k for k in s.metrics if not k.startswith("phase_")} for s in samples()]
        assert untraced and all(keys == expected for keys in untraced)
        tracemalloc.start()
        try:
            traced = samples()
        finally:
            tracemalloc.stop()
        assert traced and all(sample.metrics["live_bytes"] > 0 for sample in traced)

    def test_live_state_violation_reported_immediately(self):
        # A snapshot that already violates is a sound bug with empty trace.
        protocol = TreeProtocol()
        violating = protocol.initial_system_state().replace(
            4, protocol.initial_state(4).__class__(node=4, received=True)
        )
        result = LocalModelChecker(protocol, ReceivedImpliesSent()).run(violating)
        assert result.found_bug
        assert result.first_bug().trace == ()
