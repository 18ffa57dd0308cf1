"""Tests for the global model checking baseline."""

import pytest

from repro.explore.budget import BudgetClock, SearchBudget
from repro.explore.global_checker import (
    GlobalModelChecker,
    apply_event,
    enumerate_events,
)
from repro.invariants.base import PredicateInvariant
from repro.model.events import DeliveryEvent, DropEvent, InternalEvent
from repro.model.multiset import FrozenMultiset
from repro.model.system_state import GlobalState
from repro.protocols.chain import ChainOrder, ChainProtocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TwoPhaseCommit,
)

TRUE_INV = PredicateInvariant("true", lambda s: True)


def initial_global(protocol):
    return GlobalState(protocol.initial_system_state(), FrozenMultiset())


class TestEventEnumeration:
    def test_initial_tree_has_only_send_action(self):
        protocol = TreeProtocol()
        events = enumerate_events(protocol, initial_global(protocol))
        assert len(events) == 1
        assert isinstance(events[0], InternalEvent)
        assert events[0].action.name == "send"

    def test_delivery_events_enumerated_after_send(self):
        protocol = TreeProtocol()
        state = initial_global(protocol)
        state = apply_event(protocol, state, enumerate_events(protocol, state)[0])
        events = enumerate_events(protocol, state)
        deliveries = [e for e in events if isinstance(e, DeliveryEvent)]
        assert {e.message.dest for e in deliveries} == {1, 2}

    def test_apply_internal_noop_returns_none(self):
        protocol = TreeProtocol()
        state = initial_global(protocol)
        send = enumerate_events(protocol, state)[0]
        # The origin sends once; a second "send" changes nothing.
        assert apply_event(protocol, apply_event(protocol, state, send), send) is None

    def test_drop_consumes_its_copy_without_delivering(self):
        protocol = TreeProtocol()
        state = initial_global(protocol)
        state = apply_event(protocol, state, enumerate_events(protocol, state)[0])
        message = next(m for m in state.network.distinct() if m.dest == 2)
        dropped = apply_event(protocol, state, DropEvent(message))
        assert message not in dropped.network and dropped.system == state.system


class TestExhaustiveSearch:
    @pytest.mark.parametrize(
        "protocol, states",
        [(TreeProtocol(), 11), (ChainProtocol(4), 5), (TwoPhaseCommit(3), 35)],
    )
    def test_explores_every_state(self, protocol, states):
        result = GlobalModelChecker(protocol, TRUE_INV).run()
        assert result.completed
        assert not result.found_bug
        assert result.stats.global_states == states

    @pytest.mark.parametrize(
        "protocol", [TwoPhaseCommit(3), TreeProtocol(), ChainProtocol(4)]
    )
    def test_depth_bound_keeps_the_layers_up_to_it(self, protocol):
        # Layer d holds the states first reached in d events, so a depth
        # bound of d visits exactly the states an unbounded run has seen
        # when its depth-d layer closes: what a bounded DFS visits.
        full = GlobalModelChecker(protocol, TRUE_INV).run()
        assert full.completed
        depths = full.series.depths()
        assert depths == tuple(range(len(depths)))
        for depth in depths:
            bounded = GlobalModelChecker(
                protocol, TRUE_INV, budget=SearchBudget(max_depth=depth)
            ).run()
            expected = full.series.at_depth(depth).get("global_states")
            assert bounded.stats.global_states == expected
            assert bounded.series.depths() == depths[: depth + 1]

    def test_rerun_series_matches_a_fresh_checker(self):
        def untimed(result):
            return [
                (s.depth, {k: v for k, v in s.metrics.items() if not k.startswith("phase_")})
                for s in result.series.samples
            ]

        protocol = TwoPhaseCommit(3)
        checker = GlobalModelChecker(protocol, TRUE_INV)
        checker.run()
        fresh = GlobalModelChecker(protocol, TRUE_INV).run()
        assert untimed(checker.run()) == untimed(fresh)

    def test_series_records_depths(self):
        result = GlobalModelChecker(TreeProtocol(), TRUE_INV).run()
        assert result.series is not None
        assert result.series.depths()[0] == 0
        assert result.series.max_depth() >= 4

    def test_series_columns_never_shrink(self):
        result = GlobalModelChecker(TwoPhaseCommit(3), TRUE_INV).run()
        for key in ("global_states", "transitions"):
            column = list(result.series.column(key))
            assert column == sorted(column), key
        assert result.series.final().get("global_states") == 35

    def test_invariant_holds_on_valid_runs(self):
        result = GlobalModelChecker(TreeProtocol(), ReceivedImpliesSent()).run()
        assert result.completed
        assert not result.found_bug

    def test_chain_order_never_violated_globally(self):
        result = GlobalModelChecker(ChainProtocol(4), ChainOrder()).run()
        assert result.completed and not result.found_bug


class TestBugFinding:
    def test_eager_commit_bug_found_with_trace(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        result = GlobalModelChecker(protocol, CommitValidity()).run()
        assert result.found_bug
        bug = result.first_bug()
        assert bug.kind == "invariant"
        assert bug.trace, "bug must carry a witness trace"
        assert "committed" in bug.description

    def test_trace_replays_to_violating_state(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        result = GlobalModelChecker(protocol, CommitValidity()).run()
        bug = result.first_bug()
        state = GlobalState(bug.initial_state, FrozenMultiset())
        for event in bug.trace:
            state = apply_event(protocol, state, event)
            assert state is not None
        assert state.system == bug.violating_state

    def test_first_witness_is_a_shortest_one(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        result = GlobalModelChecker(protocol, CommitValidity()).run()
        depth = len(result.first_bug().trace)
        # the partial layer holding the violating state is the last sample
        assert result.series.max_depth() == depth
        bound = SearchBudget(max_depth=depth - 1)
        shallower = GlobalModelChecker(protocol, CommitValidity(), budget=bound).run()
        assert shallower.completed and not shallower.found_bug

    def test_stop_on_first_bug_false_collects_more(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        eager = GlobalModelChecker(
            protocol, CommitValidity(), stop_on_first_bug=False
        ).run()
        assert len(eager.bugs) >= 1
        assert eager.completed

    def test_atomicity_not_violated_by_eager_bug(self):
        # All nodes adopt the coordinator's single decision, so atomicity
        # holds even in the buggy build: only commit-validity is broken.
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        result = GlobalModelChecker(protocol, Atomicity()).run()
        assert result.completed and not result.found_bug


class TestBudgets:
    def test_depth_bound_truncates(self):
        protocol = TreeProtocol()
        bounded = GlobalModelChecker(
            protocol, TRUE_INV, budget=SearchBudget(max_depth=2)
        ).run()
        full = GlobalModelChecker(protocol, TRUE_INV).run()
        assert bounded.stats.global_states < full.stats.global_states
        assert bounded.stop_reason == "depth bound reached"

    @pytest.mark.parametrize(
        "budget, reason",
        [(SearchBudget(max_transitions=10), "transition"), (SearchBudget(max_states=5), "state")],
    )
    def test_budget_stops_search_with_its_series(self, budget, reason):
        result = GlobalModelChecker(TwoPhaseCommit(3), TRUE_INV, budget=budget).run()
        assert not result.completed
        assert result.stop_reason == f"{reason} budget exhausted"
        depths = result.series.depths()
        assert depths and depths == tuple(range(len(depths)))

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            SearchBudget(max_depth=-1)
        with pytest.raises(ValueError):
            SearchBudget(max_seconds=-0.1)

    def test_budget_clock_reports(self):
        clock = BudgetClock(SearchBudget(max_seconds=1000))
        assert not clock.out_of_time()
        assert clock.depth_allowed(10)
        assert clock.stop_reason(0, lambda: 0, 0) is None
        tight = BudgetClock(SearchBudget(max_seconds=0.0))
        assert tight.out_of_time()
