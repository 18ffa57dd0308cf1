"""Remaining budget and stop-criterion edge cases."""

import dataclasses

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import CLOCK_CHECK_INTERVAL, BudgetClock, SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.invariants.base import PredicateInvariant
from repro.protocols.echo import EchoProtocol
from repro.protocols.tree import TreeProtocol

TRUE = PredicateInvariant("true", lambda s: True)


class TestSearchBudgetFactories:
    def test_unbounded(self):
        budget = SearchBudget.unbounded()
        assert budget.max_depth is None
        assert budget.max_seconds is None

    @pytest.mark.parametrize("bound", [field.name for field in dataclasses.fields(SearchBudget)])
    @pytest.mark.parametrize("value", [-1, float("nan")])
    def test_every_bound_refuses_negative_and_nan(self, bound, value):
        with pytest.raises(ValueError, match=bound):
            SearchBudget(**{bound: value})


class TestBudgetClockEdges:
    def test_unbounded_never_stops(self):
        clock = BudgetClock(SearchBudget.unbounded())
        assert clock.stop_reason(10**9, lambda: 10**9, 0) is None
        assert clock.depth_allowed(10**9)

    def test_transition_bound_reported(self):
        clock = BudgetClock(SearchBudget(max_transitions=10))
        assert clock.stop_reason(9, lambda: 0, 1) is None
        assert clock.stop_reason(10, lambda: 0, 1) == "transition budget exhausted"

    def test_state_bound_reported(self):
        clock = BudgetClock(SearchBudget(max_states=3))
        assert clock.stop_reason(0, lambda: 2, 1) is None
        assert clock.stop_reason(0, lambda: 3, 1) == "state budget exhausted"

    def test_the_clock_is_read_on_its_cadence_only(self):
        clock = BudgetClock(SearchBudget(max_seconds=0.0))
        assert clock.stop_reason(0, lambda: 0, CLOCK_CHECK_INTERVAL + 1) is None
        assert clock.stop_reason(0, lambda: 0, CLOCK_CHECK_INTERVAL) == "time budget exhausted"

    def test_both_checkers_name_the_transition_bound_first(self):
        """With the transition, state and time bounds all exhausted at the
        first check, both checkers stop on the one stop criterion, which
        compares the counters first and transitions before states."""
        budget = SearchBudget(max_transitions=0, max_states=0, max_seconds=0.0)
        for checker in (LocalModelChecker, GlobalModelChecker):
            result = checker(TreeProtocol(), TRUE, budget=budget).run()
            assert not result.completed and result.stats.transitions == 0
            assert result.stop_reason == "transition budget exhausted"

    def test_elapsed_monotone(self):
        clock = BudgetClock(SearchBudget.unbounded())
        first = clock.elapsed()
        second = clock.elapsed()
        assert second >= first >= 0


class TestLmcDepthBound:
    def test_depth_zero_keeps_only_seeds(self):
        result = LocalModelChecker(
            TreeProtocol(), TRUE, budget=SearchBudget(max_depth=0)
        ).run()
        assert result.completed
        assert result.stats.node_states == 5  # seeds only

    def test_depth_bound_is_per_node_sequence(self):
        shallow = LocalModelChecker(
            EchoProtocol(3), TRUE, budget=SearchBudget(max_depth=1)
        ).run()
        deep = LocalModelChecker(EchoProtocol(3), TRUE).run()
        assert shallow.completed
        assert shallow.stats.node_states < deep.stats.node_states

    def test_increasing_depth_monotone_states(self):
        counts = []
        for depth in (0, 1, 2, 3):
            result = LocalModelChecker(
                EchoProtocol(3), TRUE, budget=SearchBudget(max_depth=depth)
            ).run()
            counts.append(result.stats.node_states)
        assert counts == sorted(counts)


class TestStopOnFirstBugFalse:
    def test_collects_multiple_witnesses(self):
        from repro.protocols.paxos import PaxosAgreement
        from repro.protocols.paxos.scenarios import (
            partial_choice_state,
            scenario_protocol,
        )

        result = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            budget=SearchBudget(max_seconds=5.0),
            config=LMCConfig.optimized(stop_on_first_bug=False),
        ).run(partial_choice_state())
        assert len(result.bugs) > 1
        descriptions = {bug.description for bug in result.bugs}
        assert descriptions  # each is a concrete violating combination
