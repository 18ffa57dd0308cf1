"""Tests for the DOT exports."""

import hashlib

from repro.core.checker import LocalModelChecker, _ExplorationPass
from repro.core.config import LMCConfig
from repro.explore.budget import BudgetClock, SearchBudget
from repro.invariants.base import PredicateInvariant
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import TreeProtocol
from repro.viz import predecessor_dag, witness_sequence_diagram

TRUE = PredicateInvariant("true", lambda s: True)


def explored_space(protocol, initial=None):
    checker = LocalModelChecker(protocol, TRUE, config=LMCConfig())
    pass_run = _ExplorationPass(
        checker,
        initial if initial is not None else protocol.initial_system_state(),
        BudgetClock(SearchBudget.unbounded()),
        None,
    )
    pass_run.execute()
    return pass_run.space


class TestPredecessorDag:
    def test_renders_all_nodes(self):
        space = explored_space(TreeProtocol())
        dot = predecessor_dag(space)
        assert dot.startswith("digraph predecessors")
        assert dot.endswith("}")
        for node in TreeProtocol().node_ids():
            assert f"cluster_{node}" in dot

    def test_single_node_view(self):
        space = explored_space(TreeProtocol())
        dot = predecessor_dag(space, node=0)
        assert "cluster_0" in dot
        assert "cluster_1" not in dot

    def test_seed_states_double_boxed_and_edges_labelled(self):
        space = explored_space(TreeProtocol())
        dot = predecessor_dag(space)
        assert "peripheries=2" in dot
        assert "->" in dot
        assert "deliver" in dot or "run" in dot

    def test_custom_state_description(self):
        space = explored_space(TreeProtocol())
        dot = predecessor_dag(space, describe_state=lambda s: s.glyph())
        assert '"0: -"' in dot or ': -"' in dot

    def test_quotes_escaped(self):
        space = explored_space(TreeProtocol())
        dot = predecessor_dag(space, describe_state=lambda s: 'with "quotes"')
        assert '\\"quotes\\"' in dot

    def test_rendering_is_pinned(self):
        """The DOT text the list-of-link-objects layout drew, byte for byte."""
        dot = predecessor_dag(explored_space(TreeProtocol()))
        assert len(dot) == 1608
        assert hashlib.sha256(dot.encode()).hexdigest() == (
            "3fa3677979a8276c00a5be62b4ef5477bed7b960681e871b9fbbbcaf116a1c49"
        )


class TestWitnessDiagram:
    def test_renders_confirmed_paxos_bug(self):
        protocol = scenario_protocol(buggy=True)
        result = LocalModelChecker(
            protocol, PaxosAgreement(0), config=LMCConfig.optimized()
        ).run(partial_choice_state())
        dot = witness_sequence_diagram(result.first_bug())
        assert dot.startswith("digraph witness")
        assert "process 0" in dot and "process 1" in dot
        assert "recv PrepareResponse" in dot
        assert "color=blue" in dot  # at least one message edge
        # every trace event appears exactly once as a graph node
        for index in range(1, len(result.first_bug().trace) + 1):
            assert f"e{index} [" in dot
