"""Tests for the §4.2 pragmatic knobs of the local checker."""

import dataclasses

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.invariants.base import LocalInvariant, PredicateInvariant
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, Message, local_assert
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol

TRUE_INV = PredicateInvariant("true", lambda s: True)


#: Every field that declares a minimum, with that minimum.
MINIMUMS = {
    field.name: field.metadata["minimum"]
    for field in dataclasses.fields(LMCConfig)
    if field.metadata.get("minimum") is not None
}


class TestConfigValidation:
    def test_defaults_are_valid(self):
        LMCConfig()

    def test_every_count_declares_its_minimum(self):
        assert MINIMUMS == dict.fromkeys(
            (
                "local_event_bound",
                "explore_workers",
                "max_crashes_per_node",
                "max_total_crashes",
                "max_drops",
                "duplicate_limit",
            ),
            0,
        )

    @pytest.mark.parametrize(
        "kwargs",
        [{name: minimum - 1} for name, minimum in MINIMUMS.items()],
        ids=lambda kwargs: next(iter(kwargs)),
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            LMCConfig(**kwargs)

    def test_factory_methods(self):
        assert not LMCConfig.general().invariant_specific_creation
        assert LMCConfig.optimized().invariant_specific_creation


class TestPhaseToggles:
    """The Fig. 13 configurations: LMC-explore and LMC-system-state."""

    def test_explore_only_creates_no_system_states(self):
        result = LocalModelChecker(
            TreeProtocol(),
            ReceivedImpliesSent(),
            config=LMCConfig(create_system_states=False),
        ).run()
        assert result.completed
        assert result.stats.system_states_created == 0
        assert result.stats.preliminary_violations == 0

    def test_soundness_disabled_counts_but_never_confirms(self):
        result = LocalModelChecker(
            TreeProtocol(),
            ReceivedImpliesSent(),
            config=LMCConfig(verify_soundness=False),
        ).run()
        assert result.completed
        assert result.stats.preliminary_violations > 0
        assert result.stats.soundness_calls == 0
        assert not result.found_bug

    def test_phase_timers_populated(self):
        result = LocalModelChecker(TreeProtocol(), ReceivedImpliesSent()).run()
        phases = result.stats.phase_seconds
        assert "explore" in phases
        assert "system_states" in phases
        assert "soundness" in phases


class TestDuplicateLimit:
    def test_zero_limit_suppresses_duplicates(self):
        result = LocalModelChecker(
            PaxosProtocol(),
            PaxosAgreement(0),
            config=LMCConfig(duplicate_limit=0, create_system_states=False),
        ).run()
        assert result.stats.suppressed_duplicates > 0

    def test_duplicates_add_work_but_no_states(self):
        """The §4.2 rationale for limit 0: duplicate copies are pure waste.

        Both sides are exploration counters, so system-state creation is off.
        """
        zero = LocalModelChecker(
            PaxosProtocol(),
            PaxosAgreement(0),
            config=LMCConfig(duplicate_limit=0, create_system_states=False),
        ).run()
        two = LocalModelChecker(
            PaxosProtocol(),
            PaxosAgreement(0),
            config=LMCConfig(duplicate_limit=2, create_system_states=False),
        ).run()
        assert two.stats.node_states == zero.stats.node_states
        assert two.stats.transitions > zero.stats.transitions


class _AssertingProtocol(Protocol):
    """Two nodes; node 1's handler asserts the message is not 'poison'."""

    name = "asserting"

    def node_ids(self):
        return (0, 1)

    def initial_state(self, node):
        return (node, "init")

    def enabled_actions(self, state):
        if state == (0, "init"):
            return (Action(node=0, name="go"),)
        return ()

    def handle_action(self, state, action):
        if action.name == "go" and state == (0, "init"):
            return HandlerResult(
                (0, "done"),
                (
                    Message(dest=1, src=0, payload="ok"),
                    Message(dest=1, src=0, payload="poison"),
                ),
            )
        return HandlerResult(state)

    def handle_message(self, state, message):
        if state[0] != 1:
            return HandlerResult(state)
        local_assert(message.payload != "poison", "unexpected message", node=1)
        if state == (1, "init"):
            return HandlerResult((1, "got-" + message.payload))
        return HandlerResult(state)


class TestAssertionPolicies:
    def test_discard_policy_drops_states(self):
        result = LocalModelChecker(_AssertingProtocol(), TRUE_INV).run()
        assert result.completed
        assert result.stats.states_discarded_by_assert > 0

    def test_seed_states_never_discarded(self):
        class SeedPoison(LocalInvariant):
            name = "never"

            def check_local(self, node, state):
                return True

        result = LocalModelChecker(_AssertingProtocol(), SeedPoison()).run()
        # the seed of node 1 receives poison (conservative delivery) but
        # must survive: discarding the live state would be absurd.
        assert result.completed


class TestLocalEventBoundWidening:
    def test_widening_restarts_until_saturation(self):
        # Widening is an exploration matter: system states stay off.
        bounded = LocalModelChecker(
            PaxosProtocol(),
            PaxosAgreement(0),
            config=LMCConfig(local_event_bound=1, create_system_states=False),
        ).run()
        unbounded = LocalModelChecker(
            PaxosProtocol(),
            PaxosAgreement(0),
            config=LMCConfig(create_system_states=False),
        ).run()
        assert bounded.completed
        # Widening must eventually reach everything the unbounded run sees
        # (the last pass explores with a sufficient bound).  Total node
        # states across passes are at least the unbounded count.
        assert bounded.stats.node_states >= unbounded.stats.node_states


class TestReverifyExtension:
    def test_reverify_flag_smoke(self):
        # The extension must at minimum not break a normal run.
        result = LocalModelChecker(
            TreeProtocol(),
            ReceivedImpliesSent(),
            config=LMCConfig(reverify_rejected=True),
        ).run()
        assert result.completed
        assert not result.found_bug
