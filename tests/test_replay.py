"""Tests for the witness-trace replayer."""

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.model.events import DeliveryEvent, DropEvent, DuplicateEvent, InternalEvent
from repro.model.types import Action, HandlerResult, Message
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import Payload, ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
)
from repro.replay import replay_trace, trace_to_script, validate_bug
from tests.core.test_event_pipeline_golden import (
    CASES,
    CountAtMostTwo,
    CountingRelay,
    Poison,
    _checker,
)

#: The tree origin's send, and the copy it sends to node 2.
SEND = InternalEvent(Action(node=0, name="send"))
SENT = Message(dest=2, src=0, payload=Payload(final_target=4))


class TestReplayTrace:
    def test_valid_linear_trace(self):
        protocol = TreeProtocol()
        trace = (
            InternalEvent(Action(node=0, name="send")),
            DeliveryEvent(Message(dest=2, src=0, payload=Payload(final_target=4))),
            DeliveryEvent(Message(dest=4, src=2, payload=Payload(final_target=4))),
        )
        outcome = replay_trace(
            protocol, protocol.initial_system_state(), trace, ReceivedImpliesSent()
        )
        assert outcome.complete
        assert outcome.executed == 3
        assert outcome.final_system.get(4).received
        assert outcome.violates is False

    @pytest.mark.parametrize(
        "prefix",
        # not in flight: never sent, or consumed by an earlier delivery
        [(), (SEND, DeliveryEvent(SENT))],
        ids=["never-sent", "consumed"],
    )
    def test_undeliverable_message_stops_replay(self, prefix):
        protocol = TreeProtocol()
        trace = prefix + (DeliveryEvent(SENT),)
        outcome = replay_trace(protocol, protocol.initial_system_state(), trace)
        assert not outcome.complete
        assert outcome.failed_at == len(prefix)
        assert outcome.executed == len(prefix)

    def test_handler_key_error_propagates(self):
        class LookupFailing(TreeProtocol):
            def handle_message(self, state, message):
                raise KeyError("missing routing entry")

        protocol = LookupFailing()
        trace = (SEND, DeliveryEvent(SENT))
        with pytest.raises(KeyError, match="missing routing entry"):
            replay_trace(protocol, protocol.initial_system_state(), trace)

    def test_empty_trace(self):
        protocol = TreeProtocol()
        outcome = replay_trace(
            protocol, protocol.initial_system_state(), (), ReceivedImpliesSent()
        )
        assert outcome.complete
        assert outcome.violates is False


class TestValidateBug:
    def test_lmc_paxos_witness_validates(self):
        protocol = scenario_protocol(buggy=True)
        invariant = PaxosAgreement(0)
        result = LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized()
        ).run(partial_choice_state())
        outcome = validate_bug(protocol, result.first_bug(), invariant)
        assert outcome.complete
        assert outcome.violates

    def test_global_2pc_witness_validates(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        invariant = CommitValidity()
        result = GlobalModelChecker(protocol, invariant).run()
        outcome = validate_bug(protocol, result.first_bug(), invariant)
        assert outcome.complete
        assert outcome.violates

    def test_every_global_checker_witness_validates(self):
        protocol, invariant = EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity()
        result = GlobalModelChecker(protocol, invariant, stop_on_first_bug=False).run()
        assert len(result.bugs) > 1
        for bug in result.bugs:
            outcome = validate_bug(protocol, bug, invariant)
            assert outcome.complete and outcome.violates, bug.trace_lines()


class TestDropReplay:
    """A drop, like a delivery, needs its copy in flight and consumes it."""

    @staticmethod
    def drop_witness():
        protocol, config = TimeoutTwoPhaseCommit(3), LMCConfig.optimized(drop_faults=True)
        bug = LocalModelChecker(protocol, Atomicity(), config=config).run().first_bug()
        index, drop = next((i, e) for i, e in enumerate(bug.trace) if isinstance(e, DropEvent))
        return protocol, bug, index, drop

    def test_drop_of_a_message_never_sent_stops_replay(self):
        protocol, bug, _index, drop = self.drop_witness()
        outcome = replay_trace(protocol, bug.initial_state, (drop,))
        assert outcome.failed_at == 0
        assert outcome.executed == 0

    def test_dropped_copy_cannot_then_be_delivered(self):
        protocol, bug, index, drop = self.drop_witness()
        forged = bug.trace[: index + 1] + (DeliveryEvent(drop.message),)
        outcome = replay_trace(protocol, bug.initial_state, forged)
        assert outcome.failed_at == index + 1
        assert outcome.executed == index + 1

    def test_every_golden_drop_witness_validates(self):
        # the fault-on workloads whose witnesses the event-pipeline golden
        # file pins, at their final depth, collecting every bug
        witnesses = 0
        for case, (_scenario, overrides, depths) in sorted(CASES.items()):
            if not overrides.get("drop_faults"):
                continue
            checker = _checker(case, 0, depths[1])
            for bug in checker.run().bugs:
                outcome = validate_bug(checker.protocol, bug, checker.invariant)
                assert outcome.complete and outcome.violates, (case, bug.trace_lines())
                witnesses += any(isinstance(e, DropEvent) for e in bug.trace)
        assert witnesses > 0


class _UnpoisonedRelay(CountingRelay):
    """The golden relay, minus the poison its origin sends node 1."""

    def handle_action(self, state, action):
        result = super().handle_action(state, action)
        sends = tuple(m for m in result.sends if not isinstance(m.payload, Poison))
        return HandlerResult(result.state, sends)


class TestDuplicateReplay:
    """A duplicate redelivery consumes nothing, but only a message that was
    sent can be duplicated."""

    def test_duplicate_of_a_message_never_sent_stops_replay(self):
        protocol = TreeProtocol()
        forged = (DuplicateEvent(Message(dest=4, src=2, payload=Payload(final_target=4))),)
        outcome = replay_trace(protocol, protocol.initial_system_state(), forged)
        assert outcome.failed_at == 0
        assert outcome.executed == 0
        assert not outcome.final_system.get(4).received

    def test_duplicate_of_a_consumed_message_replays(self):
        protocol = TreeProtocol()
        trace = (SEND, DeliveryEvent(SENT), DuplicateEvent(SENT))
        outcome = replay_trace(protocol, protocol.initial_system_state(), trace)
        assert outcome.complete
        assert outcome.executed == 3

    def test_every_duplicate_witness_validates(self):
        # the duplicate-fault workloads whose witnesses the event-pipeline
        # golden file pins, at their final depth, and the golden relay
        # without its poison, whose relays no assertion discards, so a
        # redelivered ping can make a third; every bug collected
        checkers = [
            _checker(case, 0, depths[1])
            for case, (_scenario, overrides, depths) in sorted(CASES.items())
            if overrides.get("duplicate_faults")
        ]
        config = LMCConfig.optimized(
            stop_on_first_bug=False, drop_faults=True, duplicate_faults=True, duplicate_limit=2
        )
        checkers.append(
            LocalModelChecker(_UnpoisonedRelay(), CountAtMostTwo(), SearchBudget(max_depth=4), config)
        )
        witnesses = 0
        for checker in checkers:
            for bug in checker.run().bugs:
                outcome = validate_bug(checker.protocol, bug, checker.invariant)
                assert outcome.complete and outcome.violates, bug.trace_lines()
                witnesses += any(isinstance(e, DuplicateEvent) for e in bug.trace)
        assert witnesses > 0


def test_trace_to_script_renders_comments():
    protocol = scenario_protocol(buggy=True)
    result = LocalModelChecker(
        protocol, PaxosAgreement(0), config=LMCConfig.optimized()
    ).run(partial_choice_state())
    lines = trace_to_script(result.first_bug())
    assert all(line.startswith("#") for line in lines)
    assert any("violation" in line for line in lines)
    assert len(lines) >= 3
