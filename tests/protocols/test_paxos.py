"""Unit tests for the Paxos protocol implementation."""

import pytest

from repro.model.hashing import content_hash
from repro.model.protocol import ProtocolConfigError
from repro.model.types import Action, Message
from repro.protocols.paxos import (
    Accept,
    Ballot,
    BuggyPaxosProtocol,
    Learn,
    PaxosAgreement,
    PaxosAgreementAll,
    PaxosProtocol,
    Prepare,
    PrepareResponse,
)
from repro.protocols.paxos.state import (
    EMPTY_ACCEPTOR,
    EMPTY_LEARNER,
    AcceptorSlot,
    LearnerSlot,
    PromiseInfo,
    ProposerSlot,
)


def deliver(protocol, state, src, payload):
    return protocol.handle_message(
        state, Message(dest=state.node, src=src, payload=payload)
    )


@pytest.fixture
def protocol():
    return PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),), require_init=False)


class TestBallots:
    def test_total_order(self):
        assert Ballot(1, 0) < Ballot(1, 1) < Ballot(2, 0)

    def test_next_round(self):
        assert Ballot(1, 2).next_round(0) == Ballot(2, 0)


class TestConfig:
    def test_too_few_nodes_rejected(self):
        with pytest.raises(ProtocolConfigError):
            PaxosProtocol(num_nodes=1)

    def test_unknown_proposer_rejected(self):
        with pytest.raises(ProtocolConfigError):
            PaxosProtocol(num_nodes=3, proposals=((7, 0, "v"),))

    def test_majority(self):
        assert PaxosProtocol(num_nodes=3).majority == 2
        assert PaxosProtocol(num_nodes=5).majority == 3


class TestInitAndPropose:
    def test_init_action_required_by_default(self):
        protocol = PaxosProtocol(num_nodes=3)
        state = protocol.initial_state(0)
        actions = protocol.enabled_actions(state)
        assert [a.name for a in actions] == ["init"]
        inited = protocol.handle_action(state, actions[0]).state
        assert inited.initialized
        assert [a.name for a in protocol.enabled_actions(inited)] == ["propose"]

    def test_propose_broadcasts_prepare_to_all(self, protocol):
        state = protocol.initial_state(0)
        result = protocol.handle_action(
            state, Action(node=0, name="propose", payload=(0, "v0"))
        )
        assert len(result.sends) == 3
        assert all(isinstance(m.payload, Prepare) for m in result.sends)
        assert result.state.proposer(0).ballot == Ballot(1, 0)
        assert result.state.pending == ()

    def test_propose_with_wrong_payload_is_noop(self, protocol):
        state = protocol.initial_state(0)
        result = protocol.handle_action(
            state, Action(node=0, name="propose", payload=(5, "zz"))
        )
        assert result.is_noop(state)

    def test_inject_enqueues_once(self, protocol):
        state = protocol.initial_state(1)
        once = protocol.handle_action(
            state, Action(node=1, name="inject", payload=(3, "x"))
        ).state
        assert (3, "x") in once.pending
        twice = protocol.handle_action(
            once, Action(node=1, name="inject", payload=(3, "x"))
        )
        assert twice.is_noop(once)


class TestAcceptor:
    def test_promise_and_response(self, protocol):
        state = protocol.initial_state(1)
        result = deliver(protocol, state, 0, Prepare(index=0, ballot=Ballot(1, 0)))
        assert result.state.acceptor(0).promised == Ballot(1, 0)
        (response,) = result.sends
        assert response.dest == 0
        assert isinstance(response.payload, PrepareResponse)
        assert response.payload.accepted_value is None

    def test_lower_ballot_prepare_ignored(self, protocol):
        state = protocol.initial_state(1)
        state = deliver(protocol, state, 2, Prepare(index=0, ballot=Ballot(1, 2))).state
        result = deliver(protocol, state, 0, Prepare(index=0, ballot=Ballot(1, 0)))
        assert result.is_noop(state)

    def test_equal_ballot_prepare_repromises(self, protocol):
        state = protocol.initial_state(1)
        state = deliver(protocol, state, 0, Prepare(index=0, ballot=Ballot(1, 0))).state
        result = deliver(protocol, state, 0, Prepare(index=0, ballot=Ballot(1, 0)))
        assert result.sends  # idempotent re-response
        assert result.state == state

    def test_accept_stores_and_broadcasts_learn(self, protocol):
        state = protocol.initial_state(1)
        result = deliver(
            protocol, state, 0, Accept(index=0, ballot=Ballot(1, 0), value="v0")
        )
        slot = result.state.acceptor(0)
        assert slot.accepted_value == "v0"
        assert slot.promised == Ballot(1, 0)
        assert len(result.sends) == 3
        assert all(isinstance(m.payload, Learn) for m in result.sends)

    def test_lower_ballot_accept_rejected(self, protocol):
        state = protocol.initial_state(1)
        state = deliver(protocol, state, 2, Prepare(index=0, ballot=Ballot(1, 2))).state
        result = deliver(
            protocol, state, 0, Accept(index=0, ballot=Ballot(1, 0), value="v0")
        )
        assert result.is_noop(state)

    def test_duplicate_accept_reannounces_learn(self, protocol):
        state = protocol.initial_state(1)
        accept = Accept(index=0, ballot=Ballot(1, 0), value="v0")
        state = deliver(protocol, state, 0, accept).state
        result = deliver(protocol, state, 0, accept)
        assert result.state == state
        assert len(result.sends) == 3  # Learn re-broadcast

    def test_response_carries_accepted_proposal(self, protocol):
        state = protocol.initial_state(1)
        state = deliver(
            protocol, state, 0, Accept(index=0, ballot=Ballot(1, 0), value="v0")
        ).state
        result = deliver(protocol, state, 2, Prepare(index=0, ballot=Ballot(1, 2)))
        (response,) = result.sends
        assert response.payload.accepted_ballot == Ballot(1, 0)
        assert response.payload.accepted_value == "v0"


class TestProposerQuorum:
    def _preparing_state(self, protocol):
        state = protocol.initial_state(0)
        return protocol.handle_action(
            state, Action(node=0, name="propose", payload=(0, "v0"))
        ).state

    def test_first_response_recorded(self, protocol):
        state = self._preparing_state(protocol)
        response = PrepareResponse(
            index=0, ballot=Ballot(1, 0), accepted_ballot=None, accepted_value=None
        )
        result = deliver(protocol, state, 1, response)
        assert len(result.state.proposer(0).responses) == 1
        assert not result.sends

    def test_quorum_triggers_accept_broadcast(self, protocol):
        state = self._preparing_state(protocol)
        response = PrepareResponse(
            index=0, ballot=Ballot(1, 0), accepted_ballot=None, accepted_value=None
        )
        state = deliver(protocol, state, 1, response).state
        result = deliver(protocol, state, 2, response)
        assert result.state.proposer(0).phase == "accepting"
        assert len(result.sends) == 3
        assert all(isinstance(m.payload, Accept) for m in result.sends)
        assert result.sends[0].payload.value == "v0"

    def test_duplicate_responder_ignored(self, protocol):
        state = self._preparing_state(protocol)
        response = PrepareResponse(
            index=0, ballot=Ballot(1, 0), accepted_ballot=None, accepted_value=None
        )
        state = deliver(protocol, state, 1, response).state
        result = deliver(protocol, state, 1, response)
        assert result.is_noop(state)

    def test_stale_ballot_response_ignored(self, protocol):
        state = self._preparing_state(protocol)
        stale = PrepareResponse(
            index=0, ballot=Ballot(9, 9), accepted_ballot=None, accepted_value=None
        )
        assert deliver(protocol, state, 1, stale).is_noop(state)

    def test_correct_value_selection_highest_ballot_wins(self, protocol):
        slot = ProposerSlot(
            ballot=Ballot(2, 0),
            value="mine",
            responses=(
                PromiseInfo(1, Ballot(1, 1), "old-low"),
                PromiseInfo(2, Ballot(1, 2), "old-high"),
                PromiseInfo(0, None, None),
            ),
        )
        assert protocol._select_value(slot) == "old-high"

    def test_correct_value_selection_own_value_when_none_accepted(self, protocol):
        slot = ProposerSlot(
            ballot=Ballot(1, 0),
            value="mine",
            responses=(PromiseInfo(1, None, None), PromiseInfo(2, None, None)),
        )
        assert protocol._select_value(slot) == "mine"

    def test_buggy_value_selection_uses_last_response(self):
        buggy = BuggyPaxosProtocol(num_nodes=3, require_init=False)
        slot = ProposerSlot(
            ballot=Ballot(2, 1),
            value="mine",
            responses=(
                PromiseInfo(1, Ballot(1, 0), "accepted-earlier"),
                PromiseInfo(2, None, None),  # last: nothing accepted
            ),
        )
        # The injected §5.5 bug: the last response wins, so the proposer
        # wrongly pushes its own value despite the earlier accepted one.
        assert buggy._select_value(slot) == "mine"
        reordered = ProposerSlot(
            ballot=slot.ballot,
            value="mine",
            responses=tuple(reversed(slot.responses)),
        )
        assert buggy._select_value(reordered) == "accepted-earlier"


class TestLearner:
    def test_choice_requires_majority_of_acceptors(self, protocol):
        state = protocol.initial_state(2)
        learn = Learn(index=0, ballot=Ballot(1, 0), value="v0")
        state = deliver(protocol, state, 0, learn).state
        assert state.chosen_value(0) is None
        state = deliver(protocol, state, 1, learn).state
        assert state.chosen_value(0) == "v0"

    def test_duplicate_learn_ignored(self, protocol):
        state = protocol.initial_state(2)
        learn = Learn(index=0, ballot=Ballot(1, 0), value="v0")
        state = deliver(protocol, state, 0, learn).state
        assert deliver(protocol, state, 0, learn).is_noop(state)

    def test_mixed_ballots_do_not_count_together(self, protocol):
        state = protocol.initial_state(2)
        state = deliver(
            protocol, state, 0, Learn(index=0, ballot=Ballot(1, 0), value="v0")
        ).state
        state = deliver(
            protocol, state, 1, Learn(index=0, ballot=Ballot(2, 1), value="v0")
        ).state
        assert state.chosen_value(0) is None

    def test_choice_retires_own_proposer_slot(self, protocol):
        state = protocol.initial_state(0)
        state = protocol.handle_action(
            state, Action(node=0, name="propose", payload=(0, "v0"))
        ).state
        learn = Learn(index=0, ballot=Ballot(1, 0), value="v0")
        state = deliver(protocol, state, 0, learn).state
        state = deliver(protocol, state, 1, learn).state
        assert state.chosen_value(0) == "v0"
        assert state.proposer(0).phase == "done"


class TestRetransmit:
    def test_disabled_by_default(self, protocol):
        state = protocol.initial_state(0)
        state = protocol.handle_action(
            state, Action(node=0, name="propose", payload=(0, "v0"))
        ).state
        assert all(a.name != "retry" for a in protocol.enabled_actions(state))

    def test_retry_rebroadcasts_without_state_change(self):
        protocol = PaxosProtocol(
            num_nodes=3, proposals=((0, 0, "v0"),), require_init=False, retransmit=True
        )
        state = protocol.initial_state(0)
        state = protocol.handle_action(
            state, Action(node=0, name="propose", payload=(0, "v0"))
        ).state
        retry = [a for a in protocol.enabled_actions(state) if a.name == "retry"]
        assert retry
        result = protocol.handle_action(state, retry[0])
        assert result.state == state
        assert len(result.sends) == 3
        assert isinstance(result.sends[0].payload, Prepare)


class TestInvariants:
    def test_agreement_detects_disagreement(self, protocol):
        a = protocol.initial_state(0)
        b = protocol.initial_state(1)
        learn0 = Learn(index=0, ballot=Ballot(1, 0), value="x")
        learn1 = Learn(index=0, ballot=Ballot(1, 1), value="y")
        for src in (0, 1):
            a = deliver(protocol, a, src, learn0).state
            b = deliver(protocol, b, src, learn1).state
        from repro.model.system_state import SystemState

        system = SystemState({0: a, 1: b, 2: protocol.initial_state(2)})
        assert not PaxosAgreement(0).check(system)
        assert not PaxosAgreementAll().check(system)
        assert "x" in PaxosAgreement(0).describe_violation(system)

    def test_projection_is_chosen_value(self, protocol):
        state = protocol.initial_state(0)
        assert PaxosAgreement(0).local_projection(0, state) is None
        learn = Learn(index=0, ballot=Ballot(1, 0), value="v")
        state = deliver(protocol, state, 0, learn).state
        state = deliver(protocol, state, 1, learn).state
        assert PaxosAgreement(0).local_projection(0, state) == "v"

    def test_agreement_all_projection_and_conflict(self, protocol):
        inv = PaxosAgreementAll()
        state = protocol.initial_state(0)
        assert inv.local_projection(0, state) is None
        learn = Learn(index=3, ballot=Ballot(1, 0), value="v")
        state = deliver(protocol, state, 0, learn).state
        state = deliver(protocol, state, 1, learn).state
        projection = inv.local_projection(0, state)
        assert (3, "v") in projection
        assert inv.projections_conflict({0: projection, 1: frozenset({(3, "w")})})
        assert not inv.projections_conflict(
            {0: projection, 1: frozenset({(4, "w")})}
        )


class TestSlotDefaults:
    """An unbound decree reads as the empty slot, shared, not rebuilt."""

    def test_unbound_slots_equal_fresh_defaults(self, protocol):
        state = protocol.initial_state(0)
        assert state.acceptor(7) == AcceptorSlot()
        assert state.learner(7) == LearnerSlot()
        assert content_hash(state.acceptor(7)) == content_hash(AcceptorSlot())
        assert content_hash(state.learner(7)) == content_hash(LearnerSlot())

    def test_unbound_slots_are_one_shared_value(self, protocol):
        state = protocol.initial_state(0)
        assert state.acceptor(0) is state.acceptor(1) is EMPTY_ACCEPTOR
        assert state.learner(0) is state.learner(1) is EMPTY_LEARNER
