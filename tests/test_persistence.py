"""Tests for the bug-corpus serialization."""

import json

import pytest

import repro.protocols.paxos.messages as paxos_messages
import repro.protocols.paxos.state as paxos_state
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.model.events import CrashEvent, DeliveryEvent, InternalEvent, RestartEvent
from repro.model.system_state import SystemState
from repro.model.types import Action, Message
from repro.persistence import (
    ClassRegistry,
    UnknownClassTag,
    ValueTable,
    bug_from_dict,
    bug_to_dict,
    decode_value,
    encode_value,
    load_bugs,
    resolve_ref,
    resolve_rows,
    save_bugs,
)
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.replay import validate_bug


def paxos_registry():
    return ClassRegistry.from_modules(paxos_messages, paxos_state)


class TestValueCodec:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            42,
            "text",
            3.5,
            (1, "a", (2, 3)),
            frozenset({1, 2, 3}),
        ],
    )
    def test_round_trip_primitives(self, value):
        registry = ClassRegistry()
        assert decode_value(encode_value(value), registry) == value

    def test_round_trip_dataclasses(self):
        registry = paxos_registry()
        ballot = paxos_messages.Ballot(3, 1)
        payload = paxos_messages.PrepareResponse(
            index=0, ballot=ballot, accepted_ballot=ballot, accepted_value="v"
        )
        assert decode_value(encode_value(payload), registry) == payload

    def test_nested_state_round_trip(self):
        registry = paxos_registry()
        protocol = scenario_protocol(buggy=True)
        state = partial_choice_state().get(0)
        assert decode_value(encode_value(state), registry) == state

    def test_unknown_tag_rejected(self):
        empty = ClassRegistry()
        ballot = paxos_messages.Ballot(1, 0)
        with pytest.raises(UnknownClassTag):
            decode_value(encode_value(ballot), empty)

    def test_mutable_values_rejected(self):
        with pytest.raises(TypeError):
            encode_value([1, 2, 3])

    def test_encoding_is_json_safe(self):
        value = (paxos_messages.Ballot(1, 0), frozenset({("a", 1)}))
        json.dumps(encode_value(value))


def _through_json(table, ref):
    """A table's rows and one reference as a reader gets them back: parsed,
    then resolved into one shared JSON object per hash."""
    rows, ref = json.loads(json.dumps([list(map(list, table.rows.items())), ref]))
    resolved = {}
    resolve_rows(rows, resolved)
    return resolve_ref(ref, resolved)


class TestValueTable:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            42,
            3.5,
            (1, "a", (2, 3)),
            frozenset({("a", 1), ("b", 2), ()}),
            (paxos_messages.Ballot(1, 0), frozenset({paxos_messages.Ballot(2, 1)})),
        ],
    )
    def test_resolved_rows_equal_the_plain_encoding(self, value):
        table = ValueTable()
        assert _through_json(table, table.ref(value)) == encode_value(value)

    def test_resolved_state_equals_the_plain_encoding(self):
        state = partial_choice_state().get(0)
        table = ValueTable()
        assert _through_json(table, table.ref(state)) == encode_value(state)

    def test_a_value_is_one_row_and_decodes_to_one_object(self):
        registry = paxos_registry()
        ballot = paxos_messages.Ballot(3, 1)
        value = (ballot, (ballot, "x"), paxos_messages.Ballot(3, 1))
        table = ValueTable()
        ref = table.ref(value)
        # The ballot (once, though two objects hold it), the inner tuple,
        # the outer tuple; children first.
        assert list(table.rows.values())[0] == encode_value(ballot)
        assert len(table.rows) == 3
        decoded = decode_value(_through_json(table, ref), registry, {})
        assert decoded == value
        assert decoded[0] is decoded[1][0] is decoded[2]
        # Unshared JSON decodes to the interner's canonical objects too, so
        # equal values still decode to one object.
        plain = decode_value(encode_value(value), registry)
        assert plain == value and plain[0] is plain[2] is decoded[0]

    def test_held_values_are_not_written_again(self):
        value = (paxos_messages.Ballot(3, 1), frozenset({1, 2}))
        first = ValueTable()
        ref = first.ref(value)
        again = ValueTable(set(first.rows))
        assert again.ref(value) == ref and again.rows == {}

    def test_a_reference_without_its_row_is_refused(self):
        table = ValueTable()
        ref = table.ref((1, (2,)))
        rows = list(map(list, table.rows.items()))
        with pytest.raises(ValueError, match="no earlier row defines"):
            resolve_rows(rows[1:], {})
        with pytest.raises(ValueError):
            resolve_ref(ref, {})


class TestBugRoundTrip:
    def _confirmed_bug(self):
        protocol = scenario_protocol(buggy=True)
        result = LocalModelChecker(
            protocol, PaxosAgreement(0), config=LMCConfig.optimized()
        ).run(partial_choice_state())
        return protocol, result.first_bug()

    def test_bug_dict_round_trip(self):
        protocol, bug = self._confirmed_bug()
        registry = paxos_registry()
        restored = bug_from_dict(bug_to_dict(bug), registry)
        assert restored.description == bug.description
        assert restored.trace == bug.trace
        assert restored.violating_state == bug.violating_state
        assert restored.initial_state == bug.initial_state

    def test_restored_bug_still_replays(self, tmp_path):
        protocol, bug = self._confirmed_bug()
        path = tmp_path / "corpus.json"
        save_bugs(str(path), [bug])
        (restored,) = load_bugs(str(path), paxos_registry())
        outcome = validate_bug(protocol, restored, PaxosAgreement(0))
        assert outcome.complete and outcome.violates

    def test_corpus_version_enforced(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"version": 99, "bugs": []}')
        with pytest.raises(ValueError):
            load_bugs(str(path), paxos_registry())

    def test_event_kinds_round_trip(self):
        registry = paxos_registry()
        from repro.persistence import decode_event, encode_event

        deliver = DeliveryEvent(
            Message(dest=1, src=0, payload=paxos_messages.Prepare(0, paxos_messages.Ballot(1, 0)))
        )
        action = InternalEvent(Action(node=2, name="propose", payload=(0, "v")))
        assert decode_event(encode_event(deliver), registry) == deliver
        assert decode_event(encode_event(action), registry) == action

    def test_fault_events_round_trip(self):
        registry = ClassRegistry()
        from repro.persistence import decode_event, encode_event

        crash = CrashEvent(1)
        restart = RestartEvent(1)
        assert decode_event(encode_event(crash), registry) == crash
        assert decode_event(encode_event(restart), registry) == restart
        json.dumps([encode_event(crash), encode_event(restart)])


class TestAtomicSave:
    def _corpus(self):
        protocol = scenario_protocol(buggy=True)
        result = LocalModelChecker(
            protocol, PaxosAgreement(0), config=LMCConfig.optimized()
        ).run(partial_choice_state())
        return [result.first_bug()]

    def test_failed_dump_preserves_existing_corpus(self, tmp_path, monkeypatch):
        """A crash mid-dump must leave the previous corpus fully readable."""
        bugs = self._corpus()
        path = tmp_path / "corpus.json"
        save_bugs(str(path), bugs)
        before = path.read_text()

        def boom(*args, **kwargs):
            raise RuntimeError("disk full mid-dump")

        # save_bugs now dumps through the shared repro.fsio atomic-write
        # helper, so the failure is injected there.
        monkeypatch.setattr("repro.fsio.json.dumps", boom)
        with pytest.raises(RuntimeError):
            save_bugs(str(path), bugs)
        monkeypatch.undo()

        assert path.read_text() == before
        (restored,) = load_bugs(str(path), paxos_registry())
        assert restored.description == bugs[0].description
        # the failed attempt's temp file must not linger
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["corpus.json"]

    def test_save_replaces_rather_than_truncates(self, tmp_path):
        path = tmp_path / "corpus.json"
        save_bugs(str(path), self._corpus())
        save_bugs(str(path), [])
        assert load_bugs(str(path), paxos_registry()) == []
        assert sorted(entry.name for entry in tmp_path.iterdir()) == ["corpus.json"]


class TestRegistry:
    def test_from_modules_collects_dataclasses(self):
        registry = paxos_registry()
        assert registry.resolve("Ballot") is paxos_messages.Ballot
        assert registry.resolve("PaxosNodeState") is paxos_state.PaxosNodeState

    def test_non_dataclass_rejected(self):
        with pytest.raises(TypeError):
            ClassRegistry([int])
