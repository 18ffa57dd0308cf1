"""Tests for the per-node state stores, their link rows and history masks."""

from types import SimpleNamespace

import pytest

from repro.core import checker as checker_module
from repro.core.checkpoint import (
    HISTORY,
    Checkpointer,
    _history_mask,
    load_checkpoint,
    snapshot_pass,
)
from repro.core.event_kinds import DELIVERY, DUPLICATE, SEEN, SKIP, gate_delivery, gate_drop
from repro.core.records import LINK_WIDTH, LocalStateSpace, NodeStateStore
from repro.model.events import InternalEvent, RestartEvent, event_hash
from repro.model.hashing import content_hash
from repro.model.types import Action, Message
from repro.network.monotonic import MonotonicNetwork
from tests.core.test_event_pipeline_golden import ENVELOPE_CASE, _checker


def step_of(store, name="e", consumed=None, generated=()):
    event = InternalEvent(Action(node=0, name=name))
    return store.steps.intern(event, event_hash(event), consumed, tuple(generated))


def links(store, record):
    return [(prev, step.event.action.name) for prev, step in store.links_of(record)]


class TestNodeStateStore:
    def test_add_and_lookup(self):
        store = NodeStateStore(0)
        h = content_hash("s0")
        record = store.add("s0", h, depth=0, local_depth=0, history=0)
        assert store.lookup(h) is record
        assert store.lookup(12345) is None
        assert len(store) == 1
        assert record.index == 0

    def test_duplicate_add_rejected(self):
        store = NodeStateStore(0)
        h = content_hash("s0")
        store.add("s0", h, depth=0, local_depth=0, history=0)
        with pytest.raises(ValueError):
            store.add("s0", h, depth=1, local_depth=0, history=0)

    def test_indices_follow_insertion(self):
        store = NodeStateStore(0)
        for i, state in enumerate(["a", "b", "c"]):
            record = store.add(state, content_hash(state), depth=i, local_depth=0, history=0)
            assert record.index == i


class TestPredecessorLinks:
    def test_dedup_by_prev_and_event(self):
        store = NodeStateStore(0)
        record = store.add("a", content_hash("a"), 0, 0, 0)
        assert record.add_predecessor(store, 1, step_of(store))
        assert not record.add_predecessor(store, 1, step_of(store))
        assert record.add_predecessor(store, 2, step_of(store))
        assert links(store, record) == [(1, "e"), (2, "e")]

    def test_links_with_different_events_kept(self):
        store = NodeStateStore(0)
        record = store.add("a", content_hash("a"), 0, 0, 0)
        assert record.add_predecessor(store, 1, step_of(store, "x"))
        assert record.add_predecessor(store, 1, step_of(store, "y"))
        assert links(store, record) == [(1, "x"), (1, "y")]

    def test_links_keep_their_order_across_interleaved_records(self):
        store = NodeStateStore(0)
        first = store.add("a", content_hash("a"), 0, 0, 0)
        second = store.add("b", content_hash("b"), 0, 0, 0)
        for prev, name in ((3, "p"), (4, "q"), (5, "r")):
            first.add_predecessor(store, prev, step_of(store, name))
            second.add_predecessor(store, prev + 10, step_of(store, name))
        assert links(store, first) == [(3, "p"), (4, "q"), (5, "r")]
        assert links(store, second) == [(13, "p"), (14, "q"), (15, "r")]
        # ``since`` keeps only rows added once ``links`` had that length.
        since = 3 * LINK_WIDTH
        assert links(store, first)[2:] == [
            (prev, step.event.action.name)
            for prev, step in store.links_of(first, since)
        ]


class TestLocalStateSpace:
    def test_seed_marks_records(self):
        space = LocalStateSpace((0, 1))
        record = space.seed(0, "live0")
        assert record.seed
        assert record.depth == 0
        assert record.history == 0
        assert space.total_states() == 1

    def test_stores_are_per_node(self):
        space = LocalStateSpace((0, 1))
        space.seed(0, "same")
        space.seed(1, "same")
        assert space.total_states() == 2
        assert len(space.store(0)) == 1

    def test_stores_share_one_step_table(self):
        space = LocalStateSpace((0, 1))
        assert space.store(0).steps is space.store(1).steps is space.steps
        first = step_of(space.store(0), "go", consumed=5, generated=(7,))
        assert step_of(space.store(1), "go", consumed=5, generated=(7,)) == first
        assert step_of(space.store(1), "go", consumed=5, generated=(8,)) != first
        assert len(space.steps.steps) == 2


# -- history masks ---------------------------------------------------------------


def _pass(max_depth=None):
    """The attributes the delivery and drop gates read off a pass."""
    return SimpleNamespace(max_depth=max_depth, config=SimpleNamespace(max_drops=None), stats=None)


def _record(history):
    return SimpleNamespace(discarded=False, crashed=False, depth=0, history=history)


class TestHistoryMasks:
    def test_a_message_bit_sits_at_its_first_copys_seq(self):
        network = MonotonicNetwork()
        first = network.add(Message(dest=1, src=0, payload="a"))
        second = network.add(Message(dest=1, src=0, payload="b"))
        assert (first.bit, second.bit) == (0, 1)
        seen_first = _record(1 << first.bit)
        assert gate_delivery(_pass(), seen_first, first) is SEEN
        assert gate_delivery(_pass(), seen_first, second) is DELIVERY
        assert gate_drop(_pass(), seen_first, first) is SKIP
        assert gate_drop(_pass(), seen_first, second).tag == "o"

    def test_a_duplicate_copy_shares_the_bit_and_tokens_its_own_seq(self):
        network = MonotonicNetwork(duplicate_limit=1)
        network.add(Message(dest=2, src=0, payload="other"))
        first = network.add(Message(dest=1, src=0, payload="a"))
        copy = network.add(Message(dest=1, src=0, payload="a"))
        copy.duplicate = True
        assert (first.seq, first.bit, copy.seq, copy.bit) == (1, 1, 2, 1)
        delivered = _record(1 << first.bit)
        assert gate_delivery(_pass(), delivered, copy) is DUPLICATE
        assert gate_drop(_pass(), delivered, copy) is SKIP
        token = _record(1 << first.bit | 1 << copy.seq)
        assert gate_delivery(_pass(), token, copy) is SEEN

    def test_version_5_rows_become_the_mask_and_an_unknown_hash_raises(self):
        """Version 5 wrote a history as the sorted hashes of its first-copy
        bits and a ``-(seq + 1)`` token per other copy; upgrading a log
        turns them back into the mask through its ``I+`` log."""
        network = MonotonicNetwork(duplicate_limit=1)
        stored = [network.add(Message(dest=1, src=0, payload=p)) for p in "abca"]
        stored[3].duplicate = True
        bits = {item.hash: item.bit for item in network.messages_since(0)}
        mask = 1 << stored[2].bit | 1 << stored[0].bit | 1 << stored[3].seq
        rows = sorted([stored[0].hash, stored[2].hash, -4])
        assert _history_mask(rows, bits) == mask
        with pytest.raises(KeyError):
            _history_mask([content_hash("never sent")], bits)

    def test_a_reboot_clears_the_history(self, monkeypatch):
        passes = []
        execute = checker_module._ExplorationPass.execute

        def execute_and_keep(run_pass):
            passes.append(run_pass)
            return execute(run_pass)

        monkeypatch.setattr(checker_module._ExplorationPass, "execute", execute_and_keep)
        _checker(ENVELOPE_CASE, 0, 4).run()
        (run_pass,) = passes
        rebooted = inherited = 0
        for store in run_pass.space.stores.values():
            for record in store:
                # A record's first link is the one that discovered it.
                discovery = next(store.links_of(record), None)
                if discovery is not None and isinstance(discovery[1].event, RestartEvent):
                    inherited += store.records[discovery[0]].history != 0
                    assert record.history == 0
                    rebooted += 1
        assert rebooted and inherited

    def test_a_checkpoint_round_trip_writes_the_same_masks(self, tmp_path):
        # Its duplicate copies leave per-copy tokens in some histories.
        case = "relay_assert_discard"
        path = str(tmp_path / "ckpt.json")
        _checker(case, 0, 3, Checkpointer(path, every_rounds=1)).run()
        payload = load_checkpoint(path)
        rows = [
            row[HISTORY]
            for _node, store in payload["pass"]["stores"]
            for row in store["records"]
        ]
        masks = [int(history, 16) for history in rows]
        assert rows == [format(mask, "x") for mask in masks]
        copies = [
            seq
            for seq, row in enumerate(payload["pass"]["network"]["messages"])
            if row["duplicate"]
        ]
        assert any(mask >> seq & 1 for mask in masks for seq in copies)
        assert any(mask >> seq & 1 for mask in masks for seq in range(mask.bit_length())
                   if seq not in copies)
        _stats, _result, restored = _checker(case, 0, 3)._restore(payload)
        again = snapshot_pass(restored, "round trip", elapsed=payload["elapsed_s"])
        assert [
            row[HISTORY]
            for _node, store in again["pass"]["stores"]
            for row in store["records"]
        ] == rows
