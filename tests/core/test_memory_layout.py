"""The compact exploration bookkeeping behaves like the containers it replaced.

The layers keep their data without per-entry Python containers
(docs/PERFORMANCE.md, "What a node state costs in memory"):

* each sweep lane's depth-deferred record indexes are an append-only
  ``array('q')``, which must stay strictly ascending — through cold runs
  and ``extend_depth`` chains, with drop, crash and partition faults — and
  checkpoint to the same rows the set-based layout wrote;
* a record's predecessor links are integer rows in its store's
  ``array('q')``, deduplicated by scanning the record's own chain and read
  back in the order they were added, over one shared table of slotted
  steps;
* the hash interner keeps one entry per distinct value, evicting the oldest
  first, and every state a record holds — after a cold run, a depth
  extension from a checkpoint or two-worker rounds — and every message
  ``I+`` holds is its entry's canonical object;
* a depth extension re-offers each deferred pair once.
"""

import gc
import hashlib
import json
import weakref
from array import array
from collections import OrderedDict

import pytest

from repro import LMCConfig, LocalModelChecker
from repro.core import checker as checker_module
from repro.core.checkpoint import Checkpointer, load_checkpoint
from repro.core.event_kinds import CURSOR_SWEEPS
from repro.core.records import LINK_WIDTH, LocalStateSpace, NodeStateRecord, SequenceStep
from repro.explore.budget import SearchBudget
from repro.model import hashing
from repro.model.events import InternalEvent
from repro.model.hashing import HashInterner
from repro.model.types import Action
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from tests.core.test_event_pipeline_golden import _checker

#: name -> (event-pipeline golden case, the cold run's depth then each
#: extension's, and per leg the :func:`_row_digest` of its final checkpoint
#: as the set-based layout — ``sorted(deferred)`` rows — wrote it).
CHAINS = {
    "drops": (
        "2pc_drops",
        (2, 3, 4, 5, 6),
        (
            "0207db718608521770c97bb61a741c11bbbf3e1559d659ebb8c7b70dbf3b72cc",
            "77988388036736d93c1f33350066fafcb04d694c35552484dfd8e64316ac0068",
            "80193d79d7aa23f9f1fa4be69c0d50f8cc59a3c7a5b9034e165580c0e98e4ab6",
            "bf8d681e7eb8fa954a822f291b820b47ce79f327c7a1a7a175c81e6bff3c822a",
            "fb1e6e063c8907ee34482d4a2e97b599561d9b4f68797b335ec07b887be63deb",
        ),
    ),
    "crashes": (
        "paxos_crash_per_node_cap",
        (2, 3, 4, 5),
        (
            "6cf96b994b276e9e2599482522dc25257044036ab72682822f627b4358911185",
            "308a1d6a7131eeffbfc902eba35bbbb55fcd714f79b92edc5559636553bd3872",
            "753ae516ac35330c0003cfd714bbd3cf1c9caaa28de04bbc08336642cfc63cd2",
            "21258a0a2f4c656837637f0622745025af54f3951b33c090b393b47c9888f40f",
        ),
    ),
    "partition": (
        "2pc_partition_healing",
        (2, 3, 4, 5, 6),
        (
            "23de85434385f14755c54b083ddf558bf50c05e7181612b9b5cdd7365589a7d0",
            "584e6811e4a0c7d611c5127a0fe5e913a6d258a856e12a0ef6e1947f5ec69b36",
            "7ab7e2a1d240e9e310a6b5780fd994a1967d07ed32bae88e4083bfe2eef432e3",
            "6b25af3f4baaa15eced808d88901f7515ad416c20665ad482abaa68c8dfe42d6",
            "739b8a3d3c57948020d60edc0788c44a53822dabcd4b33bd30766cc0a851aca0",
        ),
    ),
    "all_families": (
        "2pc_all_families",
        (2, 3, 4, 5, 6),
        (
            "39197f89078ac64a5fd4b41fa861ed64e0b6239ebd31dde48971001ea80cd90b",
            "3093eff0de6cbe9c41e906aec9a57b5a03902e8f8ea5d3a9d5ae5fef87b545b5",
            "28249fb02d93f2ebeef6c27dd008a2dcd7327ef48ca12d8d8389651468168b07",
            "0cf041f7bf5faf29188b224f6ee63413faa3204d8c3123ece665d2a840f30238",
            "92009a40695909cc5700d0fe132f5e59d80397d483399cc11d70ae3c993b69a3",
        ),
    ),
}


def _lanes(run_pass):
    """Every cursor of the pass: the stored messages and the sweep cursors."""
    yield from run_pass.network.messages_since(0)
    for sweep in CURSOR_SWEEPS:
        yield from run_pass.cursors[sweep.name].values()


def _row_digest(payload):
    """SHA-256 of a checkpoint's cursor and deferred rows, every family."""
    data = payload["pass"]
    rows = {
        "messages": [
            [row["hash"], row["cursor"], row["deferred"]]
            for row in data["network"]["messages"]
        ]
    }
    for sweep in CURSOR_SWEEPS:
        for part in ("cursor", "deferred"):
            key = f"{sweep.name}_{part}"
            rows[key] = data[key]
    text = json.dumps(rows, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def run_chain(case, depths, directory):
    """Cold run at ``depths[0]``, then extend to each later depth; the
    digest of each leg's final checkpoint, and the deferred entries it
    held."""
    digests, held = [], []
    payload = None
    for depth in depths:
        path = str(directory / f"{case}_d{depth}.json")
        checker = _checker(case, 0, depth, checkpointer=Checkpointer(path))
        if payload is None:
            checker.run()
        else:
            checker.extend_depth(payload)
        payload = load_checkpoint(path)
        digests.append(_row_digest(payload))
        held.append(
            sum(len(row["deferred"]) for row in payload["pass"]["network"]["messages"])
            + sum(
                len(indexes)
                for sweep in CURSOR_SWEEPS
                for _key, indexes in payload["pass"][f"{sweep.name}_deferred"]
            )
        )
    return digests, held


@pytest.mark.parametrize("chain", sorted(CHAINS))
def test_deferred_stays_ascending_and_checkpoints_the_set_based_rows(
    chain, tmp_path, monkeypatch
):
    case, depths, expected = CHAINS[chain]
    rounds = []
    sweep_round = checker_module._ExplorationPass._round

    def checked_round(run_pass):
        executions = sweep_round(run_pass)
        for lane in _lanes(run_pass):
            deferred = lane.deferred
            assert isinstance(deferred, array) and deferred.typecode == "q"
            assert all(a < b for a, b in zip(deferred, deferred[1:])), list(deferred)
        rounds.append(run_pass.round_number)
        return executions

    monkeypatch.setattr(checker_module._ExplorationPass, "_round", checked_round)
    digests, held = run_chain(case, depths, tmp_path)
    assert len(rounds) > len(depths)
    # Each leg before the last still blocks pairs, and each extension both
    # re-offers them and defers some again.
    assert all(count > 0 for count in held[:-1])
    assert digests == list(expected)


def _step(space, event_hash, consumed_hash=None):
    return space.steps.intern(
        InternalEvent(Action(node=0, name="go")), event_hash, consumed_hash, (7, 8)
    )


def test_add_predecessor_refuses_a_repeated_link_and_keeps_other_predecessors():
    space = LocalStateSpace((0,))
    store = space.store(0)
    record = store.add("s", 1, 0, 0, 0)
    assert record.add_predecessor(store, 10, _step(space, 20))
    # Same predecessor and event: the same link, whatever else it carries.
    assert not record.add_predecessor(store, 10, _step(space, 20))
    assert not record.add_predecessor(store, 10, _step(space, 20, consumed_hash=5))
    # The same event from another predecessor, another event from the same
    # predecessor, and the seed's predecessor-less link are all new.
    assert record.add_predecessor(store, 11, _step(space, 20))
    assert record.add_predecessor(store, 10, _step(space, 21))
    assert record.add_predecessor(store, -1, _step(space, 20))
    assert not record.add_predecessor(store, -1, _step(space, 20))
    assert [(prev, step.event_hash) for prev, step in store.links_of(record)] == [
        (10, 20),
        (11, 20),
        (10, 21),
        (-1, 20),
    ]


def test_links_are_integer_rows_over_shared_slotted_steps():
    space = LocalStateSpace((0, 1))
    records = [space.store(node).add("s", 1, 0, 0, 0) for node in (0, 1)]
    for record in records:
        store = space.store(record.node)
        record.add_predecessor(store, 3, _step(space, 20))
        record.add_predecessor(store, 4, _step(space, 20))
    rows = space.store(1).links
    assert isinstance(rows, array) and rows.typecode == "q"
    # (predecessor, step id, next link): the second row ends the chain.
    assert list(rows) == [3, 0, LINK_WIDTH, 4, 0, -1]
    assert records[1].first_link == 0
    # Both stores name one step object; steps carry no ``__dict__``.
    (step,) = space.steps.steps
    assert isinstance(step, SequenceStep) and not hasattr(step, "__dict__")
    assert all(
        linked is step
        for record in records
        for _prev, linked in space.store(record.node).links_of(record)
    )
    assert not hasattr(NodeStateRecord(0, "s", 1, 0, 0, 0, 0), "__dict__")


@pytest.mark.parametrize("capacity", [1, 3, 64])
def test_interner_churn_stays_at_capacity_and_evicts_oldest_first(capacity):
    interner = HashInterner(capacity=capacity)
    reference = OrderedDict()
    values = [("value", i) for i in range(20 * capacity)]
    for value in values:
        assert hashing._entry(value, interner).value is value
        reference[value] = value
        if len(reference) > capacity:
            reference.popitem(last=False)
        # A repeat, fresh or not, is a hit and keeps its place.
        assert hashing._entry(tuple(list(value)), interner).value is value
        assert len(interner._table) == len(interner._cons) == len(interner._order)
        assert len(interner) <= capacity
    assert len(interner) == capacity
    assert interner.evictions == len(values) - capacity
    assert [same for same, _bytes in interner.entries()] == list(reference)
    assert all(interner.is_canonical(value) for value in reference)
    assert not interner.is_canonical(values[0])
    assert interner.stats()["entries"] == capacity
    interner.clear()
    assert not interner._order and not interner._table and len(interner) == 0


# -- one canonical object per distinct value -------------------------------------


def _paxos2(depth, checkpointer=None, **overrides):
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1")))
    return LocalModelChecker(
        protocol,
        PaxosAgreement(0),
        SearchBudget(max_depth=depth),
        LMCConfig.optimized(**overrides),
        checkpointer=checkpointer,
    )


@pytest.fixture
def passes(monkeypatch):
    """A cold shared interner, and every exploration pass run meanwhile."""
    hashing.configure_interning(False)
    hashing.configure_interning(True)
    seen = []
    execute = checker_module._ExplorationPass.execute

    def execute_and_keep(run_pass):
        seen.append(run_pass)
        return execute(run_pass)

    monkeypatch.setattr(checker_module._ExplorationPass, "execute", execute_and_keep)
    yield seen
    hashing.configure_interning(True)


def _assert_canonical(run_pass):
    """One interner entry per distinct encoding, and every state a record
    holds and every message ``I+`` holds is its entry's object."""
    interner = hashing._DEFAULT_INTERNER
    encodings = [encoded for _value, encoded in interner.entries()]
    assert len(interner) == len(set(encodings)) > 1000
    records = [record for store in run_pass.space.stores.values() for record in store]
    assert len(records) > 500
    assert all(interner.is_canonical(record.state) for record in records)
    assert all(
        interner.is_canonical(stored.message)
        for stored in run_pass.network.messages_since(0)
    )


def test_a_run_keeps_one_canonical_object_per_distinct_value(passes):
    result = _paxos2(4).run()
    assert result.completed and not result.bugs
    _assert_canonical(passes[-1])


def test_restored_and_extended_states_are_canonical(passes, tmp_path):
    path = str(tmp_path / "d4.json")
    _paxos2(4, checkpointer=Checkpointer(path)).run()
    payload = load_checkpoint(path)
    # A cold interner: every restored value is decoded to a new entry.
    hashing.configure_interning(False)
    hashing.configure_interning(True)
    result = _paxos2(5).extend_depth(payload)
    assert result.completed and not result.bugs
    _assert_canonical(passes[-1])


@pytest.mark.usefixtures("dispatch_every_round")
def test_two_worker_rounds_keep_canonical_states(passes):
    result = _paxos2(4, explore_workers=2).run()
    assert result.stats.explore_rounds_parallel > 0
    _assert_canonical(passes[-1])


def test_a_second_identical_run_adds_no_entries(passes):
    """The online loop's shape: each restart meets the values of the last."""
    first = _paxos2(4).run()
    before = hashing.intern_stats()
    second = _paxos2(4).run()
    after = hashing.intern_stats()
    assert second.stats.snapshot()["node_states"] == first.stats.snapshot()["node_states"]
    assert after["entries"] == before["entries"]
    assert after["misses"] == before["misses"]


def _held(interner):
    """The entries that hold their canonical bytes."""
    return [entry for entry in interner._cons.values() if entry._encoded is not None]


def test_record_states_hold_no_bytes_and_reading_entries_keeps_none(passes):
    """Only a new value pays for its encoding, and only while something
    reads it: a record state is hashed top-level, so its entry keeps its
    digest but not its bytes; the values inside states keep
    theirs, which their parents' encodings read."""
    result = _paxos2(4).run()
    assert result.completed and not result.bugs
    interner = hashing._DEFAULT_INTERNER
    records = [record for store in passes[-1].space.stores.values() for record in store]
    entries = [interner._table[id(record.state)] for record in records]
    assert all(entry.value is record.state for entry, record in zip(entries, records))
    assert all(entry._encoded is None for entry in entries)
    assert all(entry.digest == record.hash for entry, record in zip(entries, records))
    held = _held(interner)
    assert 0 < len(held) < len(interner) / 2
    assert [encoded for _value, encoded in interner.entries()] == [
        hashing._walk(entry.value) for entry in interner._cons.values()
    ]
    assert _held(interner) == held


@pytest.mark.parametrize("workers", [0, 2])
@pytest.mark.usefixtures("dispatch_every_round")
def test_a_finished_pass_is_freed_by_reference_counting(monkeypatch, workers):
    """No reference cycle keeps a finished pass alive for the collector."""
    weak = []
    execute = checker_module._ExplorationPass.execute

    def execute_and_watch(run_pass):
        weak.append(weakref.ref(run_pass))
        return execute(run_pass)

    monkeypatch.setattr(checker_module._ExplorationPass, "execute", execute_and_watch)
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(2):
            assert _paxos2(3, explore_workers=workers).run().completed
        assert weak[0]() is None
    finally:
        if enabled:
            gc.enable()


# -- depth extension re-offers each deferred pair once -----------------------------


def _deferred_pairs(payload):
    data = payload["pass"]
    return sum(len(row["deferred"]) for row in data["network"]["messages"]) + sum(
        len(indexes)
        for sweep in CURSOR_SWEEPS
        for _key, indexes in data[f"{sweep.name}_deferred"]
    )


def test_an_extension_offers_each_deferred_pair_once(tmp_path, monkeypatch):
    """Every pair the d=4 bound deferred is gated once in the d=5 pass —
    the first time its lane is swept — and not again in later rounds."""
    path = str(tmp_path / "d4.json")
    _paxos2(4, checkpointer=Checkpointer(path)).run()
    payload = load_checkpoint(path)
    held = _deferred_pairs(payload)
    assert held > 1000
    reoffered = []
    offer = checker_module._ExplorationPass._offer

    def counting_offer(run_pass, gate, cursor, records, subject, indexes):
        if not isinstance(indexes, range):
            reoffered.append(len(indexes))
        return offer(run_pass, gate, cursor, records, subject, indexes)

    monkeypatch.setattr(checker_module._ExplorationPass, "_offer", counting_offer)
    extended = _paxos2(5).extend_depth(payload)
    assert sum(reoffered) == held
    monkeypatch.setattr(checker_module._ExplorationPass, "_offer", offer)
    cold = _paxos2(5).run()
    assert extended.stats.snapshot()["transitions"] == cold.stats.snapshot()["transitions"]
    assert extended.stats.snapshot()["node_states"] == cold.stats.snapshot()["node_states"]
