"""Parallel frontier exploration must be invisible in every result.

The speculative round executor (docs/PERFORMANCE.md "Parallel frontier
exploration") works the first shard of each round in the coordinator,
precomputes the others' handler results in forked children and merges
them by replaying the exact serial sweep, so with ``explore_workers > 1``
every counter, verdict, witness trace and stop reason must equal the serial
run — the same equivalence discipline ``test_cache_equivalence`` and
``test_fault_equivalence`` apply to the hashing caches and the fault
scheduler.  The tests force tiny thresholds/shards so even small state
spaces exercise the fork and the merge path, on every CLI workload and
across the GEN, POR, symmetry and cap configurations; SIGKILL tests check a
failed child leaves verdicts intact, and every exit from a pass leaves no
child behind.
"""

import inspect
import os
import signal
import time
from dataclasses import replace
from functools import partial
from itertools import repeat
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.explore_parallel as explore_parallel
import repro.core.pool as pool
import repro.core.soundness as soundness
from repro.cli import WORKLOADS
from repro.core.checker import LocalModelChecker, _ExplorationPass
from repro.core.checkpoint import Checkpointer
from repro.core.config import LMCConfig
from repro.core.event_kinds import (
    CRASH,
    DELIVERY,
    DROP,
    DUPLICATE,
    EVENT_KINDS,
    INTERNAL,
    RESTART,
    Transition,
    execute,
)
from repro.core.explore_parallel import RoundSpeculator
from repro.core.records import NodeStateRecord
from repro.explore.budget import BudgetClock, SearchBudget
from repro.model import events as events_module
from repro.model.events import event_hash, message_hashes
from repro.model.hashing import content_hash
from repro.model.types import CrashedState, Message
from repro.network.monotonic import StoredMessage
from repro.obs.emitter import MemoryEmitter
from repro.protocols.onepaxos import OnePaxosAgreement
from repro.protocols.onepaxos import scenarios as onepaxos_scenarios
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    Decision,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
    VoteRequest,
)
from repro.replay import validate_bug
from tests.core.equivalence import observable
from tests.core.test_pool import _unreaped_child, no_child_left_behind  # noqa: F401

#: Phase timers are wall-clock; the explore_* counters exist only so the
#: parallel run can prove it actually went parallel.  Everything else must
#: match the serial run exactly.
_observable = partial(observable, prefixes=("phase_", "explore_"))

PARALLEL = dict(explore_workers=2)
pytestmark = pytest.mark.usefixtures("dispatch_every_round")


def _run(protocol, invariant, budget=None, initial=None, **config_kw):
    checker = LocalModelChecker(
        protocol,
        invariant,
        budget=budget or SearchBudget.unbounded(),
        config=LMCConfig.optimized(**config_kw),
    )
    return checker.run(initial)


class TestEquivalence:
    @settings(max_examples=5, deadline=None)
    @given(no_voter=st.sampled_from([None, 0, 1, 2]))
    def test_2pc_matches_serial(self, no_voter):
        voters = (no_voter,) if no_voter is not None else ()
        serial = _run(EagerCommitCoordinator(3, no_voters=voters), CommitValidity())
        parallel = _run(
            EagerCommitCoordinator(3, no_voters=voters), CommitValidity(), **PARALLEL
        )
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0

    @settings(max_examples=4, deadline=None)
    @given(depth=st.integers(min_value=3, max_value=6))
    def test_depth_bounded_paxos_matches_serial(self, depth):
        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        budget = SearchBudget(max_depth=depth)
        serial = _run(protocol, PaxosAgreement(0), budget=budget)
        parallel = _run(protocol, PaxosAgreement(0), budget=budget, **PARALLEL)
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0

    @settings(max_examples=3, deadline=None)
    @given(max_crashes=st.integers(min_value=0, max_value=2))
    def test_faulty_paxos_matches_serial(self, max_crashes):
        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        budget = SearchBudget(max_depth=5)
        faults = dict(fault_events_enabled=True, max_total_crashes=max_crashes)
        serial = _run(protocol, PaxosAgreement(0), budget=budget, **faults)
        parallel = _run(
            protocol, PaxosAgreement(0), budget=budget, **faults, **PARALLEL
        )
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0

    def test_buggy_scenario_bug_and_witness_match(self):
        serial = _run(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            initial=partial_choice_state(),
        )
        parallel = _run(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            initial=partial_choice_state(),
            **PARALLEL,
        )
        assert serial.found_bug and parallel.found_bug
        assert _observable(serial) == _observable(parallel)
        replayed = validate_bug(
            scenario_protocol(buggy=True), parallel.first_bug(), PaxosAgreement(0)
        )
        assert replayed.complete and replayed.violates

    def test_round_threshold_keeps_small_runs_serial(self, monkeypatch):
        monkeypatch.setattr(explore_parallel, "ROUND_THRESHOLD", 10_000)
        result = _run(EagerCommitCoordinator(3), CommitValidity(), **PARALLEL)
        assert result.completed
        assert result.stats.explore_rounds_parallel == 0
        assert result.stats.explore_shards == 0


    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("buggy", [False, True])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_verdict_matches_serial_on_every_cli_workload(
        self, workload, buggy, workers
    ):
        """Every invariant kind the CLI can select — decomposable, general
        and node-local — gets the serial verdict, and every bug replays.
        Three workers collect one child while the other may still run."""
        protocol, invariant = WORKLOADS[workload][0](3, buggy)
        budget = SearchBudget(max_transitions=300)
        serial = _run(protocol, invariant, budget=budget)
        parallel = _run(protocol, invariant, budget=budget, explore_workers=workers)
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0
        for bug in parallel.bugs:
            replayed = validate_bug(protocol, bug, invariant)
            assert replayed.complete and replayed.violates

    def test_every_bug_of_an_exhaustive_run_matches_serial(self):
        """With every bug wanted, pairwise OPT enumeration reaches some
        violating states more than once; each occurrence is verified and
        reported inline, in the same order, with or without speculation."""
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        serial = _run(protocol, CommitValidity(), stop_on_first_bug=False)
        parallel = _run(protocol, CommitValidity(), stop_on_first_bug=False, **PARALLEL)
        assert len({bug.violating_state for bug in serial.bugs}) < len(serial.bugs)
        assert _observable(serial) == _observable(parallel)

    def test_local_event_bound_widens_as_in_the_serial_checker(self):
        protocol, invariant = WORKLOADS["2pc"][0](3, False)
        unbounded = _run(protocol, invariant)
        serial = _run(protocol, invariant, local_event_bound=1)
        assert serial.stats.transitions > unbounded.stats.transitions  # it widened
        parallel = _run(protocol, invariant, local_event_bound=1, **PARALLEL)
        assert _observable(serial) == _observable(parallel)

    def test_symmetry_orbit_fallback_matches_serial(self):
        """Under symmetry reduction a rejected representative is retried
        through its orbit siblings; speculation must not change which."""
        protocol = EagerCommitCoordinator(4, no_voters=(2,))
        kw = dict(stop_on_first_bug=False, symmetry_reduction=True)
        serial = _run(protocol, CommitValidity(), **kw)
        parallel = _run(protocol, CommitValidity(), **kw, **PARALLEL)
        assert len(serial.bugs) == 52
        assert _observable(serial) == _observable(parallel)

    def test_a_biting_combination_cap_matches_serial(self):
        """On the §5.5 snapshot the cap changes how many combinations are
        examined, identically with and without speculation.  The shipped
        cap, 8192, is above every call's product there (64 at most)."""
        budget = SearchBudget(max_transitions=520)
        examined = {}
        for cap in (8192, 4):
            with mock.patch.object(soundness, "MAX_COMBINATIONS_PER_CHECK", cap):
                serial = _run(
                    scenario_protocol(buggy=True),
                    PaxosAgreement(0),
                    budget=budget,
                    initial=partial_choice_state(),
                    stop_on_first_bug=False,
                )
                parallel = _run(
                    scenario_protocol(buggy=True),
                    PaxosAgreement(0),
                    budget=budget,
                    initial=partial_choice_state(),
                    stop_on_first_bug=False,
                    **PARALLEL,
                )
            assert _observable(serial) == _observable(parallel), cap
            examined[cap] = serial.stats.soundness_sequences
        assert examined[4] < examined[8192]  # the cap really bit

    def test_onepaxos_snapshot_bug_and_witness_match(self):
        """The §5.6 1Paxos snapshot: the other protocol whose bug the paper
        finds from a live-system state."""
        protocol = onepaxos_scenarios.scenario_protocol(buggy=True)
        initial = onepaxos_scenarios.post_leaderchange_state(protocol)
        serial = _run(protocol, OnePaxosAgreement(0), initial=initial)
        parallel = _run(protocol, OnePaxosAgreement(0), initial=initial, **PARALLEL)
        assert serial.found_bug
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0

    def test_general_enumeration_matches_serial(self):
        """LMC-GEN materialises every combination; speculation only feeds the
        node-local half, so its counters match too."""
        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))

        def run(**kw):
            return LocalModelChecker(
                protocol,
                PaxosAgreement(0),
                budget=SearchBudget(max_depth=4),
                config=LMCConfig.general(**kw),
            ).run()

        serial, parallel = run(), run(**PARALLEL)
        assert serial.stats.system_states_created > 0
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0

    def test_por_pruning_matches_serial(self):
        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        budget = SearchBudget(max_depth=6)
        serial = _run(protocol, PaxosAgreement(0), budget=budget, por_pruning=True)
        parallel = _run(
            protocol, PaxosAgreement(0), budget=budget, por_pruning=True, **PARALLEL
        )
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel > 0

    @pytest.mark.parametrize("workers", [0, 1, 2, 3])
    def test_clean_tree_rejects_every_violation(self, workers):
        result = _run(TreeProtocol(), ReceivedImpliesSent(), explore_workers=workers)
        assert result.completed
        assert not result.found_bug
        assert result.stats.soundness_calls > 0
        assert (result.stats.explore_rounds_parallel > 0) == (workers > 1)


class TestForkFailure:
    """A failed speculation child costs speed only: the rest of its round
    runs inline, speculation stays off for the rest of the pass, and no
    child is left behind — whichever way the pass ends."""

    @staticmethod
    def _fallbacks(emitter):
        return [r for r in emitter.records if r.get("name") == "parallel_fallback"]

    def test_killed_child_still_matches_serial(self, monkeypatch):
        """SIGKILL the children of the second parallel round: the pass must
        fall back to the inline kernel and land on the serial results."""
        speculate = RoundSpeculator._speculate

        def doomed(speculator, shard):
            if speculator._round_no >= 1:  # read in the child: round 2 on
                os.kill(os.getpid(), signal.SIGKILL)
            return speculate(speculator, shard)

        monkeypatch.setattr(RoundSpeculator, "_speculate", doomed)
        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        budget = SearchBudget(max_depth=6)
        serial = _run(protocol, PaxosAgreement(0), budget=budget)
        emitter = MemoryEmitter()
        parallel = LocalModelChecker(
            protocol,
            PaxosAgreement(0),
            budget=budget,
            config=LMCConfig.optimized(**PARALLEL),
            emitter=emitter,
        ).run()
        assert _observable(serial) == _observable(parallel)
        assert parallel.stats.explore_rounds_parallel == 1
        fallbacks = self._fallbacks(emitter)
        assert len(fallbacks) == 1
        assert fallbacks[0]["fields"]["status"] == -signal.SIGKILL
        assert _unreaped_child() == 0

    def test_child_dies_while_the_coordinator_works_its_shard(self, monkeypatch):
        """The child of the sixth parallel round (382 items in the
        coordinator's own shard) is killed after the coordinator has run 200
        of them: the results are serial, and the failed round is left out
        of every ``explore_*`` counter — they equal a run whose speculation
        stops at that round, although the coordinator's items had already
        met merge conflicts.  The child blocks before it speculates, so the
        kill always lands on a live child; the block is bounded, so a kill
        that never comes fails the test instead of hanging it."""
        protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        budget = SearchBudget(max_depth=6)
        begin_round, adopt = RoundSpeculator.begin_round, RoundSpeculator.adopt
        speculate = RoundSpeculator._speculate

        def stop_before_round_six(speculator):
            if speculator._round_no == 5:
                speculator.enabled = False
            begin_round(speculator)

        monkeypatch.setattr(RoundSpeculator, "begin_round", stop_before_round_six)
        reference = _run(protocol, PaxosAgreement(0), budget=budget, **PARALLEL)
        monkeypatch.setattr(RoundSpeculator, "begin_round", begin_round)

        own_items_run = []
        conflicts_at_death = []

        def kill_mid_shard(speculator, row, record, subject, packed):
            outcome = adopt(speculator, row, record, subject, packed)
            if packed is explore_parallel.INLINE and speculator._round_no == 6:
                own_items_run.append(record)
                if len(own_items_run) == 200:
                    stats = speculator._pass.stats
                    conflicts_at_death.append(
                        stats.explore_merge_conflicts_suppressed
                        - speculator._conflicts_before
                    )
                    for pid in pool._LIVE:
                        os.kill(pid, signal.SIGKILL)
            return outcome

        def block_round_six(speculator, shard):
            if speculator._round_no == 5:  # read in the child: round 6
                time.sleep(60)
            return speculate(speculator, shard)

        monkeypatch.setattr(RoundSpeculator, "adopt", kill_mid_shard)
        monkeypatch.setattr(RoundSpeculator, "_speculate", block_round_six)
        serial = _run(protocol, PaxosAgreement(0), budget=budget)
        emitter = MemoryEmitter()
        parallel = LocalModelChecker(
            protocol,
            PaxosAgreement(0),
            budget=budget,
            config=LMCConfig.optimized(**PARALLEL),
            emitter=emitter,
        ).run()
        assert _observable(serial) == _observable(parallel)
        assert len(own_items_run) > 200  # its shard went on after the death
        assert conflicts_at_death[0] > 0
        [fallback] = self._fallbacks(emitter)
        assert fallback["fields"]["status"] == -signal.SIGKILL
        stats, expected = parallel.stats, reference.stats
        assert stats.explore_rounds_parallel == expected.explore_rounds_parallel == 5
        assert stats.explore_shards == expected.explore_shards
        assert (
            stats.explore_merge_conflicts_suppressed
            == expected.explore_merge_conflicts_suppressed
        )

    @pytest.mark.parametrize("exit_path", ["first-bug", "max-transitions", "sigterm"])
    def test_no_child_outlives_a_run(self, exit_path, monkeypatch, tmp_path):
        """However the pass ends, every child is reaped: a stop mid-round
        kills the children the sweep has not collected yet."""
        killed = []
        shutdown = explore_parallel.shutdown_worker_pool

        def counting_shutdown():
            killed.append(len(pool._LIVE))
            shutdown()

        monkeypatch.setattr(explore_parallel, "shutdown_worker_pool", counting_shutdown)
        paxos = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
        checkpointer = None
        if exit_path == "first-bug":
            protocol, invariant = EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity()
            budget = SearchBudget.unbounded()
        elif exit_path == "max-transitions":
            protocol, invariant = paxos, PaxosAgreement(0)
            budget = SearchBudget(max_transitions=100)
        else:
            protocol, invariant = paxos, PaxosAgreement(0)
            budget = SearchBudget(max_depth=6)
            checkpointer = Checkpointer(str(tmp_path / "run.ckpt.json"))
            begin_round = RoundSpeculator.begin_round

            def sigterm_mid_round(speculator):
                begin_round(speculator)
                if speculator._round_no == 2:  # its child is running
                    os.kill(os.getpid(), signal.SIGTERM)

            monkeypatch.setattr(RoundSpeculator, "begin_round", sigterm_mid_round)
        result = LocalModelChecker(
            protocol,
            invariant,
            budget=budget,
            config=LMCConfig.optimized(explore_workers=3),
            checkpointer=checkpointer,
        ).run()
        assert result.stats.explore_rounds_parallel > 0
        assert not result.completed
        if exit_path == "sigterm":
            assert result.stop_reason == "interrupted (checkpoint written)"
            assert result.stats.explore_rounds_parallel == 2
        else:
            assert max(killed) > 0  # the exit killed a running child
        assert not pool._LIVE and _unreaped_child() == 0


class TestEventKindTable:
    """The table both executors read (repro.core.event_kinds.EVENT_KINDS)."""

    def test_every_event_class_has_exactly_one_row(self):
        types = list(events_module.EVENT_TYPES.values())
        assert [row.event_class for row in EVENT_KINDS] == types
        public = {cls for name, cls in inspect.getmembers(events_module, inspect.isclass)
                  if cls.__module__ == events_module.__name__ and not name.startswith("_")}
        assert set(types) == public

    def test_tags_are_unique(self):
        tags = [row.tag for row in EVENT_KINDS]
        assert len(set(tags)) == len(tags)

    #: One (node state, message) sample per row on the 2PC-with-timeouts
    #: space, which declares every optional hook a row's execute branch uses
    #: (durable_state, restart_state, handle_drop).
    VOTED = replace(
        TimeoutTwoPhaseCommit(3).initial_state(1), voted=True, my_vote=True
    )
    SAMPLES = {
        DELIVERY: (
            TimeoutTwoPhaseCommit(3).initial_state(1),
            Message(dest=1, src=0, payload=VoteRequest()),
        ),
        INTERNAL: (TimeoutTwoPhaseCommit(3).initial_state(0), None),
        CRASH: (replace(VOTED, decided=True), None),
        RESTART: (CrashedState(node=1, durable=True), None),
        DROP: (VOTED, Message(dest=1, src=0, payload=Decision(commit=True))),
        DUPLICATE: (VOTED, Message(dest=1, src=0, payload=Decision(commit=False))),
    }

    @pytest.mark.parametrize(
        "row", EVENT_KINDS, ids=lambda row: row.event_class.__name__
    )
    def test_worker_outcome_equals_coordinator_miss_path(self, row, monkeypatch):
        """Protocol.execute dispatches the row's event, and what a W=2
        round computes — in the coordinator's own shard or in its child,
        adopted by the coordinator — is exactly what the kernel computes
        inline on a miss."""
        protocol = TimeoutTwoPhaseCommit(3)
        emitter = MemoryEmitter()
        checker = LocalModelChecker(
            protocol, Atomicity(), config=LMCConfig(**PARALLEL), emitter=emitter
        )
        pass_ = _ExplorationPass(
            checker, protocol.initial_system_state(), BudgetClock(checker.budget), None
        )
        speculator = pass_._speculator
        state, message = self.SAMPLES[row]
        node = state.node
        # The same node state twice: the first item is the coordinator's
        # shard, the second its child's.
        own, forked = (
            NodeStateRecord(node, state, content_hash(state), index, 0, 0, 0)
            for index in (1, 0)
        )
        subject = (
            StoredMessage(message, content_hash(message), 0) if row.on_message else None
        )
        monkeypatch.setattr(
            speculator, "_snapshot", lambda: [(row, own, subject), (row, forked, subject)]
        )
        speculator.begin_round()
        assert speculator.lookup(row, own, subject) is explore_parallel.INLINE
        looked_up = speculator.lookup(row, forked, subject)
        speculator.end_round()
        [span] = [r for r in emitter.records if r.get("name") == "worker_explore"]
        assert span["pid"] != os.getpid() and span["fields"] == {"shard": 1, "items": 1}
        if row.fan_out:
            payloads = tuple(protocol.enabled_actions(state))
            assert payloads and len(looked_up) == len(payloads)
            shipped = zip(looked_up, repeat(explore_parallel.INLINE))
        else:
            payloads = (subject,)
            shipped = [(looked_up, explore_parallel.INLINE)]
        for payload, packs in zip(payloads, shipped):
            inline = execute(protocol, row, own, payload)
            assert isinstance(inline, Transition), "samples are real transitions"
            assert not inline.speculated
            for record, packed in zip((forked, own), packs):
                adopted = speculator.adopt(row, record, payload, packed)
                assert isinstance(adopted.event, row.event_class)
                assert adopted.event.node == node and adopted.speculated
                for field in Transition.__slots__[:-1]:
                    assert getattr(adopted, field) == getattr(inline, field), field
                assert adopted.state_hash == content_hash(inline.state)
                assert adopted.event_hash == event_hash(adopted.event)
                assert adopted.send_hashes == message_hashes(inline.sends)
