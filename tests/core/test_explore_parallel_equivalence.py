"""Parallel frontier exploration must be invisible in every result.

The speculative round executor (docs/PERFORMANCE.md "Parallel frontier
exploration") precomputes handler results in forked children and merges
them by replaying the exact serial sweep, so with ``explore_workers > 0``
every counter, verdict, witness trace and stop reason must equal the serial
run — the same equivalence discipline ``test_cache_equivalence`` and
``test_fault_equivalence`` apply to the hashing caches and the fault
scheduler.  The tests force tiny thresholds/shards so even small state
spaces exercise the fork and the merge path, on every CLI workload and
across the GEN, POR, symmetry and cap configurations, and a SIGKILL test
checks a failed child leaves verdicts intact.
"""

import inspect
import os
import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.explore_parallel as explore_parallel
import repro.core.pool as pool
from repro.cli import WORKLOADS
from repro.core.checker import LocalModelChecker, _ExplorationPass
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
from repro.model.hashing import content_hash, content_size
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
from tests.core.test_pool import _unreaped_child

#: Phase timers are wall-clock; the explore_* counters exist only so the
#: parallel run can prove it actually went parallel.  Everything else must
#: match the serial run exactly.
EXCLUDED_KEYS = ("phase_", "explore_")

PARALLEL = dict(explore_workers=2)
pytestmark = pytest.mark.usefixtures("dispatch_every_round")


def _observable(result):
    counts = {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith(EXCLUDED_KEYS)
    }
    return {
        "counts": counts,
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": [bug.description for bug in result.bugs],
        "traces": [bug.trace_lines() for bug in result.bugs],
    }


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


    @pytest.mark.parametrize("buggy", [False, True])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_verdict_matches_serial_on_every_cli_workload(self, workload, buggy):
        """Every invariant kind the CLI can select — decomposable, general
        and node-local — gets the serial verdict, and every bug replays."""
        protocol, invariant = WORKLOADS[workload][0](3, buggy)
        budget = SearchBudget(max_transitions=300)
        serial = _run(protocol, invariant, budget=budget)
        parallel = _run(protocol, invariant, budget=budget, **PARALLEL)
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
        examined, identically with and without speculation."""
        budget = SearchBudget(max_transitions=520)
        examined = {}
        for cap in (None, 4):
            kw = dict(stop_on_first_bug=False, max_combinations_per_check=cap)
            serial = _run(
                scenario_protocol(buggy=True),
                PaxosAgreement(0),
                budget=budget,
                initial=partial_choice_state(),
                **kw,
            )
            parallel = _run(
                scenario_protocol(buggy=True),
                PaxosAgreement(0),
                budget=budget,
                initial=partial_choice_state(),
                **kw,
                **PARALLEL,
            )
            assert _observable(serial) == _observable(parallel), cap
            examined[cap] = serial.stats.soundness_sequences
        assert examined[4] < examined[None]  # the cap really bit

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

    @pytest.mark.parametrize("workers", [0, 2])
    def test_clean_tree_rejects_every_violation(self, workers):
        result = _run(TreeProtocol(), ReceivedImpliesSent(), explore_workers=workers)
        assert result.completed
        assert not result.found_bug
        assert result.stats.soundness_calls > 0
        assert (result.stats.explore_rounds_parallel > 0) == (workers > 0)


class TestForkFailure:
    """A failed speculation child costs speed only: its round runs inline,
    speculation stays off for the rest of the pass, and no child is left
    behind."""

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
        fallbacks = [r for r in emitter.records if r.get("name") == "parallel_fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["fields"]["status"] == -signal.SIGKILL
        assert _unreaped_child() == 0

    def test_no_child_outlives_a_run(self):
        result = _run(EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity(), **PARALLEL)
        assert result.stats.explore_rounds_parallel > 0
        assert _unreaped_child() == 0
        assert not pool._LIVE


class TestEventKindTable:
    """The table both executors read (repro.core.event_kinds.EVENT_KINDS)."""

    def test_every_event_class_has_exactly_one_row(self):
        defined = sorted(
            name
            for name, cls in inspect.getmembers(events_module, inspect.isclass)
            if cls.__module__ == events_module.__name__
        )
        assert sorted(row.event_class.__name__ for row in EVENT_KINDS) == defined

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
    def test_worker_outcome_equals_coordinator_miss_path(self, row):
        """Protocol.execute dispatches the row's event, and what a forked
        round's child computes, adopted by the coordinator, is exactly what
        the kernel computes inline on a miss."""
        protocol = TimeoutTwoPhaseCommit(3)
        checker = LocalModelChecker(protocol, Atomicity(), config=LMCConfig(explore_workers=1))
        pass_ = _ExplorationPass(
            checker, protocol.initial_system_state(), BudgetClock(checker.budget), None
        )
        speculator = pass_._speculator
        state, message = self.SAMPLES[row]
        node = state.node
        record = NodeStateRecord(node, state, content_hash(state), 0, 0, 0, frozenset())
        subject = (
            StoredMessage(message, content_hash(message), 0) if row.on_message else None
        )
        (_report, _wall_s, pid), = speculator._dispatch([[(row, record, subject)]])
        assert pid != os.getpid()
        packed = speculator.lookup(row, record, subject)
        if row.fan_out:
            payloads = tuple(protocol.enabled_actions(state))
            assert payloads and len(packed) == len(payloads)
        else:
            payloads, packed = (subject,), (packed,)
        for payload, shipped in zip(payloads, packed):
            adopted = speculator.adopt(row, record, payload, shipped)
            inline = execute(protocol, row, record, payload)
            assert isinstance(inline, Transition), "samples are real transitions"
            assert isinstance(adopted.event, row.event_class) and adopted.event.node == node
            assert adopted.speculated and not inline.speculated
            for field in Transition.__slots__[:-1]:
                assert getattr(adopted, field) == getattr(inline, field), field
            assert adopted.state_hash == content_hash(inline.state)
            assert adopted.state_size == content_size(inline.state)
            assert adopted.event_hash == event_hash(adopted.event)
            assert tuple(h for h, _ in adopted.send_info) == message_hashes(inline.sends)
