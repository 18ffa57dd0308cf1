"""Parallel frontier exploration must be invisible in every result.

The PR's speculative round executor (docs/PERFORMANCE.md "Parallel frontier
exploration") precomputes handler results on pool workers and merges them by
replaying the exact serial sweep, so with ``explore_workers > 0`` every
counter, verdict, witness trace and stop reason must equal the serial run —
the same equivalence discipline ``test_cache_equivalence`` and
``test_fault_equivalence`` apply to the PR 3 caches and the PR 4 fault
scheduler.  The tests force tiny thresholds/shards so even small state
spaces exercise dispatch, sync-miss recovery and the merge path, on every
CLI workload and across the GEN, POR, symmetry and cap configurations, and a
SIGKILL test checks the broken-pool retry leaves verdicts intact.
"""

import inspect
import os
import pickle
import signal
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.explore_parallel as explore_parallel
import repro.core.pool as pool
from repro.cli import WORKLOADS
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.event_kinds import (
    CRASH,
    DELIVERY,
    DROP,
    DUPLICATE,
    EVENT_KINDS,
    INTERNAL,
    RESTART,
    attempt,
)
from repro.core.explore_parallel import (
    RoundSpeculator,
    SpecExec,
    _decode,
    explore_shard_task,
)
from repro.core.pool import BrokenProcessPool, shared_executor, shutdown_worker_pool
from repro.explore.budget import SearchBudget
from repro.model import events as events_module
from repro.model.events import event_hash, message_hashes
from repro.model.hashing import content_hash
from repro.model.types import CrashedState, Message
from repro.protocols.onepaxos import OnePaxosAgreement
from repro.protocols.onepaxos import scenarios as onepaxos_scenarios
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    CommitValidity,
    Decision,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
    VoteRequest,
)
from repro.replay import validate_bug

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
        reported inline, in the same order, with or without the pool."""
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
        through its orbit siblings; the pool must not change which."""
        protocol = EagerCommitCoordinator(4, no_voters=(2,))
        kw = dict(stop_on_first_bug=False, symmetry_reduction=True)
        serial = _run(protocol, CommitValidity(), **kw)
        parallel = _run(protocol, CommitValidity(), **kw, **PARALLEL)
        assert len(serial.bugs) == 52
        assert _observable(serial) == _observable(parallel)

    def test_a_biting_combination_cap_matches_serial(self):
        """On the §5.5 snapshot the cap changes how many combinations are
        examined, identically with and without the pool."""
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
        """LMC-GEN materialises every combination; the pool only feeds the
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


class TestPoolFailure:
    def teardown_method(self):
        shutdown_worker_pool()

    def test_killed_worker_mid_setup_still_matches_serial(self):
        """SIGKILL a pool worker; dispatch must recover (or fall back) with
        byte-identical results either way."""
        shutdown_worker_pool()
        executor = shared_executor(2)
        victim = executor.submit(os.getpid).result()
        os.kill(victim, signal.SIGKILL)
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        serial = _run(EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity())
        parallel = _run(protocol, CommitValidity(), **PARALLEL)
        assert _observable(serial) == _observable(parallel)
        assert parallel.found_bug
        replayed = validate_bug(protocol, parallel.first_bug(), CommitValidity())
        assert replayed.complete and replayed.violates

    def test_second_pool_failure_finishes_the_pass_serially(self, monkeypatch):
        """``map_ordered`` retries a broken generation once; the second
        ``BrokenProcessPool`` reaches the speculator, which switches itself
        off — the run still lands on the serial counters."""

        class AlwaysBroken:
            submits = 0

            def submit(self, *_args):
                AlwaysBroken.submits += 1
                raise BrokenProcessPool("a worker died")

        monkeypatch.setattr(pool, "shared_executor", lambda workers: AlwaysBroken())
        disabled = []
        begin_round = RoundSpeculator.begin_round

        def spy(speculator):
            begin_round(speculator)
            disabled.append(not speculator.enabled)

        monkeypatch.setattr(RoundSpeculator, "begin_round", spy)
        serial = _run(EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity())
        parallel = _run(
            EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity(), **PARALLEL
        )
        assert AlwaysBroken.submits == 2  # one generation, retried once, then off
        assert disabled and disabled[-1]
        assert parallel.stats.explore_rounds_parallel == 0
        assert _observable(serial) == _observable(parallel)


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
        """Protocol.execute dispatches the row's event, and the pool worker
        computes exactly what the coordinator computes inline on a miss."""
        protocol = TimeoutTwoPhaseCommit(3)
        state, message = self.SAMPLES[row]
        node = state.node
        report = explore_shard_task(
            f"table-test:{row.tag}",
            pickle.dumps(protocol),
            0,
            1,
            pickle.dumps(((0, message),) if message is not None else ()),
            [state],
            [(row.tag, 0, node, 0 if row.on_message else None)],
        )
        assert report[0] == "ok"
        shipped = _decode(report[1][0], report[2], report[3])
        if row.fan_out:
            payloads, outcomes = shipped
            assert payloads == tuple(protocol.enabled_actions(state)) and payloads
        else:
            payloads, outcomes = (message,), (shipped,)
        for payload, outcome in zip(payloads, outcomes):
            event = row.make_event(node, payload)
            assert isinstance(event, row.event_class) and event.node == node
            inline = attempt(protocol, state, event)
            assert isinstance(outcome, SpecExec), "samples are real transitions"
            assert outcome.result == inline
            assert outcome.new_hash == content_hash(inline.state)
            assert outcome.generated == message_hashes(inline.sends)
            assert outcome.ehash == event_hash(event)
