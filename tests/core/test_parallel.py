"""Tests for the parallel local model checker."""

import os
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.checker as checker_module
import repro.core.pool as pool
from repro.cli import WORKLOADS
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.parallel import (
    ParallelLocalModelChecker,
    audited_verify_unit,
    verify_unit,
)
from repro.core.pool import map_ordered, shared_executor, shutdown_worker_pool
from repro.core.soundness import replay_sequences_indexed
from repro.explore.budget import SearchBudget
from repro.obs.emitter import MemoryEmitter
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator
from repro.replay import validate_bug


class TestPlainReplay:
    def test_empty_unit_valid(self):
        assert replay_sequences_indexed({}) == ()

    def test_send_then_receive(self):
        sequences = {
            0: ((None, (7,)),),      # local event generating hash 7
            1: (((7), ()),),          # delivery consuming hash 7
        }
        # normalise: steps are (consumed, generated)
        sequences = {0: ((None, (7,)),), 1: ((7, ()),)}
        order = replay_sequences_indexed(sequences)
        assert order is not None
        assert order[0] == (0, 0)  # the send must run first

    def test_deadlock_detected(self):
        sequences = {0: ((1, (2,)),), 1: ((2, (1,)),)}
        assert replay_sequences_indexed(sequences) is None

    def test_verify_unit_picks_working_combination(self):
        unit = {
            0: [((5, ()),), ((None, (9,)),)],  # first candidate needs hash 5
            1: [((9, ()),)],
        }
        verdict, tried = verify_unit(unit, max_combinations=None)
        assert verdict is not None
        chosen, order = verdict
        assert chosen[0] == 1  # only the generating candidate works
        assert len(order) == 2
        assert tried == 2

    def test_verify_unit_cap(self):
        unit = {0: [((5, ()),)] * 4, 1: [((6, ()),)] * 4}
        assert verify_unit(unit, max_combinations=3) == (None, 3)

    def test_verify_unit_without_candidates_is_unsound_after_zero_tries(self):
        assert verify_unit({0: [()], 1: []}, max_combinations=None) == (None, 0)


class TestParallelChecker:
    @pytest.mark.parametrize("workers", [0, 2])
    def test_clean_tree_rejects_all(self, workers):
        result = ParallelLocalModelChecker(
            TreeProtocol(), ReceivedImpliesSent(), workers=workers
        ).run()
        assert result.completed
        assert not result.found_bug
        assert result.stats.soundness_calls > 0

    @pytest.mark.parametrize("workers", [0, 2])
    def test_buggy_scenario_confirmed(self, workers):
        protocol = scenario_protocol(buggy=True)
        result = ParallelLocalModelChecker(
            protocol,
            PaxosAgreement(0),
            budget=SearchBudget(max_seconds=10.0),
            config=LMCConfig.optimized(),
            workers=workers,
        ).run(partial_choice_state())
        assert result.found_bug
        replayed = validate_bug(protocol, result.first_bug(), PaxosAgreement(0))
        assert replayed.complete and replayed.violates

    def test_negative_worker_count_is_refused_at_construction(self):
        with pytest.raises(ValueError, match="workers"):
            ParallelLocalModelChecker(TreeProtocol(), ReceivedImpliesSent(), workers=-1)

    def test_agrees_with_sequential_on_2pc_bug(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        sequential = LocalModelChecker(protocol, CommitValidity()).run()
        parallel = ParallelLocalModelChecker(
            protocol, CommitValidity(), workers=0
        ).run()
        assert sequential.found_bug and parallel.found_bug

    def test_collection_is_deduplicated_and_a_small_buffer_loses_nothing(
        self, monkeypatch
    ):
        """Pairwise OPT enumeration reaches some full combinations through
        more than one conflicting pair.  The inline checker verifies — and
        reports — every occurrence; the deferred buffer keeps one.  Shrinking
        the buffer below the violation count only adds flushes."""
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        config = LMCConfig.optimized(stop_on_first_bug=False)

        def violating_states(result):
            return {bug.violating_state for bug in result.bugs}

        serial = LocalModelChecker(protocol, CommitValidity(), config=config).run()
        assert len(violating_states(serial)) < len(serial.bugs)  # duplicates exist

        def deferred():
            emitter = MemoryEmitter()
            result = ParallelLocalModelChecker(
                protocol, CommitValidity(), config=config, workers=0, emitter=emitter
            ).run()
            flushes = [
                r["fields"]["units"]
                for r in emitter.records
                if r.get("name") == "dispatch"
            ]
            return result, flushes

        one_flush, flushes = deferred()
        assert len(flushes) == 1
        assert len(one_flush.bugs) == len(violating_states(one_flush))
        assert one_flush.stats.soundness_calls < serial.stats.soundness_calls
        assert violating_states(one_flush) == violating_states(serial)

        monkeypatch.setattr(checker_module, "DEFERRED_BUFFER_LIMIT", 10)
        many_flushes, flushes = deferred()
        assert len(flushes) > 10 and max(flushes) == 10
        assert (
            many_flushes.stats.preliminary_violations
            == serial.stats.preliminary_violations
        )
        assert violating_states(many_flushes) == violating_states(serial)
        for bug in many_flushes.bugs:
            replayed = validate_bug(protocol, bug, CommitValidity())
            assert replayed.complete and replayed.violates

    @pytest.mark.parametrize("workers", [0, 2])
    def test_no_silent_truncation_on_the_s55_snapshot(self, workers):
        """8,448 preliminary violations against a 2,048-entry buffer: every
        one is verified, and the ten bugs the inline checker confirms are
        all reported (a capped collection used to drop 6,400 and four)."""
        protocol = scenario_protocol(buggy=True)
        budget = SearchBudget(max_transitions=760)
        config = LMCConfig.optimized(stop_on_first_bug=False)
        serial = LocalModelChecker(protocol, PaxosAgreement(0), budget, config).run(
            partial_choice_state()
        )
        pooled = ParallelLocalModelChecker(
            protocol, PaxosAgreement(0), budget, config, workers=workers
        ).run(partial_choice_state())
        assert (serial.stats.soundness_calls, len(serial.bugs)) == (8448, 10)
        for counter in ("soundness_calls", "soundness_sequences", "confirmed_bugs"):
            assert getattr(pooled.stats, counter) == getattr(serial.stats, counter)
        assert [bug.trace for bug in pooled.bugs] == [bug.trace for bug in serial.bugs]

    @pytest.mark.parametrize("workers", [0, 2])
    def test_workers_refute_by_the_record_level_bound(self, workers):
        """The pool applies the serial verifier's bound worker-side: on the
        s55@760 snapshot it refutes the same 8,388 of 8,448 units, and each
        refuted unit still counts its whole (capped) product."""
        protocol = scenario_protocol(buggy=True)
        budget = SearchBudget(max_transitions=760)
        config = LMCConfig.optimized(stop_on_first_bug=False)
        emitter = MemoryEmitter()
        pooled = ParallelLocalModelChecker(
            protocol, PaxosAgreement(0), budget, config, workers=workers, emitter=emitter
        ).run(partial_choice_state())
        units = [
            record["fields"]
            for record in emitter.records
            if record.get("name") == "worker_verify"
        ]
        assert len(units) == pooled.stats.soundness_calls == 8448
        refuted = [unit for unit in units if unit["bound_refuted"]]
        assert len(refuted) == 8388
        assert not any(unit["sound"] for unit in refuted)
        assert all(unit["combinations"] > 0 for unit in refuted)
        assert sum(unit["combinations"] for unit in units) == 134388

    def test_verify_unit_refutes_by_the_bound_and_counts_the_capped_product(self):
        # Node 0 needs hash 5 twice; node 1 offers at most one copy.
        unit = {0: [((5, ()), (5, ()))] * 3, 1: [((None, (5,)),), ()]}
        assert audited_verify_unit(unit, max_combinations=None) == (None, 6, True)
        assert audited_verify_unit(unit, max_combinations=4) == (None, 4, True)
        assert verify_unit(unit, max_combinations=4) == (None, 4)

    @pytest.mark.parametrize("buggy", [False, True])
    @pytest.mark.parametrize("workload", sorted(WORKLOADS))
    def test_verdict_matches_sequential_on_every_cli_workload(self, workload, buggy):
        """Every invariant kind the CLI can select — decomposable, general
        and node-local — is confirmed by the deferred checker too."""
        protocol, invariant = WORKLOADS[workload][0](3, buggy)
        budget = SearchBudget(max_transitions=300)
        serial = LocalModelChecker(
            protocol, invariant, budget, LMCConfig.optimized()
        ).run()
        deferred = ParallelLocalModelChecker(
            protocol, invariant, budget, LMCConfig.optimized(), workers=0
        ).run()
        assert deferred.found_bug == serial.found_bug
        for bug in serial.bugs + deferred.bugs:
            replayed = validate_bug(protocol, bug, invariant)
            assert replayed.complete and replayed.violates

    def test_local_event_bound_widens_as_in_the_sequential_checker(self):
        protocol, invariant = WORKLOADS["2pc"][0](3, False)
        config = LMCConfig.optimized(local_event_bound=1)
        serial = LocalModelChecker(protocol, invariant, config=config).run()
        unbounded = LocalModelChecker(protocol, invariant).run()
        assert serial.stats.transitions > unbounded.stats.transitions  # it widened
        deferred = ParallelLocalModelChecker(
            protocol, invariant, config=config, workers=0
        ).run()
        assert (deferred.completed, deferred.stop_reason, deferred.stats.transitions) == (
            serial.completed,
            serial.stop_reason,
            serial.stats.transitions,
        )

    def test_pooled_rejection_takes_the_orbit_fallback(self):
        """Under symmetry reduction a rejected representative is retried
        through its orbit siblings — by the helper both checkers share."""
        protocol = EagerCommitCoordinator(4, no_voters=(2,))
        config = LMCConfig.optimized(stop_on_first_bug=False, symmetry_reduction=True)
        serial = LocalModelChecker(protocol, CommitValidity(), config=config).run()
        deferred = ParallelLocalModelChecker(
            protocol, CommitValidity(), config=config, workers=0
        ).run()
        assert len(serial.bugs) == len(deferred.bugs) == 52
        assert {bug.violating_state for bug in deferred.bugs} == {
            bug.violating_state for bug in serial.bugs
        }

    def test_soundness_sequences_match_sequential(self):
        """Serial and pooled verification count the same combinations.

        On the §5.5 snapshot at this budget the deferred verification sees
        the same predecessor DAG as the inline one, so the counters must
        agree — including under a biting ``max_combinations_per_check``,
        where the pool used to count the over-cap combination too.
        """
        protocol = scenario_protocol(buggy=True)
        budget = SearchBudget(max_transitions=520)
        examined = {}
        for cap in (None, 4):
            config = LMCConfig.optimized(
                stop_on_first_bug=False, max_combinations_per_check=cap
            )
            serial = LocalModelChecker(
                protocol, PaxosAgreement(0), budget, config
            ).run(partial_choice_state())
            examined[cap] = serial.stats.soundness_sequences
            for workers in (0, 2):
                pooled = ParallelLocalModelChecker(
                    protocol, PaxosAgreement(0), budget, config, workers=workers
                ).run(partial_choice_state())
                for counter in ("soundness_calls", "soundness_sequences", "confirmed_bugs"):
                    assert getattr(pooled.stats, counter) == getattr(
                        serial.stats, counter
                    ), (cap, workers, counter)
        assert examined[4] < examined[None]  # the cap really bit

    def test_algorithm_label(self):
        checker = ParallelLocalModelChecker(
            TreeProtocol(), ReceivedImpliesSent(), workers=0
        )
        assert checker.algorithm == "LMC-parallel"
        assert checker.run().algorithm == "LMC-parallel"


class _RaisingExecutor:
    """Stand-in for a pool whose teardown itself fails (dying workers)."""

    def __init__(self):
        self.calls = []

    def shutdown(self, wait=True, cancel_futures=False):
        self.calls.append({"wait": wait, "cancel_futures": cancel_futures})
        raise RuntimeError("teardown raced a dying worker")


class _BrokenStubExecutor(_RaisingExecutor):
    """A pool that has already broken (as ProcessPoolExecutor marks itself)."""

    _broken = True


class _FlakyPool:
    """Replaces ``pool.shared_executor``: the first ``failures`` executors it
    hands out break on submit, later ones run the task in this process."""

    def __init__(self, failures):
        self.failures = failures
        self.handed_out = 0

    def __call__(self, workers):
        self.handed_out += 1
        return self

    def submit(self, fn, *args):
        if self.handed_out <= self.failures:
            raise BrokenProcessPool("a worker died")
        future = Future()
        future.set_result(fn(*args))
        return future


def _double(value):
    return 2 * value


class TestPoolRecovery:
    def teardown_method(self):
        shutdown_worker_pool()

    def test_broken_shutdown_swallows_teardown_errors(self, monkeypatch):
        """The BrokenProcessPool path must never raise out of teardown."""
        shutdown_worker_pool()
        stub = _RaisingExecutor()
        monkeypatch.setattr(pool, "_EXECUTOR", stub)
        monkeypatch.setattr(pool, "_EXECUTOR_WORKERS", 2)
        shutdown_worker_pool(broken=True)
        assert pool._EXECUTOR is None
        assert pool._EXECUTOR_WORKERS == 0
        # and it must not wait on dead workers or keep queued units alive
        assert stub.calls == [{"wait": False, "cancel_futures": True}]

    def test_clean_shutdown_still_waits(self, monkeypatch):
        shutdown_worker_pool()
        stub = _RaisingExecutor()
        monkeypatch.setattr(pool, "_EXECUTOR", stub)
        monkeypatch.setattr(pool, "_EXECUTOR_WORKERS", 2)
        with pytest.raises(RuntimeError):
            shutdown_worker_pool()
        assert stub.calls == [{"wait": True, "cancel_futures": False}]
        monkeypatch.setattr(pool, "_EXECUTOR", None)
        monkeypatch.setattr(pool, "_EXECUTOR_WORKERS", 0)

    def test_worker_count_change_tolerates_broken_pool(self, monkeypatch):
        """Resizing away from an already-broken pool must not wait on it.

        A clean resize waits for in-flight work; a broken pool has none and
        its teardown can raise — the rebuild must take the broken path.
        """
        stub = _BrokenStubExecutor()
        monkeypatch.setattr(pool, "_EXECUTOR", stub)
        monkeypatch.setattr(pool, "_EXECUTOR_WORKERS", 4)
        executor = shared_executor(2)
        try:
            assert executor is not stub
            assert stub.calls == [{"wait": False, "cancel_futures": True}]
            assert executor.submit(os.getpid).result() > 0
        finally:
            shutdown_worker_pool()

    def test_map_ordered_times_and_tags_each_task(self):
        in_process = map_ordered(0, _double, [(1,), (2,), (3,)])
        assert [result for result, _wall_s, _pid in in_process] == [2, 4, 6]
        assert {pid for _result, _wall_s, pid in in_process} == {os.getpid()}
        pooled = map_ordered(2, _double, [(1,), (2,), (3,)])
        assert [result for result, _wall_s, _pid in pooled] == [2, 4, 6]
        assert all(wall_s >= 0 for _result, wall_s, _pid in pooled)
        assert os.getpid() not in {pid for _result, _wall_s, pid in pooled}

    def test_map_ordered_retries_a_broken_generation_once(self, monkeypatch):
        flaky = _FlakyPool(failures=1)
        monkeypatch.setattr(pool, "shared_executor", flaky)
        reports = map_ordered(2, _double, [(1,), (2,)])
        assert [result for result, _wall_s, _pid in reports] == [2, 4]
        assert flaky.handed_out == 2

    def test_map_ordered_lets_the_second_failure_propagate(self, monkeypatch):
        flaky = _FlakyPool(failures=2)
        monkeypatch.setattr(pool, "shared_executor", flaky)
        with pytest.raises(BrokenProcessPool):
            map_ordered(2, _double, [(1,), (2,)])
        assert flaky.handed_out == 2  # not a third attempt

    def test_killed_worker_is_retried_to_completion(self):
        """SIGKILL a pool worker; the next run must rebuild and still confirm."""
        shutdown_worker_pool()
        executor = shared_executor(2)
        victim = executor.submit(os.getpid).result()
        os.kill(victim, signal.SIGKILL)
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        result = ParallelLocalModelChecker(
            protocol, CommitValidity(), workers=2
        ).run()
        assert result.found_bug
        replayed = validate_bug(protocol, result.first_bug(), CommitValidity())
        assert replayed.complete and replayed.violates
