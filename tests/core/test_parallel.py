"""Tests for the parallel local model checker."""

import os
import signal

import pytest

import repro.core.pool as pool
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.parallel import (
    ParallelLocalModelChecker,
    shutdown_verification_pool,
    verify_unit,
)
from repro.core.pool import shared_executor, shutdown_worker_pool
from repro.core.soundness import replay_sequences_indexed
from repro.explore.budget import SearchBudget
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
        verdict = verify_unit(unit, max_combinations=None)
        assert verdict is not None
        chosen, order = verdict
        assert chosen[0] == 1  # only the generating candidate works
        assert len(order) == 2

    def test_verify_unit_cap(self):
        unit = {0: [((5, ()),)] * 4, 1: [((6, ()),)] * 4}
        assert verify_unit(unit, max_combinations=3) is None


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

    def test_agrees_with_sequential_on_2pc_bug(self):
        protocol = EagerCommitCoordinator(3, no_voters=(2,))
        sequential = LocalModelChecker(protocol, CommitValidity()).run()
        parallel = ParallelLocalModelChecker(
            protocol, CommitValidity(), workers=0
        ).run()
        assert sequential.found_bug and parallel.found_bug

    def test_collection_is_deduplicated_and_capped(self):
        protocol = scenario_protocol(buggy=True)
        config = LMCConfig.optimized(max_collected_preliminary=10)
        result = ParallelLocalModelChecker(
            protocol,
            PaxosAgreement(0),
            budget=SearchBudget(max_seconds=5.0),
            config=config,
            workers=0,
        ).run(partial_choice_state())
        assert result.stats.soundness_calls <= 10

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

    def test_deprecated_alias_still_works(self, monkeypatch):
        """`shutdown_verification_pool` forwards to the shared-pool teardown."""
        stub = _RaisingExecutor()
        monkeypatch.setattr(pool, "_EXECUTOR", stub)
        monkeypatch.setattr(pool, "_EXECUTOR_WORKERS", 2)
        shutdown_verification_pool(broken=True)
        assert pool._EXECUTOR is None
        assert stub.calls == [{"wait": False, "cancel_futures": True}]

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
