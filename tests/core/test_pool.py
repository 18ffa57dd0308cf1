"""Tests for the shared worker pool's lifecycle and its one protocol,
``map_ordered``: teardown of a broken pool, resizing, per-task timing and
pid tags, and the retry-once recovery.  A SIGKILLed worker under a real
checker run is ``test_explore_parallel_equivalence.TestPoolFailure``."""

import os
import signal
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

import repro.core.pool as pool
from repro.core.pool import map_ordered, shared_executor, shutdown_worker_pool


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
        """SIGKILL a pool worker; the next generation rebuilds the pool if it
        has to and still returns every result, from live workers."""
        shutdown_worker_pool()
        executor = shared_executor(2)
        victim = executor.submit(os.getpid).result()
        os.kill(victim, signal.SIGKILL)
        reports = map_ordered(2, _double, [(1,), (2,), (3,)])
        assert [result for result, _wall_s, _pid in reports] == [2, 4, 6]
        assert victim not in {pid for _result, _wall_s, pid in reports}

    def test_worker_count_change_rebuilds_a_healthy_pool(self):
        shutdown_worker_pool()
        two = shared_executor(2)
        assert shared_executor(2) is two  # persists across generations
        one = shared_executor(1)
        assert one is not two and pool._EXECUTOR_WORKERS == 1
        assert {pid for _r, _w, pid in map_ordered(1, _double, [(1,), (2,)])} == {
            one.submit(os.getpid).result()
        }
