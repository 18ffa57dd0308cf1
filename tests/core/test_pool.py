"""Tests for the forked children behind parallel frontier exploration:
``fork``/``collect``'s results, their failure modes, fork hygiene in the
child, and that no child outlives a test.  A child killed under a real
checker run is ``test_explore_parallel_equivalence.TestForkFailure``."""

import gc
import json
import os
import signal
import time

import pytest

import repro.core.pool as pool
from repro.cli import main
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.pool import ChildFailed, collect, fork, require_fork, shutdown_worker_pool
from repro.obs.emitter import JsonlEmitter
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator


def _unreaped_child():
    """The pid of a child that exited and was never reaped, else 0."""
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return 0
    return pid


def _has_children():
    """Whether this process has any child, running or exited, unreaped."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail any test that leaves a child running, unreaped, or in ``_LIVE``."""
    yield
    left = dict(pool._LIVE)
    children = _has_children()
    shutdown_worker_pool()
    assert not left and not children, "a test left a forked child behind"


def _fork_all(tasks):
    return [fork(task) for task in tasks]


class TestForkAndCollect:
    def test_results_from_child_pids(self):
        pids = _fork_all([lambda n=n: (n, os.getpid()) for n in range(3)])
        reports = [collect(pid) for pid in pids]
        assert [result for result, _wall_s in reports] == list(zip(range(3), pids))
        assert os.getpid() not in pids and len(set(pids)) == 3
        assert all(wall_s >= 0 for _result, wall_s in reports)
        assert not pool._LIVE and _unreaped_child() == 0

    def test_fork_returns_before_the_child_finishes(self):
        started = time.perf_counter()
        pid = fork(lambda: time.sleep(0.5) or "late")
        assert time.perf_counter() - started < 0.4
        assert pid in pool._LIVE
        assert collect(pid)[0] == "late"

    def test_children_are_collected_in_any_order(self):
        """The coordinator collects a child when its sweep first needs it,
        while a later-forked one may already be done or still running."""
        slow, fast = _fork_all([lambda: time.sleep(0.3) or "slow", lambda: "fast"])
        assert collect(fast)[0] == "fast"
        assert list(pool._LIVE) == [slow]
        assert collect(slow)[0] == "slow"
        assert not pool._LIVE

    def test_child_reads_the_parents_memory(self):
        """Nothing is shipped to a child: it sees the parent's objects."""
        table = {"answer": [42]}
        result, _wall_s = collect(fork(lambda: table["answer"][0]))
        assert result == 42

    @pytest.mark.parametrize(
        "task, status",
        [
            (lambda: os.kill(os.getpid(), signal.SIGKILL), -signal.SIGKILL),
            (lambda: 1 / 0, 1),
            (lambda: os._exit(3), 3),
        ],
        ids=["signal", "exception", "exit-code"],
    )
    def test_a_failed_child_raises_with_its_status(self, task, status):
        fine, failed = _fork_all([lambda: "fine", task])
        with pytest.raises(ChildFailed) as failure:
            collect(failed)
        assert failure.value.status == status
        assert list(pool._LIVE) == [fine]
        assert collect(fine)[0] == "fine"
        assert _unreaped_child() == 0

    def test_a_short_result_is_a_failure(self, monkeypatch):
        """A child that exits 0 but pipes back a cut pickle failed too."""
        dumps = pool.pickle.dumps
        monkeypatch.setattr(
            pool.pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-3]
        )
        with pytest.raises(ChildFailed) as failure:
            collect(fork(lambda: "short"))
        assert failure.value.status == 0
        assert not pool._LIVE

    def test_child_inherits_no_sigterm_handler_and_no_gc(self):
        """The checkpointer's cooperative SIGTERM handler must not run in a
        child: a SIGTERM ends it.  Cyclic GC is off there."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            pid = fork(
                lambda: (
                    signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
                    signal.getsignal(signal.SIGINT) == signal.SIG_DFL,
                    gc.isenabled(),
                )
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert collect(pid)[0] == (True, True, False)
        assert gc.isenabled()

    def test_an_interrupted_collect_leaves_shutdown_able_to_reap(self):
        """An exception in the parent while it waits (here a timer standing
        in for Ctrl-C) leaves every child in ``_LIVE``, so the caller's
        shutdown kills and reaps them."""

        def interrupt(_signum, _frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        started = time.perf_counter()
        pids = _fork_all([lambda: time.sleep(30), lambda: time.sleep(30)])
        try:
            with pytest.raises(KeyboardInterrupt):
                collect(pids[0])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert sorted(pool._LIVE) == sorted(pids)
        shutdown_worker_pool()
        assert time.perf_counter() - started < 10
        assert not pool._LIVE and _unreaped_child() == 0

    @pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs procfs")
    def test_a_failed_fork_leaks_no_pipe(self, monkeypatch):
        def no_fork():
            raise OSError("fork refused")

        before = len(os.listdir("/proc/self/fd"))
        monkeypatch.setattr(os, "fork", no_fork)
        with pytest.raises(OSError):
            fork(lambda: None)
        assert not pool._LIVE
        assert len(os.listdir("/proc/self/fd")) == before

    def test_shutdown_reaps_a_straggler(self):
        pid = os.fork()
        if pid == 0:
            time.sleep(30)
            os._exit(0)
        pool._LIVE[pid] = None
        shutdown_worker_pool()
        assert not pool._LIVE
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
        shutdown_worker_pool()  # idempotent


@pytest.mark.usefixtures("dispatch_every_round")
def test_a_buffered_trace_line_is_written_once(tmp_path):
    """A record still in a trace file's buffer when a round forks reaches
    the file exactly once: children exit without flushing it."""
    path = tmp_path / "trace.jsonl"
    with open(path, "w", encoding="utf-8") as handle:  # fully buffered
        emitter = JsonlEmitter(handle)
        emitter.event("before_fork", marker="only-once")
        result = LocalModelChecker(
            EagerCommitCoordinator(3, no_voters=(2,)),
            CommitValidity(),
            config=LMCConfig.optimized(explore_workers=2),
            emitter=emitter,
        ).run()
        emitter.close()
    assert result.stats.explore_rounds_parallel > 0
    lines = path.read_text(encoding="utf-8").splitlines()
    assert sum("only-once" in line for line in lines) == 1
    assert all(json.loads(line) for line in lines)


class TestPlatformGuard:
    """Without ``os.fork`` a worker count is refused up front, by name."""

    def test_checker_refuses_workers_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork")
        with pytest.raises(ValueError, match="explore_workers"):
            LocalModelChecker(
                EagerCommitCoordinator(3),
                CommitValidity(),
                config=LMCConfig.optimized(explore_workers=2),
            )
        # Serial exploration needs no fork; one worker is the coordinator.
        LocalModelChecker(EagerCommitCoordinator(3), CommitValidity()).run()
        require_fork(0)
        require_fork(1)

    def test_cli_exits_two_with_one_line(self, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        assert main(["check", "tree", "--explore-workers", "2", "--no-registry"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "--explore-workers" in lines[0]


@pytest.mark.usefixtures("dispatch_every_round")
def test_one_worker_is_the_coordinator_alone(monkeypatch):
    """``explore_workers=1`` counts the coordinator only: it forks nothing
    and runs no parallel round, so it costs what a serial run costs."""

    def no_fork():
        raise AssertionError("explore_workers=1 forked a child")

    monkeypatch.setattr(os, "fork", no_fork)
    protocol = EagerCommitCoordinator(3, no_voters=(2,))
    serial = LocalModelChecker(
        protocol, CommitValidity(), config=LMCConfig.optimized()
    ).run()
    one = LocalModelChecker(
        protocol, CommitValidity(), config=LMCConfig.optimized(explore_workers=1)
    ).run()
    assert one.found_bug and one.stats.explore_rounds_parallel == 0
    assert one.stats.explore_shards == 0
    assert one.stats.transitions == serial.stats.transitions
