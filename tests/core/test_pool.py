"""Tests for the forked children behind parallel frontier exploration:
``fork_map``'s results, its failure modes, fork hygiene in the child, and
that no child outlives a call.  A child killed under a real checker run is
``test_explore_parallel_equivalence.TestForkFailure``."""

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
from repro.core.pool import ChildFailed, fork_map, require_fork, shutdown_worker_pool
from repro.obs.emitter import JsonlEmitter
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator


def _unreaped_child():
    """The pid of a child that exited and was never reaped, else 0."""
    try:
        pid, _status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:  # no children at all
        return 0
    return pid


class TestForkMap:
    def test_results_in_order_from_child_pids(self):
        reports = fork_map([lambda n=n: (n, os.getpid()) for n in range(3)])
        assert [result[0] for result, _wall_s, _pid in reports] == [0, 1, 2]
        pids = [pid for _result, _wall_s, pid in reports]
        assert [result[1] for result, _wall_s, _pid in reports] == pids
        assert os.getpid() not in pids and len(set(pids)) == 3
        assert all(wall_s >= 0 for _result, wall_s, _pid in reports)
        assert not pool._LIVE and _unreaped_child() == 0

    def test_child_reads_the_parents_memory(self):
        """Nothing is shipped to a child: it sees the parent's objects."""
        table = {"answer": [42]}
        [(result, _wall_s, _pid)] = fork_map([lambda: table["answer"][0]])
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
        with pytest.raises(ChildFailed) as failure:
            fork_map([lambda: "fine", task])
        assert failure.value.status == status
        assert not pool._LIVE and _unreaped_child() == 0

    def test_a_short_result_is_a_failure(self, monkeypatch):
        """A child that exits 0 but pipes back a cut pickle failed too."""
        dumps = pool.pickle.dumps
        monkeypatch.setattr(
            pool.pickle, "dumps", lambda obj, protocol: dumps(obj, protocol)[:-3]
        )
        with pytest.raises(ChildFailed) as failure:
            fork_map([lambda: "short"])
        assert failure.value.status == 0

    def test_child_inherits_no_sigterm_handler_and_no_gc(self):
        """The checkpointer's cooperative SIGTERM handler must not run in a
        child: a SIGTERM ends it.  Cyclic GC is off there."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            [(result, _wall_s, _pid)] = fork_map(
                [
                    lambda: (
                        signal.getsignal(signal.SIGTERM) == signal.SIG_DFL,
                        signal.getsignal(signal.SIGINT) == signal.SIG_DFL,
                        gc.isenabled(),
                    )
                ]
            )
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert result == (True, True, False)
        assert gc.isenabled()

    def test_an_interrupt_kills_and_reaps_the_children(self):
        """An exception in the parent while it waits (here a timer standing
        in for Ctrl-C) must not leave a child running or unreaped."""

        def interrupt(_signum, _frame):
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGALRM, interrupt)
        signal.setitimer(signal.ITIMER_REAL, 0.2)
        started = time.perf_counter()
        try:
            with pytest.raises(KeyboardInterrupt):
                fork_map([lambda: time.sleep(30), lambda: time.sleep(30)])
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        assert time.perf_counter() - started < 10
        assert not pool._LIVE and _unreaped_child() == 0

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
        # Serial exploration needs no fork.
        LocalModelChecker(EagerCommitCoordinator(3), CommitValidity()).run()
        require_fork(0)

    def test_cli_exits_two_with_one_line(self, monkeypatch, capsys):
        monkeypatch.delattr(os, "fork")
        assert main(["check", "tree", "--explore-workers", "2", "--no-registry"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.strip().splitlines()
        assert len(lines) == 1 and "--explore-workers" in lines[0]
