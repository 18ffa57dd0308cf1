"""Forked children for parallel frontier exploration.

Its one client, :mod:`repro.core.explore_parallel`, hands :func:`fork_map`
one zero-argument task per shard.  Each task runs in a child forked for it:
the child inherits the coordinator's whole memory copy-on-write — the
checker's records, the monotonic network, the protocol and the warm hash
interner — so nothing is shipped *to* it; it pipes back the task's pickled
result and exits.  Every child is reaped before :func:`fork_map` returns, so
its CPU lands in the parent's ``RUSAGE_CHILDREN``.

This module also owns the one place a worker count of ``None`` becomes
``os.cpu_count()`` (:func:`resolve_workers`) and the platform guard
(:func:`require_fork`).
"""

from __future__ import annotations

import gc
import os
import pickle
import signal
import time
import traceback
from typing import Any, Callable, Dict, List, NoReturn, Optional, Sequence, Tuple

#: Children forked and not yet reaped, with the read end of each one's
#: result pipe (``None`` once the parent took it over).  Empty between
#: :func:`fork_map` calls.
_LIVE: Dict[int, Optional[int]] = {}


class ChildFailed(Exception):
    """A child exited non-zero, died by a signal, or piped back a short or
    undecodable result.  ``status`` is the child's exit code (negative: the
    signal that killed it)."""

    def __init__(self, status: int, detail: str):
        super().__init__(f"speculation child {detail} (exit status {status})")
        self.status = status


def resolve_workers(requested: Optional[int]) -> int:
    """A configured worker count as a number: ``None`` means every CPU."""
    return (os.cpu_count() or 1) if requested is None else requested


def require_fork(workers: Optional[int]) -> None:
    """Refuse a worker count this platform cannot honour: speculation
    children are forked, and some platforms have no ``os.fork``."""
    if resolve_workers(workers) > 0 and not hasattr(os, "fork"):
        raise ValueError(
            f"explore_workers={workers!r} needs os.fork, which this platform "
            "lacks; use explore_workers=0"
        )


def _child(task: Callable[[], Any], write_fd: int) -> NoReturn:
    """The forked child's whole life: run ``task``, pipe back
    ``(result, wall seconds)``, exit without running the parent's exit
    handlers or flushing its inherited buffers."""
    code = 1
    try:
        # The parent's cooperative handlers (the Checkpointer's SIGTERM
        # flag) mean nothing here: a signal ends the child.
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        # The child allocates little and lives one round; a collection
        # would only touch (and copy) the parent's pages.
        gc.disable()
        started = time.perf_counter()
        result = task()
        payload = pickle.dumps(
            (result, time.perf_counter() - started), pickle.HIGHEST_PROTOCOL
        )
        with open(write_fd, "wb") as pipe:
            pipe.write(payload)
        code = 0
    except Exception:  # noqa: BLE001 - reported here; the exit status tells the parent
        traceback.print_exc()
    finally:
        os._exit(code)


def _collect(pid: int) -> Tuple[bytes, int]:
    """Read child ``pid``'s whole result, then reap it: ``(bytes, status)``."""
    read_fd = _LIVE[pid]
    _LIVE[pid] = None
    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del _LIVE[pid]
    return data, os.waitstatus_to_exitcode(status)


def fork_map(tasks: Sequence[Callable[[], Any]]) -> List[Tuple[Any, float, int]]:
    """Run every task at once, each in its own forked child.

    Returns ``(result, wall_s, pid)`` per task, in task order; ``wall_s`` is
    measured inside the child.  Raises :class:`ChildFailed`, with every
    child already reaped, when any child fails.  Any exception in the parent
    (an interrupt) kills and reaps the children before it propagates.
    """
    pids: List[int] = []
    try:
        for task in tasks:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if pid == 0:
                os.close(read_fd)
                _child(task, write_fd)
            os.close(write_fd)
            _LIVE[pid] = read_fd
            pids.append(pid)
        collected = [_collect(pid) for pid in pids]
    finally:
        shutdown_worker_pool()
    reports = []
    for pid, (data, status) in zip(pids, collected):
        if status != 0:
            raise ChildFailed(status, "failed")
        try:
            result, wall_s = pickle.loads(data)
        except Exception as exc:  # noqa: BLE001 - any decode error is a failed child
            raise ChildFailed(status, "piped back a short or undecodable result") from exc
        reports.append((result, wall_s, pid))
    return reports


def shutdown_worker_pool() -> None:
    """Kill and reap any child still live (idempotent).

    :func:`fork_map` reaps its children before it returns, so this finds
    none after a normal round; it is what an interrupted round, and a
    caller that wants to be sure no child outlives it, run.
    """
    while _LIVE:
        pid, read_fd = _LIVE.popitem()
        if read_fd is not None:
            os.close(read_fd)
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:
            pass
