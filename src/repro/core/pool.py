"""Forked children for parallel frontier exploration.

Its one client, :mod:`repro.core.explore_parallel`, hands :func:`fork` one
zero-argument task per child shard and goes on with its own work.  The
child inherits the coordinator's whole memory copy-on-write — the checker's
records, the monotonic network, the protocol and the warm hash interner —
so nothing is shipped *to* it; it pipes back the task's pickled result and
exits.  :func:`collect` reads one child's result and reaps it, so its CPU
lands in the parent's ``RUSAGE_CHILDREN``.

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
from typing import Any, Callable, Dict, NoReturn, Optional, Tuple

#: Children forked and not yet reaped, with the read end of each one's
#: result pipe (``None`` once the parent took it over).  Empty between
#: rounds.
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
    """Refuse a worker count this platform cannot honour: every worker but
    the coordinator is a forked child, and some platforms have no
    ``os.fork``."""
    if resolve_workers(workers) > 1 and not hasattr(os, "fork"):
        raise ValueError(
            f"explore_workers={workers!r} needs os.fork, which this platform "
            "lacks; use explore_workers=0 or 1"
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


def fork(task: Callable[[], Any]) -> int:
    """Start ``task`` in a forked child and return the child's pid at once;
    :func:`collect` waits for its result."""
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        os.close(read_fd)
        _child(task, write_fd)
    os.close(write_fd)
    _LIVE[pid] = read_fd
    return pid


def collect(pid: int) -> Tuple[Any, float]:
    """Wait for child ``pid``, reap it and return ``(result, wall_s)``;
    ``wall_s`` is measured inside the child.  Raises :class:`ChildFailed`,
    with the child reaped, when it failed."""
    read_fd = _LIVE[pid]
    _LIVE[pid] = None
    with open(read_fd, "rb") as pipe:
        data = pipe.read()
    _, status = os.waitpid(pid, 0)
    del _LIVE[pid]
    status = os.waitstatus_to_exitcode(status)
    if status != 0:
        raise ChildFailed(status, "failed")
    try:
        return pickle.loads(data)
    except Exception as exc:  # noqa: BLE001 - any decode error is a failed child
        raise ChildFailed(status, "piped back a short or undecodable result") from exc


def shutdown_worker_pool() -> None:
    """Kill and reap any child still live (idempotent).

    A normal round collects every child it forked, so this finds none
    then; it is what a failed or interrupted round, a pass that stops
    mid-round, and a caller that wants to be sure no child outlives it,
    run.
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
