"""The persistent worker process pool behind parallel frontier exploration.

Its one client, :mod:`repro.core.explore_parallel`, speaks one protocol,
:func:`map_ordered`: submit a generation of tasks, gather the results in
submission order, time each task and tag it with its pid on the worker
side, and survive one broken pool.  The pool persists across rounds and
runs, so the workers' start-up cost is paid once; this module owns the
pool's lifecycle, the :class:`BrokenProcessPool` recovery and the one place
a worker count of ``None`` becomes ``os.cpu_count()``
(:func:`resolve_workers`).

The pool is process-global and created lazily.  A worker-count change
rebuilds it; a rebuild of an *already broken* pool must not wait on its dead
workers (``shutdown(wait=True)`` can hang on a SIGKILLed worker), so the
rebuild path inspects the executor's broken flag and reuses the
``broken=True`` teardown in that case.
"""

from __future__ import annotations

import atexit
import os
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Tuple

_EXECUTOR: Optional[ProcessPoolExecutor] = None
_EXECUTOR_WORKERS = 0


def shared_executor(workers: int) -> ProcessPoolExecutor:
    """The process pool, created lazily and rebuilt on a worker-count change.

    When the existing pool is already broken (its ``_broken`` flag is set —
    a worker died since the last dispatch), the rebuild tears it down via the
    no-wait broken path instead of blocking on dead processes.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS
    if _EXECUTOR is not None and _EXECUTOR_WORKERS != workers:
        shutdown_worker_pool(broken=bool(getattr(_EXECUTOR, "_broken", False)))
    if _EXECUTOR is None:
        _EXECUTOR = ProcessPoolExecutor(max_workers=workers)
        _EXECUTOR_WORKERS = workers
    return _EXECUTOR


def shutdown_worker_pool(broken: bool = False) -> None:
    """Tear down the persistent pool (idempotent; re-created on next use).

    ``broken=True`` is the :class:`BrokenProcessPool` recovery path: the
    pool's workers are already dead or dying, so waiting on them can hang
    (and shutdown itself can raise mid-teardown), which would defeat the
    retry-once recovery in :func:`map_ordered`.  There we cancel what we can,
    don't wait, and swallow teardown errors — the pool object is dropped
    either way and the next use builds a fresh one.
    """
    global _EXECUTOR, _EXECUTOR_WORKERS
    if _EXECUTOR is not None:
        if broken:
            try:
                _EXECUTOR.shutdown(wait=False, cancel_futures=True)
            except Exception:  # noqa: BLE001 - best-effort teardown of a dead pool
                pass
        else:
            _EXECUTOR.shutdown(wait=True)
        _EXECUTOR = None
        _EXECUTOR_WORKERS = 0


atexit.register(shutdown_worker_pool)


def resolve_workers(requested: Optional[int]) -> int:
    """A configured worker count as a number: ``None`` means every CPU."""
    return (os.cpu_count() or 1) if requested is None else requested


def _timed(task: Callable[..., Any], arguments: Tuple) -> Tuple[Any, float, int]:
    """Run one task where it was sent: ``(result, wall seconds, pid)``."""
    started = time.perf_counter()
    result = task(*arguments)
    return result, time.perf_counter() - started, os.getpid()


def map_ordered(
    workers: int, task: Callable[..., Any], argument_tuples: Sequence[Tuple]
) -> List[Tuple[Any, float, int]]:
    """Run ``task(*arguments)`` for every tuple; results in submission order.

    Each result comes back as ``(result, wall_s, pid)``, measured inside the
    process that ran the task — the parent re-emits those as forwarded trace
    spans.  ``workers == 0`` runs the generation in this process (same
    triples, the parent's own pid).  A :class:`BrokenProcessPool` (a killed
    worker) tears the pool down and resubmits the whole generation once;
    a second one propagates, with the pool already torn down, and it is the
    caller that decides what giving up means.  ``task`` must be a
    module-level function and every argument picklable.
    """
    if workers == 0:
        return [_timed(task, arguments) for arguments in argument_tuples]
    for last_attempt in (False, True):
        executor = shared_executor(workers)
        try:
            futures = [
                executor.submit(_timed, task, arguments)
                for arguments in argument_tuples
            ]
            return [future.result() for future in futures]
        except BrokenProcessPool:
            shutdown_worker_pool(broken=True)
            if last_attempt:
                raise
    raise AssertionError("unreachable")
