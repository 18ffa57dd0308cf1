"""The live run registry: durable, cross-process records of checker runs.

Every ``check``/``scenario``/online/bench run can register itself under a
*runs root* (``.lmc/runs`` by default, overridable with the
``REPRO_RUNS_ROOT`` environment variable) and keep a heartbeat there while
it explores.  A second process — ``repro runs``, ``repro status``,
``repro serve-status``, a dashboard — reads those files to answer the
operator questions a long run otherwise leaves dark: is it alive, how deep
is it, how fast is it burning transitions, when will it finish.

Layout of one run directory (``<root>/<run_id>/``):

``meta.json``
    Written once at registration: run id, command, workload, algorithm,
    pid, argv, start wall-clock time.
``heartbeat.json``
    Replaced atomically on the metrics cadence (depth growth or the
    ``--metrics-interval`` wall clock): depth, round, frontier size, every
    :meth:`~repro.stats.counters.ExplorationStats.snapshot` counter, phase
    timers, RSS, and the :mod:`~repro.obs.progress` ETA estimate.
``result.json``
    Written once when the run finishes: final status and summary counters.
``coverage.json``
    Present when coverage accounting (:mod:`repro.obs.coverage`) was on.

All writes go through :func:`repro.fsio.atomic_write_json`, so a SIGKILLed
run always leaves parseable files; liveness is judged from the heartbeat
instead.  A run is **running** while its pid is alive and its heartbeat is
fresh, **stale** when the pid is alive but the heartbeat stopped advancing
(a wedged process), and **killed** when the pid is gone without a
``result.json`` (the SIGKILL case).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.fsio import atomic_write_json, read_json

#: Environment variable overriding the default runs root.
RUNS_ROOT_ENV = "REPRO_RUNS_ROOT"
#: Default runs root, relative to the current working directory.
DEFAULT_RUNS_ROOT = os.path.join(".lmc", "runs")

META_FILE = "meta.json"
HEARTBEAT_FILE = "heartbeat.json"
RESULT_FILE = "result.json"
COVERAGE_FILE = "coverage.json"
#: Default location of a run's durable checker snapshot
#: (docs/CHECKPOINTS.md): ``repro resume <run_id>`` reads it, and
#: ``repro runs --gc`` prunes it once the run has finished.
CHECKPOINT_FILE = "checkpoint.json"

#: A heartbeat older than this (seconds) marks a live-pid run as stale.
#: When the heartbeat itself advertises its cadence the threshold widens to
#: a few missed beats — a run sampling every 30 s is not stale after 11.
DEFAULT_STALE_AFTER_S = 10.0
_STALE_CADENCE_MULTIPLE = 4.0


def default_runs_root() -> str:
    """The runs root the environment selects (``REPRO_RUNS_ROOT`` or default)."""
    return os.environ.get(RUNS_ROOT_ENV) or DEFAULT_RUNS_ROOT


def pid_alive(pid: int) -> bool:
    """Best-effort liveness probe for a local process id."""
    if pid <= 0:
        return False
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # exists, owned by someone else
    except OSError:
        return False
    return True


class RunHandle:
    """The writer half: one registered run's durable record.

    Handles are cheap to carry through checker plumbing; every write is an
    atomic whole-file replace, and :meth:`heartbeat` self-rate-limits so a
    fast-sampling run does not turn the registry into an fsync benchmark.
    """

    def __init__(self, directory: str, run_id: str, min_interval: float = 0.5):
        self.directory = directory
        self.run_id = run_id
        #: Minimum seconds between unforced heartbeat writes.
        self.min_interval = min_interval
        self._last_write = float("-inf")
        self._interval_hint: Optional[float] = None

    def advertise_cadence(self, interval_s: Optional[float]) -> None:
        """Record the expected sampling cadence in future heartbeats.

        Readers use it to scale stale detection: a run that samples every
        30 s should not be flagged stale after 10.
        """
        self._interval_hint = interval_s

    def heartbeat(self, snapshot: Dict[str, Any], force: bool = False) -> bool:
        """Atomically replace ``heartbeat.json`` with ``snapshot``.

        Returns True when a write happened (rate limiting may skip one;
        ``force`` bypasses it for seed and end-of-run beats).
        """
        now = time.monotonic()
        if not force and now - self._last_write < self.min_interval:
            return False
        payload = dict(snapshot)
        payload["run_id"] = self.run_id
        payload["pid"] = os.getpid()
        payload["wall_ts"] = time.time()
        if self._interval_hint is not None:
            payload["heartbeat_interval_s"] = self._interval_hint
        atomic_write_json(os.path.join(self.directory, HEARTBEAT_FILE), payload)
        self._last_write = now
        return True

    def write_coverage(self, coverage: Dict[str, Any]) -> None:
        """Atomically replace ``coverage.json`` (see :mod:`repro.obs.coverage`)."""
        atomic_write_json(os.path.join(self.directory, COVERAGE_FILE), coverage)

    def finish(self, status: str = "finished", **summary: Any) -> None:
        """Write the final ``result.json``; the run is no longer live.

        ``status`` is typically ``"finished"`` or ``"failed"``; ``summary``
        carries whatever end-of-run facts the caller wants durable
        (stop reason, bug count, final counters).
        """
        payload = dict(summary)
        payload["run_id"] = self.run_id
        payload["status"] = status
        payload["wall_ts"] = time.time()
        atomic_write_json(os.path.join(self.directory, RESULT_FILE), payload)


@dataclass
class RunRecord:
    """The reader half: one run directory, parsed leniently.

    Any of the component files may be missing (a just-registered run has no
    heartbeat yet; a killed run has no result) — readers get ``None`` and
    judge status from what exists.
    """

    run_id: str
    directory: str
    meta: Dict[str, Any] = field(default_factory=dict)
    heartbeat: Optional[Dict[str, Any]] = None
    result: Optional[Dict[str, Any]] = None

    @property
    def coverage_path(self) -> str:
        return os.path.join(self.directory, COVERAGE_FILE)

    @property
    def checkpoint_path(self) -> str:
        return os.path.join(self.directory, CHECKPOINT_FILE)

    def has_checkpoint(self) -> bool:
        """True when the run left a durable checker snapshot to resume from."""
        return os.path.isfile(self.checkpoint_path)

    def coverage(self) -> Optional[Dict[str, Any]]:
        """The run's coverage report, when coverage accounting was on."""
        return read_json(self.coverage_path)

    def heartbeat_age_s(self, now: Optional[float] = None) -> Optional[float]:
        """Seconds since the last heartbeat, or None without one."""
        if self.heartbeat is None:
            return None
        wall = self.heartbeat.get("wall_ts")
        if not isinstance(wall, (int, float)):
            return None
        return max(0.0, (time.time() if now is None else now) - float(wall))

    def status(
        self,
        stale_after: float = DEFAULT_STALE_AFTER_S,
        now: Optional[float] = None,
    ) -> str:
        """One of ``finished``/``failed``/``running``/``stale``/``killed``/``registered``.

        Finished runs answer from ``result.json``.  In-flight runs are
        judged from the heartbeat: a dead pid without a result means the
        run was killed; a live pid with a heartbeat older than the stale
        threshold (scaled up when the heartbeat advertises a slow cadence)
        means the process is wedged.
        """
        if self.result is not None:
            status = self.result.get("status")
            return status if isinstance(status, str) else "finished"
        if self.heartbeat is None:
            return "registered"
        pid = self.heartbeat.get("pid")
        if isinstance(pid, int) and not pid_alive(pid):
            return "killed"
        age = self.heartbeat_age_s(now=now)
        cadence = self.heartbeat.get("heartbeat_interval_s")
        if isinstance(cadence, (int, float)) and cadence > 0:
            stale_after = max(stale_after, _STALE_CADENCE_MULTIPLE * float(cadence))
        if age is not None and age > stale_after:
            return "stale"
        return "running"

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready view (the ``serve-status`` payload for one run)."""
        return {
            "run_id": self.run_id,
            "status": self.status(),
            "heartbeat_age_s": self.heartbeat_age_s(),
            "meta": self.meta,
            "heartbeat": self.heartbeat,
            "result": self.result,
        }


class RunRegistry:
    """Registers new runs and enumerates existing ones under one root."""

    def __init__(self, root: Optional[str] = None):
        self.root = os.path.abspath(root if root else default_runs_root())

    # -- writer side -----------------------------------------------------------

    def register(
        self,
        command: str,
        workload: Optional[str] = None,
        algorithm: Optional[str] = None,
        run_id: Optional[str] = None,
        argv: Optional[List[str]] = None,
        **extra: Any,
    ) -> RunHandle:
        """Create a run directory and its ``meta.json``; return the handle.

        Generated run ids sort chronologically (``YYYYmmddTHHMMSS-<pid>``
        with a numeric suffix on collision), so directory order is start
        order.
        """
        os.makedirs(self.root, exist_ok=True)
        if run_id is None:
            stamp = time.strftime("%Y%m%dT%H%M%S", time.localtime())
            base = f"{stamp}-{os.getpid()}"
            run_id, suffix = base, 0
            while os.path.exists(os.path.join(self.root, run_id)):
                suffix += 1
                run_id = f"{base}-{suffix}"
        directory = os.path.join(self.root, run_id)
        os.makedirs(directory, exist_ok=True)
        meta: Dict[str, Any] = {
            "run_id": run_id,
            "command": command,
            "workload": workload,
            "algorithm": algorithm,
            "pid": os.getpid(),
            "argv": list(argv) if argv is not None else None,
            "started_wall_ts": time.time(),
            "started": time.strftime("%Y-%m-%d %H:%M:%S", time.localtime()),
        }
        meta.update(extra)
        atomic_write_json(os.path.join(directory, META_FILE), meta)
        return RunHandle(directory, run_id)

    def gc_checkpoints(self) -> List[str]:
        """Delete checkpoint files no run can use any more; return pruned paths.

        A finished run (one with a ``result.json``) loses its
        ``checkpoint.json``; an in-flight or killed run's is its resume point
        and is never touched.  Every run that is not live also loses its
        ``checkpoint.json.*.tmp`` files: a kill inside
        :func:`repro.fsio.atomic_write_text` strands one, megabytes each, and
        a temporary file is never a resume point.  Only registry-managed
        files inside each run directory are removed — never a user-chosen
        ``--checkpoint PATH`` elsewhere.
        """
        doomed: List[str] = []
        for record in self.list_runs():
            finished = record.result is not None
            if finished:
                doomed.append(record.checkpoint_path)
            if finished or record.status() == "killed":
                doomed.extend(
                    os.path.join(record.directory, name)
                    for name in os.listdir(record.directory)
                    if name.startswith(CHECKPOINT_FILE + ".") and name.endswith(".tmp")
                )
        pruned: List[str] = []
        for path in doomed:
            try:
                os.remove(path)
            except OSError:
                continue
            pruned.append(path)
        return pruned

    # -- reader side -----------------------------------------------------------

    def run_ids(self) -> List[str]:
        """All registered run ids, in start order (directory-name order)."""
        try:
            entries = os.listdir(self.root)
        except OSError:
            return []
        found = [
            name
            for name in entries
            if os.path.isfile(os.path.join(self.root, name, META_FILE))
        ]
        return sorted(found)

    def load(self, run_id: str) -> Optional[RunRecord]:
        """Read one run directory; None when it does not exist."""
        directory = os.path.join(self.root, run_id)
        meta = read_json(os.path.join(directory, META_FILE))
        if meta is None:
            return None
        return RunRecord(
            run_id=run_id,
            directory=directory,
            meta=meta if isinstance(meta, dict) else {},
            heartbeat=read_json(os.path.join(directory, HEARTBEAT_FILE)),
            result=read_json(os.path.join(directory, RESULT_FILE)),
        )

    def list_runs(self) -> List[RunRecord]:
        """All readable runs, in start order."""
        records = []
        for run_id in self.run_ids():
            record = self.load(run_id)
            if record is not None:
                records.append(record)
        return records

    def latest(self) -> Optional[RunRecord]:
        """The most recently registered readable run, if any."""
        for run_id in reversed(self.run_ids()):
            record = self.load(run_id)
            if record is not None:
                return record
        return None
