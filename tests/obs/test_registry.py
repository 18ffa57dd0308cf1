"""Run registry: durable records, heartbeats, and status judgement."""

import json
import os
import subprocess
import sys
import time

from repro.core import checker as checker_module
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.fsio import atomic_write_json, atomic_write_text, read_json
from repro.invariants.base import PredicateInvariant
from repro.model.protocol import Protocol
from repro.model.types import HandlerResult
from repro.obs.registry import (
    HEARTBEAT_FILE,
    RunRecord,
    RunRegistry,
    pid_alive,
)


# -- fsio (the shared atomic-write helper) -------------------------------------


def test_atomic_write_text_replaces_whole_file(tmp_path):
    path = str(tmp_path / "f.txt")
    atomic_write_text(path, "first")
    atomic_write_text(path, "second")
    with open(path) as handle:
        assert handle.read() == "second"
    # No temp droppings left behind.
    assert os.listdir(tmp_path) == ["f.txt"]


def test_atomic_write_json_roundtrip(tmp_path):
    path = str(tmp_path / "f.json")
    atomic_write_json(path, {"b": 2, "a": [1, None]})
    assert read_json(path) == {"a": [1, None], "b": 2}


def test_read_json_missing_or_malformed_is_none(tmp_path):
    assert read_json(str(tmp_path / "absent.json")) is None
    bad = tmp_path / "bad.json"
    bad.write_text("{truncated")
    assert read_json(str(bad)) is None


# -- registration and heartbeats ----------------------------------------------


def test_register_writes_meta_and_unique_ids(tmp_path):
    registry = RunRegistry(str(tmp_path))
    first = registry.register("check", workload="paxos", algorithm="lmc-opt")
    second = registry.register("check", workload="paxos", algorithm="lmc-opt")
    assert first.run_id != second.run_id
    record = registry.load(first.run_id)
    assert record is not None
    assert record.meta["workload"] == "paxos"
    assert record.meta["pid"] == os.getpid()
    assert registry.run_ids() == sorted([first.run_id, second.run_id])


def test_heartbeat_rate_limits_and_force_bypasses(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    assert handle.heartbeat({"depth": 1}) is True
    # Immediately after, an unforced beat is suppressed...
    assert handle.heartbeat({"depth": 2}) is False
    # ...but force (seed / end-of-run) always lands.
    assert handle.heartbeat({"depth": 3}, force=True) is True
    record = registry.load(handle.run_id)
    assert record.heartbeat["depth"] == 3
    assert record.heartbeat["pid"] == os.getpid()


def test_finish_writes_result_and_wins_status(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    handle.heartbeat({"depth": 5}, force=True)
    handle.finish(status="finished", bugs=0, stop_reason="state space exhausted")
    record = registry.load(handle.run_id)
    assert record.status() == "finished"
    assert record.result["stop_reason"] == "state space exhausted"
    handle.finish(status="failed", error="boom")
    assert registry.load(handle.run_id).status() == "failed"


def test_latest_returns_most_recent(tmp_path):
    registry = RunRegistry(str(tmp_path))
    registry.register("check", run_id="20240101T000000-1")
    registry.register("check", run_id="20240101T000001-1")
    assert registry.latest().run_id == "20240101T000001-1"
    assert RunRegistry(str(tmp_path / "empty")).latest() is None


def test_coverage_roundtrip(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    handle.write_coverage({"message_types": {"Ping": 3}})
    assert registry.load(handle.run_id).coverage() == {
        "message_types": {"Ping": 3}
    }
    other = registry.register("check")
    assert registry.load(other.run_id).coverage() is None


# -- status judgement ----------------------------------------------------------


def _write_heartbeat(directory, **fields):
    atomic_write_json(os.path.join(directory, HEARTBEAT_FILE), fields)


def test_status_registered_without_heartbeat(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    assert registry.load(handle.run_id).status() == "registered"


def test_status_running_with_fresh_heartbeat(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    _write_heartbeat(handle.directory, pid=os.getpid(), wall_ts=time.time())
    assert registry.load(handle.run_id).status() == "running"


def test_status_stale_when_live_pid_stops_beating(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    # Our own pid is alive, but the heartbeat is a minute old.
    _write_heartbeat(handle.directory, pid=os.getpid(), wall_ts=time.time() - 60)
    assert registry.load(handle.run_id).status() == "stale"


def test_stale_threshold_scales_with_advertised_cadence(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    # 60s old, but the run advertises a 30s cadence: two missed beats is
    # within the 4x allowance, so it is still running.
    _write_heartbeat(
        handle.directory,
        pid=os.getpid(),
        wall_ts=time.time() - 60,
        heartbeat_interval_s=30.0,
    )
    assert registry.load(handle.run_id).status() == "running"


def test_status_killed_when_pid_is_gone(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    # A real process that has already exited and been reaped.
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    _write_heartbeat(handle.directory, pid=child.pid, wall_ts=time.time())
    assert not pid_alive(child.pid)
    assert registry.load(handle.run_id).status() == "killed"


def test_gc_prunes_checkpoint_debris_but_keeps_resume_points(tmp_path):
    """``repro runs --gc``: a temporary file stranded by a kill inside
    ``atomic_write_text`` goes for every run that is not live; a
    ``checkpoint.json`` goes only once its run has a result."""
    registry = RunRegistry(str(tmp_path))
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    pids = {"finished": child.pid, "killed": child.pid, "running": os.getpid()}
    planted = {}
    for name, pid in pids.items():
        handle = registry.register("check", run_id=name)
        _write_heartbeat(handle.directory, pid=pid, wall_ts=time.time())
        planted[name] = [
            os.path.join(handle.directory, leaf)
            for leaf in ("checkpoint.json", "checkpoint.json.k3_x9a.tmp")
        ]
        for path in planted[name]:
            with open(path, "w") as out:
                out.write("{}")
        if name == "finished":
            handle.finish()
    assert registry.load("killed").status() == "killed"

    pruned = registry.gc_checkpoints()
    assert sorted(pruned) == sorted(planted["finished"] + planted["killed"][1:])
    survivors = [planted["killed"][0], *planted["running"]]
    assert all(os.path.isfile(path) for path in survivors)
    assert not any(os.path.exists(path) for path in pruned)
    assert registry.gc_checkpoints() == []


def test_heartbeat_age_and_as_dict(tmp_path):
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check", workload="echo")
    _write_heartbeat(handle.directory, pid=os.getpid(), wall_ts=time.time() - 3)
    record = registry.load(handle.run_id)
    age = record.heartbeat_age_s()
    assert 2.5 <= age <= 10.0
    payload = record.as_dict()
    assert payload["run_id"] == handle.run_id
    assert payload["meta"]["workload"] == "echo"
    json.dumps(payload)  # serializable as-is


def test_reader_tolerates_partial_directories(tmp_path):
    registry = RunRegistry(str(tmp_path))
    # A directory without meta.json is not a run.
    os.makedirs(tmp_path / "not-a-run")
    assert registry.run_ids() == []
    assert registry.load("not-a-run") is None
    # A malformed heartbeat degrades to None, not an exception.
    handle = registry.register("check")
    with open(os.path.join(handle.directory, HEARTBEAT_FILE), "w") as out:
        out.write("{cut off")
    record = registry.load(handle.run_id)
    assert record.heartbeat is None
    assert record.status() == "registered"


def test_pid_alive_basics():
    assert pid_alive(os.getpid())
    assert not pid_alive(0)
    assert not pid_alive(-5)


def test_record_status_prefers_result_over_dead_pid(tmp_path):
    # A finished run whose process has exited must read finished, not killed.
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("check")
    _write_heartbeat(handle.directory, pid=2_000_000_000, wall_ts=time.time())
    handle.finish(status="finished")
    assert registry.load(handle.run_id).status() == "finished"


def test_run_record_default_construction():
    record = RunRecord(run_id="x", directory="/nonexistent/x")
    assert record.status() == "registered"
    assert record.heartbeat_age_s() is None
    assert record.coverage() is None


# -- the checker's heartbeat gauges ---------------------------------------------


class _IdleProtocol(Protocol):
    """Two nodes that never act or send: only fault events can happen."""

    name = "idle"

    def node_ids(self):
        return (0, 1)

    def initial_state(self, node):
        return (node, "up")

    def enabled_actions(self, state):
        return ()

    def handle_action(self, state, action):
        return HandlerResult(state)

    def handle_message(self, state, message):
        return HandlerResult(state)


class _RecordingHandle:
    """A run handle that keeps every heartbeat snapshot in memory."""

    def __init__(self):
        self.beats = []

    def heartbeat(self, snapshot, force=False):
        self.beats.append(snapshot)
        return True

    def write_coverage(self, coverage):
        pass


def test_frontier_counts_pending_faults(monkeypatch):
    """Round 1 crashes both seeds; round 2's only work is their restarts.

    With a heartbeat before every execution, the one taken as the first
    restart starts must still see the second crashed marker pending — the
    delivery and local cursors have long passed it.
    """
    monkeypatch.setattr(checker_module, "CLOCK_CHECK_INTERVAL", 1)
    handle = _RecordingHandle()
    result = LocalModelChecker(
        _IdleProtocol(),
        PredicateInvariant("true", lambda system: True),
        config=LMCConfig(fault_events_enabled=True),
        run_handle=handle,
        metrics_interval=0.0,
    ).run()
    assert result.completed
    assert result.stats.fault_restarts == 2
    first_restart = next(
        beat
        for beat in handle.beats
        if beat["round"] == 2 and beat["fault_crashes"] == 2
    )
    assert first_restart["fault_restarts"] == 0
    assert first_restart["frontier"] == 1
