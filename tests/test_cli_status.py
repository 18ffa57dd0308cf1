"""The status surface: `repro runs`/`status`/`coverage` and live cross-process reads."""

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.cli import main
from repro.obs.registry import RunRegistry

REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")


def _run_main(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def test_check_registers_and_readers_report(tmp_path, capsys):
    root = str(tmp_path / "runs")
    code, out = _run_main(
        capsys,
        ["check", "echo", "--registry-root", root, "--coverage"],
    )
    assert code == 0
    assert "run id" in out

    code, out = _run_main(capsys, ["runs", "--registry-root", root])
    assert code == 0
    assert "echo" in out and "finished" in out

    code, out = _run_main(capsys, ["status", "--registry-root", root])
    assert code == 0
    assert "status        : finished" in out
    assert "depth" in out

    code, out = _run_main(capsys, ["coverage", "--registry-root", root])
    assert code == 0
    assert "Ping" in out and "Pong" in out
    assert "All declared handlers exercised." not in out  # echo declares nothing


def test_no_registry_flag_suppresses_registration(tmp_path, capsys):
    root = str(tmp_path / "runs")
    code, out = _run_main(
        capsys,
        ["check", "echo", "--no-registry", "--registry-root", root],
    )
    assert code == 0
    assert "run id" not in out
    assert RunRegistry(root).run_ids() == []


def test_scenario_registers(tmp_path, capsys):
    root = str(tmp_path / "runs")
    code, _out = _run_main(
        capsys, ["scenario", "s55", "--registry-root", root, "--coverage"]
    )
    assert code == 1  # the buggy scenario finds its bug
    record = RunRegistry(root).latest()
    assert record.meta["command"] == "scenario"
    assert record.meta["workload"] == "s55"
    assert record.result["bugs"] == 1
    assert record.result["status"] == "finished"
    assert record.coverage() is not None


def test_status_of_missing_run_errors(tmp_path, capsys):
    root = str(tmp_path / "empty")
    assert main(["status", "--registry-root", root]) == 2
    assert main(["status", "nope", "--registry-root", root]) == 2
    assert main(["coverage", "--registry-root", root]) == 2
    capsys.readouterr()


def test_coverage_without_recording_errors(tmp_path, capsys):
    root = str(tmp_path / "runs")
    assert main(["check", "echo", "--registry-root", root]) == 0
    capsys.readouterr()
    assert main(["coverage", "--registry-root", root]) == 2
    err = capsys.readouterr().err
    assert "--coverage" in err


def test_paxos_coverage_lists_every_declared_handler(tmp_path, capsys):
    """The CI smoke assertion, in-process: all Paxos handlers exercised."""
    root = str(tmp_path / "runs")
    assert main(["check", "paxos", "--registry-root", root, "--coverage"]) == 0
    capsys.readouterr()
    code, out = _run_main(capsys, ["coverage", "--registry-root", root])
    assert code == 0
    for handler in ("Prepare", "PrepareResponse", "Accept", "Learn", "init", "propose"):
        assert handler in out
    assert "All declared handlers exercised." in out


def test_status_reports_the_checkpoint_log(tmp_path, capsys):
    """The heartbeat's ``checkpoint`` record counts what the writer appended;
    ``repro status`` prints it, and ``runs --gc`` prunes the finished log."""
    root = str(tmp_path / "runs")
    check = ["check", "paxos", "--max-depth", "4", "--checkpoint-every", "1"]
    assert main([*check, "--registry-root", root]) == 0
    capsys.readouterr()
    record = RunRegistry(root).latest()
    checkpoint = record.heartbeat["checkpoint"]
    with open(record.checkpoint_path, "rb") as handle:
        lines = handle.read().splitlines(keepends=True)
    assert checkpoint["writes"] == len(lines) == checkpoint["segments"] + 1 > 2
    assert checkpoint["bytes_written"] == sum(map(len, lines))

    code, out = _run_main(capsys, ["status", "--registry-root", root])
    assert code == 0
    assert (
        f"{checkpoint['segments']} segments, "
        f"{checkpoint['bytes_written']} bytes written" in out
    )
    code, out = _run_main(capsys, ["runs", "--gc", "--registry-root", root])
    assert code == 0 and "pruned 1 stale checkpoint(s)" in out
    assert not record.has_checkpoint()


@pytest.mark.slow
def test_live_status_from_second_process(tmp_path):
    """The acceptance path: watch an in-flight run from another process."""
    root = str(tmp_path / "runs")
    env = dict(os.environ, PYTHONPATH=REPO_SRC)
    # A deliberately long run: paxos with two proposals explores for many
    # seconds; the wall-clock budget bounds the test either way.
    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "check",
            "echo",
            "--nodes",
            "4",
            "--max-seconds",
            "60",
            "--max-depth",
            "60",
            "--metrics-interval",
            "0.05",
            "--registry-root",
            root,
            "--coverage",
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    registry = RunRegistry(root)
    try:
        record = None
        deadline = time.time() + 30
        while time.time() < deadline:
            record = registry.latest()
            if (
                record is not None
                and record.heartbeat is not None
                and record.heartbeat.get("round", 0) >= 1
            ):
                break
            time.sleep(0.05)
        assert record is not None and record.heartbeat is not None, (
            "child never heartbeat"
        )
        assert record.status() in ("running", "finished")
        heartbeat = record.heartbeat
        assert heartbeat["pid"] == child.pid
        assert "depth" in heartbeat and "transitions" in heartbeat
        assert "frontier" in heartbeat
        # The depth bound makes the run ETA-estimable once depth grows.
        if record.status() == "running" and heartbeat.get("progress"):
            assert heartbeat["progress"]["max_depth"] == 60
    finally:
        if child.poll() is None:
            child.send_signal(signal.SIGKILL)
        child.wait(timeout=30)
    # After a SIGKILL, the registry must call the run killed, not running.
    record = registry.latest()
    if record.result is None:
        assert record.status() == "killed"
