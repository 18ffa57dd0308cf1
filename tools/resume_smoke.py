#!/usr/bin/env python3
"""CI smoke test for checkpoint/resume (docs/CHECKPOINTS.md).

The end-to-end kill story, exercised exactly as an operator would hit it:

1. run an uninterrupted ``repro check`` as the reference and record its
   final counters;
2. start the same check with ``--checkpoint-every 1`` in the background,
   wait (via the run registry) until it has written a mid-run checkpoint,
   and SIGKILL the pid from ``meta.json`` — no warning, no handler; the
   file left behind must be a log of at least two lines, each whole line
   carrying a ``values`` table and a ``steps`` table, and no value or step
   defined in two lines;
3. ``repro resume <run_id>`` and assert the resumed run's final counters
   match the reference byte-for-byte.

Because checkpoints land at round boundaries and the sweep is
deterministic, any divergence is a real bug in the snapshot codec or the
restore path, not noise.  If the child wins the race and finishes before
the kill, resuming its final checkpoint must *still* reproduce the
reference counters, so the assertion holds either way.

Exit code 0 on success; non-zero with a diagnostic dump on any failure.
Usage: ``python tools/resume_smoke.py [--runs-root DIR] [--timeout SECONDS]``
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")

#: The workload both runs execute.  GEN at this depth runs long enough on
#: CI hardware to be killed mid-flight, and small enough to finish fast.
CHECK_ARGS = ("check", "paxos", "--algorithm", "lmc-gen", "--max-depth", "6")

#: Kill only once the heartbeat reports at least this explored depth (the
#: sum of per-node maxima — max_depth 6 over three nodes tops out around
#: 18), so the SIGKILL genuinely lands mid-depth, not at round 1.
KILL_AFTER_DEPTH = 9

#: ``print_result`` lines that must match between reference and resumed
#: run (deterministic counters; phase timings and ids naturally differ).
COUNTER_LABELS = (
    "transitions",
    "node states",
    "system states",
    "preliminary",
    "soundness",
    "bugs",
    "completed",
)


def _env():
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + existing if existing else "")
    return env


def _repro(args, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        env=_env(),
        capture_output=True,
        text=True,
        **kwargs,
    )


def _counters(stdout):
    """The deterministic counter lines of a ``print_result`` dump."""
    picked = {}
    for line in stdout.splitlines():
        if ":" not in line:
            continue
        label, _, value = line.partition(":")
        label = label.strip()
        if label in COUNTER_LABELS:
            picked[label] = value.strip()
    return picked


def _table_failures(lines):
    """What is wrong with the log's tables: every whole line must carry a
    ``values`` table of content-addressed value rows and a ``steps`` table
    of the steps its links name first, and no value and no step — keyed by
    its event, consumed and generated hashes — may be defined in two
    lines.  A torn last line is what the loader drops, so it is skipped."""
    failures = []
    defined = {}
    for number, raw in enumerate(lines, 1):
        try:
            line = json.loads(raw)
        except ValueError:
            if number < len(lines):
                failures.append(f"checkpoint line {number} does not parse")
            continue
        steps = line.get("pass", {}).get("steps")
        for name, table in (("value", line.get("values")), ("step", steps)):
            if table is None:
                failures.append(f"checkpoint line {number} has no {name} table")
        keys = [("value", value) for value, _row in line.get("values") or ()]
        keys += [("step", json.dumps(step[1:])) for step in steps or ()]
        for key in keys:
            if key in defined:
                failures.append(
                    f"{key[0]} {key[1]} is defined in checkpoint lines "
                    f"{defined[key]} and {number}"
                )
            defined.setdefault(key, number)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--runs-root", default=os.path.join(REPO_ROOT, ".lmc", "runs"))
    parser.add_argument("--timeout", type=float, default=180.0)
    args = parser.parse_args(argv)
    registry = ["--registry-root", args.runs_root]
    failures = []

    # 1. The uninterrupted reference.
    reference = _repro([*CHECK_ARGS, "--no-registry"])
    if reference.returncode != 0:
        failures.append(f"reference run exited {reference.returncode}")
    expected = _counters(reference.stdout)
    if "transitions" not in expected:
        failures.append("reference output carried no counters")

    # 2. The same check, checkpointed, killed without warning mid-run.
    child = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            *CHECK_ARGS,
            "--checkpoint-every",
            "1",
            "--metrics-interval",
            "0.2",
            *registry,
        ],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    run_dir = pid = None
    checkpoint_seen = False
    deadline = time.time() + args.timeout
    while time.time() < deadline:
        if run_dir is None:
            try:
                entries = sorted(os.listdir(args.runs_root))
            except OSError:
                entries = []
            for name in reversed(entries):
                meta_path = os.path.join(args.runs_root, name, "meta.json")
                if not os.path.isfile(meta_path):
                    continue
                with open(meta_path) as handle:
                    meta = json.load(handle)
                if meta.get("pid") == child.pid:
                    run_dir = os.path.join(args.runs_root, name)
                    pid = meta["pid"]
                    break
        if run_dir is not None and os.path.isfile(
            os.path.join(run_dir, "checkpoint.json")
        ):
            try:
                with open(os.path.join(run_dir, "heartbeat.json")) as handle:
                    depth = json.load(handle).get("depth", 0)
            except (OSError, ValueError):
                depth = 0
            if depth >= KILL_AFTER_DEPTH:
                checkpoint_seen = True
                break
        if child.poll() is not None:
            break  # child finished (or died) before a kill was possible
        time.sleep(0.05)

    if run_dir is None:
        failures.append("checkpointed run never appeared in the registry")
    if not checkpoint_seen and child.poll() is None:
        failures.append("no checkpoint.json appeared before the timeout")
    if child.poll() is None and pid is not None:
        os.kill(pid, signal.SIGKILL)
    child_out, _ = child.communicate(timeout=args.timeout)
    run_id = os.path.basename(run_dir) if run_dir else None
    # The kill must land on a log — a base line plus appended segments, the
    # last of them possibly torn — not on a lone base.
    log_lines = 0
    if run_dir is not None and not failures:
        with open(os.path.join(run_dir, "checkpoint.json"), "rb") as handle:
            lines = handle.read().splitlines(keepends=True)
        log_lines = len(lines)
        if log_lines < 2:
            failures.append(f"killed run's checkpoint has {log_lines} line(s)")
        failures.extend(_table_failures(lines))

    # 3. Resume and compare counters.
    resumed = None
    if run_id is not None and not failures:
        resumed = _repro(["resume", run_id, *registry], timeout=args.timeout)
        if resumed.returncode != 0:
            failures.append(f"repro resume exited {resumed.returncode}")
        else:
            got = _counters(resumed.stdout)
            for label in COUNTER_LABELS:
                if expected.get(label) != got.get(label):
                    failures.append(
                        f"counter {label!r} diverged: reference "
                        f"{expected.get(label)!r}, resumed {got.get(label)!r}"
                    )

    status = _repro(["status", *registry])
    if failures:
        print("RESUME SMOKE FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        for title, text in (
            ("reference output", reference.stdout + reference.stderr),
            ("killed run output", child_out),
            (
                "resume output",
                (resumed.stdout + resumed.stderr) if resumed is not None else "<not run>",
            ),
            ("status output", status.stdout + status.stderr),
        ):
            print(f"\n--- {title} ---\n{text}", file=sys.stderr)
        return 1

    print("resume smoke OK")
    print(
        f"  killed run : {run_id} (mid-run checkpoint: {checkpoint_seen}, "
        f"{log_lines} log lines)"
    )
    for label in COUNTER_LABELS:
        print(f"  {label:12s}: {expected.get(label)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
