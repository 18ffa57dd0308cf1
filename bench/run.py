#!/usr/bin/env python3
"""The repo's benchmark: time-to-verdict per workload, cost per layer.

    python3 bench/run.py                          # all workloads, 3 repetitions
    python3 bench/run.py --workload s55_soundness --seed 7 --repeat 5
    python3 bench/run.py --workload paxos2_explore --seed 2 --seconds 17 --trace 1
    python3 bench/run.py --smoke --out smoke.json
    python3 bench/run.py --compare OLD.json NEW.json

Closed loop, one client: every repetition is a fresh child process
(``bench/child.py``), run one after another; each samples the box's speed
while it runs (``bench/yardstick.py``) and rescales its times to the quiet
box.  End-to-end metrics are medians over *untraced* repetitions; one extra
*traced* repetition per workload gives the per-layer numbers.
``BENCHMARK.json`` declares the workloads and every metric with its unit,
direction and bound; this file reads them from there.

With ``--trace 0|1`` (the form the benchmark driver uses, one workload per
call) the last line of stdout is one JSON object with the end-to-end
(``0``) or per-layer (``1``) metrics.  Every verdict is checked against its
known answer and the exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
if sys.path[0] == BENCH_DIR:  # run as a script: import ``bench`` as a package
    sys.path[0] = ROOT

from bench import compare, layers  # noqa: E402

DEFAULT_SEED = 2

Runs = Dict[str, Dict[str, Any]]  # name -> {"untraced": [report...], "traced": report|None}


def load_json(path: str) -> Dict[str, Any]:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


# -- running children ------------------------------------------------------------


def spawn(
    name: str, seed: int, smoke: bool, traced: bool, verify: bool = True
) -> Dict[str, Any]:
    """One repetition in a fresh process; its JSON report.

    ``verify`` runs the workload's untimed known-answer check that needs a
    second checker run (the cold run the checkpoint chain must equal).
    """
    proc = subprocess.run(
        [
            sys.executable,
            os.path.join(BENCH_DIR, "child.py"),
            name,
            str(seed),
            str(int(smoke)),
            str(int(traced)),
            str(int(verify)),
        ],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=170,
    )
    if proc.returncode != 0:
        raise SystemExit(f"bench child {name} failed:\n{proc.stderr}{proc.stdout}")
    return json.loads(proc.stdout.splitlines()[-1])


def collect(
    names: Sequence[str],
    traced_names: Sequence[str],
    seed: int,
    smoke: bool,
    repeat: Optional[int],
    seconds: float,
) -> Runs:
    """Run the repetitions of ``names``, tracing ``traced_names`` once each.

    Traced repetitions go first; untraced ones then go round-robin over
    ``names`` so slow drift of the box hits every workload alike.  With
    ``repeat`` unset, rounds continue while another one still fits in
    ``seconds``.
    """
    began = time.perf_counter()
    runs: Runs = {name: {"untraced": [], "traced": None} for name in names}
    verified = set()

    def repetition(name: str, traced: bool) -> Dict[str, Any]:
        # Repetitions must agree on every counter (``check``), so the first
        # one's untimed second-run check speaks for them all.
        report = spawn(name, seed, smoke, traced, verify=name not in verified)
        verified.add(name)
        return report

    for name in traced_names:
        runs[name]["traced"] = repetition(name, traced=True)
    rounds, longest = 0, 0.0
    while True:
        round_began = time.perf_counter()
        for name in names:
            runs[name]["untraced"].append(repetition(name, traced=False))
        rounds += 1
        longest = max(longest, time.perf_counter() - round_began)
        if repeat is not None:
            if rounds >= repeat:
                return runs
        elif time.perf_counter() - began + longest > seconds:
            return runs


# -- correctness -------------------------------------------------------------------


def check(name: str, runs: Runs, pinned: Optional[Dict[str, int]]) -> List[str]:
    """Failed checks that span repetitions of ``name`` (per-op ones are in the reports)."""
    reports = list(runs[name]["untraced"])
    if runs[name]["traced"] is not None:
        reports.append(runs[name]["traced"])
    first = reports[0]
    failures = []
    if any(r["counters"] != first["counters"] or r["bugs"] != first["bugs"] for r in reports):
        failures.append(f"{name}: counters or bugs differ between repetitions")
    if pinned is not None and first["counters"] != pinned:
        failures.append(
            f"{name}: counters differ from bench/pinned.json: {first['counters']}"
        )
    # The same space under another configuration must give the same answer;
    # reduction legitimately shrinks the counts, the other siblings may not.
    reference = layers.REFERENCES.get(name)
    if reference in runs:
        base = runs[reference]["untraced"][0]
        if first["bugs"] != base["bugs"]:
            failures.append(f"{name}: bug set differs from {reference}'s")
        if name != "paxos1_gen_reduced" and layers.space_counters(
            first["counters"]
        ) != layers.space_counters(base["counters"]):
            failures.append(f"{name}: counters differ from {reference}'s")
    return failures


# -- summaries -----------------------------------------------------------------------


def summarise(
    name: str, runs: Runs, spec: Dict[str, Any], run_failures: List[str]
) -> Dict[str, Any]:
    untraced, traced = runs[name]["untraced"], runs[name]["traced"]
    end_to_end = {}
    for metric in spec["end_to_end"]:
        values = [r["end_to_end"][metric["name"]] for r in untraced]
        end_to_end[metric["name"]] = {
            "median": statistics.median(values),
            "raw_median": statistics.median(r["raw"][metric["name"]] for r in untraced),
            "min": min(values),
            "max": max(values),
            "n": len(values),
            "unit": metric["unit"],
        }
    reports = untraced + ([traced] if traced else [])
    attempted = sum(len(r["ops"]) for r in reports)
    op_failures = [
        f"{name}/{op['name']}: {op['why_failed']}"
        for r in reports
        for op in r["ops"]
        if op["why_failed"]
    ]
    # A check across repetitions (determinism, pinned counters, the sibling
    # workload) has no single op to blame: it fails them all.
    failed = attempted if run_failures else len(op_failures)
    per_layer = None
    if traced is not None:
        reference = layers.REFERENCES.get(name)
        per_layer = layers.derive(
            name, traced, untraced, runs[reference]["untraced"] if reference else None
        )
        declared = {metric["name"] for metric in spec["per_layer"]}
        if set(per_layer) != declared:
            raise SystemExit(
                "bench/layers.py and BENCHMARK.json disagree on per-layer metrics: "
                f"{sorted(set(per_layer) ^ declared)}"
            )
    return {
        "end_to_end": end_to_end,
        "fail_share": failed / attempted,
        "attempted": attempted,
        "failed": failed,
        "failures": op_failures + run_failures,
        "per_layer": per_layer,
        "traced_wall_s": traced["end_to_end"]["wall_s"] if traced else None,
        "counters": untraced[0]["counters"],
    }


def show(name: str, summary: Dict[str, Any], spec: Dict[str, Any]) -> None:
    print(f"\n{name}")
    for metric, row in summary["end_to_end"].items():
        print(
            f"  {metric:<12} {row['median']:>10.4f} {row['unit']:<3} "
            f"median of n={row['n']}  min {row['min']:.4f}  max {row['max']:.4f}"
            f"  (as read on the clock: {row['raw_median']:.4f})"
        )
    print(
        f"  {'fail_share':<12} {summary['fail_share']:>10.4f} ratio "
        f"({summary['failed']} of {summary['attempted']} ops failed)"
    )
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    if summary["per_layer"] is None:
        return
    print(f"  per layer (one traced repetition, {summary['traced_wall_s']:.4f} s wall):")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for metric, value in summary["per_layer"].items():
        if value:
            print(f"    {metric:<50} {value:>14.6g} {units[metric]}")
    idle = sum(1 for value in summary["per_layer"].values() if not value)
    print(f"    ({idle} per-layer metrics read 0 on this workload)")


def driver_line(summary: Dict[str, Any], spec: Dict[str, Any], trace: int) -> str:
    """The one-object result line the benchmark driver parses."""
    if trace:
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        metrics = {
            metric: {"value": value, "unit": units[metric]}
            for metric, value in summary["per_layer"].items()
        }
    else:
        metrics = {
            metric: {"value": row["median"], "unit": row["unit"]}
            for metric, row in summary["end_to_end"].items()
        }
    return json.dumps(
        {
            "correct": summary["failed"] == 0,
            "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": metrics,
        }
    )


def commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # the driver's checkout is not a git repository


# -- entry ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    workloads = [workload["name"] for workload in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads, help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--repeat", type=int, help="untraced repetitions (default 3)")
    parser.add_argument(
        "--seconds", type=float, help="repeat while another round fits in this many seconds"
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="driver form: untraced only (0) or with the traced repetition (1); "
        "prints the result line last.  Default: both, human-readable",
    )
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for bench/tests")
    parser.add_argument("--out", help="write the full result set to this JSON file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        return 1 if compare.compare(*map(load_json, args.compare), spec) else 0
    if args.trace is not None and args.workload is None:
        parser.error("--trace needs --workload")
    repeat = args.repeat
    if repeat is None and args.seconds is None:
        repeat = 3

    targets = [args.workload] if args.workload else workloads
    traced_names = [] if args.trace == 0 else targets
    # A traced workload's cross-workload ratios need its reference measured too.
    names = list(targets)
    for name in traced_names:
        reference = layers.REFERENCES.get(name)
        if reference and reference not in names:
            names.append(reference)

    runs = collect(names, traced_names, args.seed, args.smoke, repeat, args.seconds or 0.0)
    pinned = {}
    if args.seed == DEFAULT_SEED and not args.smoke:
        pinned = load_json(os.path.join(BENCH_DIR, "pinned.json"))["counters"]
    results = {
        name: summarise(name, runs, spec, check(name, runs, pinned.get(name)))
        for name in targets
    }

    for name, summary in results.items():
        show(name, summary, spec)
    if args.out:
        payload = {
            "meta": {
                "commit": commit(),
                "python": platform.python_version(),
                "cpus": os.cpu_count(),
                "seed": args.seed,
                "repeat": repeat,
                "seconds": args.seconds,
                "smoke": args.smoke,
                "claim": None,
            },
            "workloads": results,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")
    if args.trace is not None:
        print(driver_line(results[args.workload], spec, args.trace))
    return 1 if any(summary["failed"] for summary in results.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
