"""The benchmark's own tests, at ``--smoke`` size.

    python -m pytest bench/tests -q

Not part of the tier-1 suite (``testpaths`` is ``tests``): these spawn the
benchmark's child processes.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

from bench import compare, layers, run

ROOT = run.ROOT
SPEC = run.load_json(os.path.join(ROOT, "BENCHMARK.json"))
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        timeout=300,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One full ``--smoke`` result set, shared by the tests that read it."""
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = bench("--smoke", "--repeat", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr + proc.stdout
    return run.load_json(str(out))


def test_declared_names_and_units():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert len(WORKLOADS) == 8 and len(SPEC["per_layer"]) <= 128
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert set(layers.REFERENCES) | set(layers.REFERENCES.values()) <= set(WORKLOADS)


def test_smoke_schema(smoke):
    assert smoke["meta"]["claim"] is None and smoke["meta"]["cpus"] >= 1
    assert sorted(smoke["workloads"]) == sorted(WORKLOADS)
    for name, summary in smoke["workloads"].items():
        assert summary["failed"] == 0 and summary["fail_share"] == 0, summary["failures"]
        assert summary["attempted"] >= 2  # one untraced, one traced repetition
        assert set(summary["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
        for row in summary["end_to_end"].values():
            assert row["min"] <= row["median"] <= row["max"] and row["n"] == 1
            assert row["median"] > 0 and row["raw_median"] > 0
        assert summary["end_to_end"]["wall_s"]["median"] < 2.0, name
        assert set(summary["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
        assert all(
            value >= 0
            for metric, value in summary["per_layer"].items()
            # One wall minus another: a few ticks' worth of rescaling noise
            # can turn it negative at --smoke size.
            if not metric.endswith("overhead_share")
        ), name


def test_times_are_rescaled_and_memory_is_the_childs_own():
    report = run.spawn("paxos1_gen_enum", seed=2, smoke=True, traced=False)
    raw, rescaled = report["raw"], report["end_to_end"]
    assert report["ticks"] >= 2 and 0.1 < report["speed"] < 10
    # The yardstick's own ticks are taken out before rescaling.
    assert rescaled["wall_s"] == pytest.approx(raw["wall_s"] * report["scale"])
    assert report["scale"] <= report["speed"] * (1 + 1e-9)
    assert rescaled["setup_s"] < raw["setup_s"] * report["speed"]
    # VmHWM, not ru_maxrss: that one would read this pytest process's peak.
    assert rescaled["peak_rss_mb"] == raw["peak_rss_mb"] < 40


def test_smoke_stresses_the_intended_layers(smoke):
    layer = {name: summary["per_layer"] for name, summary in smoke["workloads"].items()}
    for name in WORKLOADS:
        writes = layer[name]["core.checkpoint.writes"]
        assert (writes > 0) == (name == "paxos2_ckpt_chain")
        restarts = layer[name]["online.restarts"]
        assert (restarts > 0) == (name == "online_paxos_ttfb")
        if name.startswith(("paxos2_explore", "paxos1_gen")):
            assert layer[name]["core.soundness.calls"] == 0
    assert layer["s55_soundness"]["core.soundness.calls"] > 0
    assert layer["paxos1_gen_reduced"]["core.symmetry.reduction_ratio"] > 1
    assert layer["paxos2_explore_obs"]["obs.trace_bytes"] > 0
    assert layer["paxos2_explore_par"]["core.explore_parallel.speedup_vs_serial"] > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_span_accounting(name):
    report = run.spawn(name, seed=2, smoke=True, traced=True)
    trace = report["trace"]
    assert trace["min_self_s"] >= 0  # children never outlast their parent
    for key, (calls, self_s, inclusive_s) in trace["stats"].items():
        assert calls >= 0 and self_s >= 0, key
        if not key.startswith("bench.trace|"):
            assert self_s <= inclusive_s + 1e-9, key
    # Self times telescope to the root spans, which cover the timed region
    # (witness replay runs after it).
    covered = sum(
        stat[1] for key, stat in trace["stats"].items() if not key.startswith("replay|")
    )
    wall_s = report["raw"]["wall_s"]  # spans are clock readings, ticks included
    assert abs(covered - wall_s) <= max(0.02 * wall_s, 0.002), (covered, wall_s)


def test_wrappers_restore_the_originals():
    import importlib

    from bench.trace import FUNCTIONS, METHODS, Tracer
    from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

    for target in FUNCTIONS + METHODS:  # load every module the tracer patches
        importlib.import_module(target[1])

    def bindings():
        return {
            (name, attr): value
            for name, module in sys.modules.items()
            if name.split(".")[0] == "repro" and module is not None
            for attr, value in vars(module).items()
            if callable(value)
        }

    def class_methods():
        import repro.core.checker as checker
        import repro.network.monotonic as monotonic

        return [
            vars(monotonic.MonotonicNetwork)["add"],
            vars(checker.LocalModelChecker)["run"],
            vars(PaxosProtocol)["handle_message"],
            vars(PaxosAgreement)["check"],
        ]

    before, methods_before = bindings(), class_methods()
    tracer = Tracer()
    tracer.install(PaxosProtocol(num_nodes=3, proposals=()), PaxosAgreement(0))
    patched = bindings()
    for _layer, module, names in FUNCTIONS:
        for name in names:
            assert patched[(module, name)] is not before[(module, name)]
    assert all(a is not b for a, b in zip(class_methods(), methods_before))
    tracer.restore()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert all(a is b for a, b in zip(class_methods(), methods_before))


def test_untraced_path_never_loads_the_tracer():
    script = (
        "import runpy, sys\n"
        "sys.argv = ['child.py', 'paxos2_explore', '2', '1', '0', '1']\n"
        "runpy.run_path('bench/child.py', run_name='__main__')\n"
        "import bench.run\n"
        "assert 'bench.trace' not in sys.modules\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, cwd=ROOT
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("trace", (0, 1))
def test_driver_result_line(trace):
    proc = bench(
        "--workload", "paxos1_gen_reduced", "--smoke", "--seed", "5",
        "--seconds", "1", "--trace", str(trace),
    )  # fmt: skip
    assert proc.returncode == 0, proc.stderr + proc.stdout
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in line["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        os.path.join(ROOT, "bench"),
        tmp_path / "bench",
        ignore=shutil.ignore_patterns(".work", "__pycache__"),
    )
    proc = bench(
        "--workload", "paxos2_explore", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )  # fmt: skip
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_compare_verdicts():
    def side(low, median, high):
        return {"min": low, "median": median, "max": high, "n": 3}

    old = side(0.98, 1.0, 1.02)
    assert compare.verdict(old, side(0.99, 1.01, 1.03), 0.1, "lower") == "within"
    assert compare.verdict(old, side(1.18, 1.2, 1.22), 0.1, "lower") == "worse"
    assert compare.verdict(old, side(0.78, 0.8, 0.82), 0.1, "lower") == "better"
    assert compare.verdict(old, side(0.8, 1.05, 1.3), 0.1, "lower") == "unresolved"
    assert compare.verdict(old, side(1.18, 1.2, 1.22), 0.1, "higher") == "better"


def test_compare_command(smoke, tmp_path):
    slower = copy.deepcopy(smoke)
    row = slower["workloads"]["s55_soundness"]["end_to_end"]["wall_s"]
    for key in ("min", "median", "max"):
        row[key] *= 1.5
    slower["workloads"]["s55_soundness"]["per_layer"]["core.soundness.calls"] += 1
    paths = []
    for label, payload in (("old", smoke), ("new", slower)):
        paths.append(str(tmp_path / f"{label}.json"))
        with open(paths[-1], "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
    same = bench("--compare", paths[0], paths[0])
    assert same.returncode == 0 and " worse" not in same.stdout
    assert same.stdout.count("\n") >= len(WORKLOADS) * (len(SPEC["end_to_end"]) + 1)
    regressed = bench("--compare", paths[0], paths[1])
    assert regressed.returncode == 1
    assert [ln for ln in regressed.stdout.splitlines() if ln.endswith("worse")] != []
    assert "core.soundness.calls" in regressed.stdout
