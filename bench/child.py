"""One repetition of one workload, in a fresh process.

    python3 bench/child.py WORKLOAD SEED SMOKE TRACED VERIFY      (the last three: 0|1)

A fresh process per repetition gives cold caches and an honest peak RSS.
The report is one JSON object on the last line of stdout.  Witness
validation and the other known-answer checks run after the timed region;
peak RSS and CPU are read before them.

Set-up and the timed region run under a :class:`bench.yardstick.Yardstick`:
``raw`` in the report is what the clocks read, ``end_to_end`` the same times
without the yardstick's ticks and rescaled by ``speed`` to the quiet box.
"""

import time

_ENTERED = time.perf_counter()  # setup_s counts from here: before repro loads

import json
import os
import resource
import shutil
import sys
import tempfile
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
# The checkout installs nothing: import ``repro`` from source and ``bench`` as
# a package (which also keeps bench/trace.py from shadowing the stdlib's).
sys.path[0] = ROOT
sys.path.insert(1, os.path.join(ROOT, "src"))


def _cpu(who: int) -> float:
    usage = resource.getrusage(who)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    """This process's own high-water mark.

    ``ru_maxrss`` will not do: across ``exec`` it keeps the spawning
    process's peak, so a workload smaller than whatever runs the benchmark
    would report that instead.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list) -> None:
    name, seed, smoke, traced = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    verify = argv[4] == "1"

    from bench.yardstick import Yardstick

    box = Yardstick()
    box.start()

    import repro.replay
    from repro.core.pool import shutdown_worker_pool
    from repro.model.hashing import intern_stats

    from bench import workloads

    work_root = os.path.join(BENCH_DIR, ".work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    tracer = None
    try:
        if traced:
            from bench.trace import Tracer

            tracer = Tracer()
        prepared = workloads.build(name, seed, smoke, workdir, tracer)
        if tracer is not None:
            tracer.install(prepared.protocol, prepared.invariant)

        self_cpu, workers_cpu = _cpu(resource.RUSAGE_SELF), _cpu(resource.RUSAGE_CHILDREN)
        setup_ticks_s = box.busy_s
        started = time.perf_counter()
        try:
            outcome = prepared.run()
        except Exception:  # noqa: BLE001 - an exception is a failed op, reported
            outcome = workloads.Outcome(
                [workloads.Op(name, [], traceback.format_exc())], {}, {}
            )
        wall_s = time.perf_counter() - started
        box.stop()
        run_ticks_s = box.busy_s - setup_ticks_s
        # Reaping the pool is what moves its workers' CPU into RUSAGE_CHILDREN.
        shutdown_worker_pool()
        workers_cpu = _cpu(resource.RUSAGE_CHILDREN) - workers_cpu
        cpu_s = _cpu(resource.RUSAGE_SELF) - self_cpu + workers_cpu
        peak_rss_mb = _peak_rss_mb()

        # Every reported bug must replay, under consuming semantics, to a
        # state that violates the invariant — independent of LMC.
        witness_events = 0
        validate_started = time.perf_counter()
        for op in outcome.ops:
            for bug in op.bugs:
                witness_events += len(bug.trace)
                replayed = repro.replay.validate_bug(
                    prepared.protocol, bug, prepared.invariant
                )
                if not (replayed.complete and replayed.violates) and not op.why_failed:
                    op.why_failed = (
                        f"witness does not replay to a violating state (executed "
                        f"{replayed.executed}/{len(bug.trace)} events, "
                        f"violates={replayed.violates})"
                    )
        validate_s = time.perf_counter() - validate_started
        if tracer is not None:
            tracer.restore()  # the remaining checks are not part of the workload
        if (
            verify
            and prepared.verify is not None
            and not any(op.why_failed for op in outcome.ops)
        ):
            prepared.verify(outcome)
    finally:
        box.stop()
        if tracer is not None:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    speed = box.speed()
    setup_s = started - _ENTERED
    report = {
        "workload": name,
        "end_to_end": {
            "wall_s": (wall_s - run_ticks_s) * speed,
            "cpu_s": (cpu_s - run_ticks_s) * speed,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": (setup_s - setup_ticks_s) * speed,
        },
        "raw": {
            "wall_s": wall_s,
            "cpu_s": cpu_s,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": setup_s,
        },
        "speed": speed,
        "ticks": len(box.ticks),
        #: What rescales a time measured inside the timed region, ticks included.
        "scale": speed * (wall_s - run_ticks_s) / wall_s,
        "ops": [{"name": op.name, "why_failed": op.why_failed} for op in outcome.ops],
        "bugs": sorted(bug.description for op in outcome.ops for bug in op.bugs),
        "counters": outcome.counters,
        "phase_seconds": outcome.phase_seconds,
        "extra": {
            **outcome.extra,
            "worker_cpu_s": workers_cpu,
            "validate_s": validate_s,
            "witness_events": witness_events,
            "intern": intern_stats(),
        },
        "trace": tracer.report() if tracer is not None else None,
    }
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:])
