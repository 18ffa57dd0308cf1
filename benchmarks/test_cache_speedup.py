"""Hot-path caches: LMC-OPT on single-proposal Paxos, cached vs uncached.

The caches of docs/PERFORMANCE.md (hash interning, memoised soundness,
incremental enumeration) are semantics-preserving — tier-1's
``tests/core/test_cache_equivalence.py`` holds every counter, verdict and
witness equal with them off — so what is left to measure is the wall clock.
Each mode runs in a fresh interpreter, so every run starts from cold caches
and no state warmed by the other mode; the best of three runs per mode is
kept, because scheduling noise only ever adds time.  The bound is the 2x
the caches were introduced with.
"""

import json
import os
import subprocess
import sys

from repro.stats.reporting import format_table

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
REPEATS = 3

#: One run of the unbounded single-proposal workload; prints wall seconds and
#: transitions as JSON.  ``uncached`` turns off every cache the library has.
CHILD = """
import json, sys, time
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.model import hashing
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

overrides = {}
if sys.argv[1] == "uncached":
    hashing.configure_interning(False)
    overrides = {"memoize_soundness": False, "incremental_enumeration": False}
checker = LocalModelChecker(
    PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
    PaxosAgreement(0),
    SearchBudget.unbounded(),
    LMCConfig.optimized(**overrides),
)
started = time.perf_counter()
result = checker.run()
print(json.dumps([time.perf_counter() - started, result.stats.transitions]))
"""


def _best_of(mode):
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    runs = [
        json.loads(
            subprocess.run(
                [sys.executable, "-c", CHILD, mode],
                capture_output=True,
                check=True,
                env=env,
                text=True,
            ).stdout
        )
        for _ in range(REPEATS)
    ]
    assert len({transitions for _wall, transitions in runs}) == 1
    return min(wall for wall, _transitions in runs), runs[0][1]


def test_paxos_opt_cache_speedup(report):
    cached, transitions = _best_of("cached")
    uncached, uncached_transitions = _best_of("uncached")
    assert uncached_transitions == transitions
    speedup = uncached / cached
    report(
        format_table(
            ["mode", f"best of {REPEATS} (s)", "transitions"],
            [
                ["cached", f"{cached:.3f}", transitions],
                ["uncached", f"{uncached:.3f}", transitions],
                ["speedup", f"{speedup:.2f}x", ""],
            ],
        )
    )
    assert speedup >= 2.0
