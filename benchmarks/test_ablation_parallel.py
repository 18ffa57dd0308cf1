"""Ablation: the "embarrassingly parallelized" claim of the paper's intro.

"Having the exploration, system state creation, and soundness verification
decoupled, the model checking process can be embarrassingly parallelized to
benefit from the ever increasing number of cores."

The bench decouples exactly as the paper suggests: the exploration pass
buffers preliminary violations; the soundness verifications — each an
independent combination search — fan out over worker processes, a buffer at
a time.  Measured on the soundness-heavy §5.5 snapshot (with a deterministic
transition budget so every configuration verifies the same work list), next
to the sequential checker verifying inline, so the break-even between
"search in place" and "pickle, ship, search, ship back" stays visible
(docs/PERFORMANCE.md, "When pooled verification pays").
"""

import time

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.parallel import ParallelLocalModelChecker
from repro.explore.budget import SearchBudget
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.stats.reporting import format_table

#: Deterministic exploration bound: every configuration finds the same
#: 8,448 preliminary violations, so only verification throughput differs.
BUDGET = SearchBudget(max_transitions=760)
CONFIG = LMCConfig.optimized(stop_on_first_bug=False)


@pytest.fixture(scope="module")
def measurements():
    rows = []
    for workers in ("serial", 0, 2, 4):
        protocol = scenario_protocol(buggy=True)
        started = time.perf_counter()
        if workers == "serial":
            checker = LocalModelChecker(protocol, PaxosAgreement(0), BUDGET, CONFIG)
        else:
            checker = ParallelLocalModelChecker(
                protocol, PaxosAgreement(0), BUDGET, CONFIG, workers=workers
            )
        result = checker.run(partial_choice_state())
        elapsed = time.perf_counter() - started
        rows.append(
            {
                "workers": workers,
                "elapsed": elapsed,
                "soundness_calls": result.stats.soundness_calls,
                "confirmed": result.stats.confirmed_bugs,
            }
        )
    return rows


def test_parallel_configurations_agree(measurements, report):
    table = [
        (
            {"serial": "inline (LocalModelChecker)", 0: "deferred, in-process"}.get(
                row["workers"], f"deferred, {row['workers']} workers"
            ),
            round(row["elapsed"], 3),
            row["soundness_calls"],
            row["confirmed"],
        )
        for row in measurements
    ]
    report(
        "Ablation — parallel soundness verification\n"
        + format_table(
            ["verification", "elapsed s", "verifications", "confirmed bugs"],
            table,
        )
        + "\n(identical work lists; wall time includes pool startup, so the "
        "pool wins only when a soundness call costs well above its pickling)"
    )
    calls = {row["soundness_calls"] for row in measurements}
    confirmed = {row["confirmed"] for row in measurements}
    assert len(calls) == 1, "every configuration must verify the same list"
    assert len(confirmed) == 1, "every configuration must confirm the same bugs"
    assert measurements[0]["confirmed"] > 0
