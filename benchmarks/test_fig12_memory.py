"""Figure 12: memory consumption vs depth, single-proposal Paxos.

Paper result: B-DFS's memory grows exponentially with depth while every LMC
configuration stays small (~200 KB total) and grows only linearly — LMC
retains node states only, and system states are temporary.  Our metric is
measured, not modelled: each configuration runs on its own under
:mod:`tracemalloc`, from a cold hash interner, and every depth sample
carries the bytes of Python objects alive at that point (``live_bytes``,
:func:`repro.obs.metrics.live_bytes`).  B-DFS is bounded at depth 11, deep
enough for its growth to dwarf LMC's.
"""

import tracemalloc

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.model.hashing import configure_interning
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.stats.reporting import format_depth_series, format_table

#: B-DFS's depth bound.
BDFS_DEPTH = 11


@pytest.fixture(scope="module")
def traced_runs():
    """The Fig. 10-12 workload, each configuration traced on its own."""
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
    invariant = PaxosAgreement(0)
    checkers = {
        "B-DFS": lambda: GlobalModelChecker(
            protocol, invariant, budget=SearchBudget(max_depth=BDFS_DEPTH)
        ),
        "LMC-GEN": lambda: LocalModelChecker(
            protocol, invariant, config=LMCConfig.general()
        ),
        "LMC-OPT": lambda: LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized()
        ),
        "LMC-local": lambda: LocalModelChecker(
            protocol, invariant, config=LMCConfig(create_system_states=False)
        ),
    }
    runs = {}
    for label, make in checkers.items():
        # A warm interner would hold values an earlier run paid for.
        configure_interning(False)
        configure_interning(True)
        tracemalloc.start()
        try:
            runs[label] = make().run()
        finally:
            tracemalloc.stop()
        runs[label].series.label = label
    return runs


def test_fig12_memory(traced_runs, report):
    runs = traced_runs
    report(
        format_depth_series(
            [run.series for run in runs.values()],
            "live_bytes",
            "Figure 12 — live bytes at completed depth",
        )
    )
    finals = {
        label: run.series.final().get("live_bytes")
        for label, run in runs.items()
    }
    report(
        "Figure 12 — final live bytes\n"
        + format_table(["configuration", "bytes"], sorted(finals.items()))
    )

    # Shape: the three LMC configurations are close together ("overlapped in
    # the figure") while B-DFS retains much more.
    lmc_values = [
        finals["LMC-GEN"], finals["LMC-OPT"], finals["LMC-local"]
    ]
    assert max(lmc_values) < 2.5 * min(lmc_values)
    assert finals["B-DFS"] > 2 * max(lmc_values)


def test_fig12_bdfs_growth_is_superlinear(traced_runs):
    runs = traced_runs
    series = runs["B-DFS"].series
    memory = series.column("live_bytes")
    # Growth happens until the space is (nearly) exhausted or the bound
    # stops it; compare the slope of the second half of the growth region
    # against the first half — an exponential's dwarfs a line's.
    peak = max(memory)
    growth_end = next(i for i, m in enumerate(memory) if m >= 0.95 * peak)
    assert growth_end >= 4, "growth region too short to measure"
    mid = growth_end // 2
    head_slope = (memory[mid] - memory[0]) / max(mid, 1)
    tail_slope = (memory[growth_end] - memory[mid]) / max(growth_end - mid, 1)
    assert tail_slope > 3 * head_slope


def test_fig12_lmc_growth_is_modest(traced_runs):
    runs = traced_runs
    series = runs["LMC-OPT"].series
    memory = series.column("live_bytes")
    assert memory[-1] < 64 * 1024 * 1024  # sanity ceiling
    # Monotone non-decreasing (the checker only accumulates).
    assert all(a <= b for a, b in zip(memory, memory[1:]))
