"""Shared fixtures for the figure/table benchmarks.

Every bench regenerates one figure or table of the paper's evaluation (§5)
and *prints* the series the figure plots, via the ``report`` fixture, which
also persists the text under ``benchmarks/results/`` so EXPERIMENTS.md can
quote it.  Shape assertions (who wins, by roughly what factor) live in the
benches themselves; absolute numbers are hardware-bound and not asserted.
"""

from __future__ import annotations

import os
import re
import sys

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")


def _assert_results_not_rotted() -> None:
    """Every persisted ``results/*.txt`` must belong to a live bench test.

    The ``report`` fixture names each result file after the test that wrote
    it, so a file whose stem no longer matches any ``def test_...`` in this
    directory is rot: its numbers would keep being quoted (EXPERIMENTS.md
    references these files) long after the test that produced them was
    renamed or deleted.  Checked statically against the test *sources*, not
    the collected items, so ``-k``/path selections never trip it.
    """
    if not os.path.isdir(RESULTS_DIR):
        return
    bench_dir = os.path.dirname(__file__)
    defined = set()
    for filename in os.listdir(bench_dir):
        if filename.startswith("test_") and filename.endswith(".py"):
            with open(os.path.join(bench_dir, filename)) as handle:
                defined.update(re.findall(r"^\s*def (test_\w+)", handle.read(), re.M))
    stale = sorted(
        name
        for name in os.listdir(RESULTS_DIR)
        if name.endswith(".txt")
        # Parametrized tests persist as test_name[param]; match the base.
        and re.sub(r"\[.*\]$", "", name[: -len(".txt")]) not in defined
    )
    if stale:
        raise pytest.UsageError(
            "stale benchmark results (no matching test defines them): "
            + ", ".join(stale)
            + " — delete the file(s) or restore the test(s)"
        )


_assert_results_not_rotted()


@pytest.fixture(scope="session")
def single_proposal_runs():
    """The Fig. 10-12 workload, run once per bench session.

    Three-node Paxos, one proposal (the 22-event space), explored by B-DFS,
    LMC-GEN, LMC-OPT and LMC-local (system-state creation disabled).
    """
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
    invariant = PaxosAgreement(0)
    runs = {
        "B-DFS": GlobalModelChecker(
            protocol, invariant, budget=SearchBudget(max_seconds=600)
        ).run(),
        "LMC-GEN": LocalModelChecker(
            protocol, invariant, config=LMCConfig.general()
        ).run(),
        "LMC-OPT": LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized()
        ).run(),
        "LMC-local": LocalModelChecker(
            protocol, invariant, config=LMCConfig(create_system_states=False)
        ).run(),
    }
    for label, result in runs.items():
        if result.series is not None:
            result.series.label = label
    return runs


@pytest.fixture
def report(request):
    """Print a bench's tables and persist them under benchmarks/results/."""

    chunks = []

    def _report(text: str) -> None:
        chunks.append(text)
        sys.stdout.write("\n" + text + "\n")

    yield _report

    if chunks:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        name = request.node.name.replace("/", "_")
        path = os.path.join(RESULTS_DIR, f"{name}.txt")
        with open(path, "w") as handle:
            handle.write("\n\n".join(chunks) + "\n")
