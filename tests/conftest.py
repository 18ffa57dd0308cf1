"""Shared expensive fixtures: full explorations of the Fig. 10 Paxos space.

Several test modules compare algorithms on the paper's single-proposal
space, so the full LMC-GEN and LMC-OPT runs happen once per session and
are shared read-only.  The B-DFS baseline on that space takes tens of
seconds and lives in ``benchmarks/`` (``test_s51_transition_counts``).
"""

import pytest

import repro.core.explore_parallel as explore_parallel
from repro.core.checker import LocalModelChecker
from repro.obs.registry import RUNS_ROOT_ENV


@pytest.fixture(autouse=True)
def _isolated_runs_root(monkeypatch, tmp_path_factory):
    """Point the run registry at a per-test temp root.

    CLI runs register themselves by default; without this every test that
    calls ``main`` would drop ``.lmc/runs`` directories into the repo.
    """
    monkeypatch.setenv(
        RUNS_ROOT_ENV, str(tmp_path_factory.mktemp("lmc-runs"))
    )
from repro.core.config import LMCConfig
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol


@pytest.fixture(scope="module")
def dispatch_every_round():
    """Parallelize every exploration round and shard to single items, so
    tiny test spaces still cross the dispatch/merge machinery many times."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explore_parallel, "ROUND_THRESHOLD", 1)
        patch.setattr(explore_parallel, "SHARD_MIN", 1)
        yield


def paxos_space():
    return PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)), PaxosAgreement(0)


@pytest.fixture(scope="session")
def paxos_gen_full():
    """Complete LMC-GEN exploration of the single-proposal space."""
    protocol, invariant = paxos_space()
    return LocalModelChecker(
        protocol, invariant, config=LMCConfig.general()
    ).run()


@pytest.fixture(scope="session")
def paxos_opt_full():
    """Complete LMC-OPT exploration of the single-proposal space."""
    protocol, invariant = paxos_space()
    return LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized()
    ).run()
