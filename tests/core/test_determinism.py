"""Determinism: identical inputs must produce identical explorations.

Content hashing is process-stable (BLAKE2b over canonical encodings, not
Python's salted ``hash``), handlers are pure, and the checkers consult the
wall clock only for budgets — so every counter of two identical runs must
coincide exactly.  This is what makes counterexamples reproducible and the
benches meaningful.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol

COUNTERS = (
    "transitions",
    "noop_executions",
    "global_states",
    "node_states",
    "system_states_created",
    "invariant_checks",
    "preliminary_violations",
    "soundness_calls",
    "soundness_sequences",
    "confirmed_bugs",
    "history_skips",
    "suppressed_duplicates",
)


def counters_of(result):
    return {name: getattr(result.stats, name) for name in COUNTERS}


def test_lmc_runs_identically_twice():
    def run():
        return LocalModelChecker(
            PaxosProtocol(), PaxosAgreement(0), config=LMCConfig.optimized()
        ).run()

    assert counters_of(run()) == counters_of(run())


def test_global_runs_identically_twice():
    # Depth 10 is 2,158 global states: enough for the search order to matter.
    def run():
        return GlobalModelChecker(
            PaxosProtocol(), PaxosAgreement(0), budget=SearchBudget(max_depth=10)
        ).run()

    assert counters_of(run()) == counters_of(run())


def test_bug_witness_identical_across_runs():
    def run():
        return LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            config=LMCConfig.optimized(),
        ).run(partial_choice_state())

    first, second = run(), run()
    assert first.first_bug().trace == second.first_bug().trace
    assert first.first_bug().violating_state == second.first_bug().violating_state


COUNTER_SCRIPT = (
    "from repro.core.checker import LocalModelChecker\n"
    "from repro.core.config import LMCConfig\n"
    "from repro.protocols.paxos import PaxosAgreement, PaxosProtocol\n"
    "r = LocalModelChecker(PaxosProtocol(), PaxosAgreement(0),"
    " config=LMCConfig.optimized()).run()\n"
    "print(r.stats.transitions, r.stats.node_states,"
    " r.stats.history_skips)\n"
)

#: Prints every content hash a default-Paxos pass stores: node states, ``I+``
#: messages and predecessor-link event hashes, sorted.
HASH_SCRIPT = (
    "from repro.core.checker import LocalModelChecker, _ExplorationPass\n"
    "from repro.core.config import LMCConfig\n"
    "from repro.explore.budget import BudgetClock, SearchBudget\n"
    "from repro.protocols.paxos import PaxosAgreement, PaxosProtocol\n"
    "p = PaxosProtocol()\n"
    "run = _ExplorationPass(LocalModelChecker(p, PaxosAgreement(0),"
    " config=LMCConfig.optimized()), p.initial_system_state(),"
    " BudgetClock(SearchBudget.unbounded()), None)\n"
    "run.execute()\n"
    "stores = run.space.stores.values()\n"
    "records = [r for store in stores for r in store]\n"
    "print(sorted(r.hash for r in records))\n"
    "print(sorted(m.hash for m in run.network.messages_since(0)))\n"
    "print(sorted(step.event_hash for store in stores for r in store"
    " for _prev, step in store.links_of(r)))\n"
)


def _run_in_child(script: str, seed: str) -> str:
    """``script`` under a scrubbed environment (fresh hash seed, nothing
    else) — except that the child must still find the package when the
    suite runs from a plain checkout via PYTHONPATH=src, so the checkout's
    src dir (and any caller-provided PYTHONPATH) is forwarded."""
    src_dir = Path(__file__).resolve().parents[2] / "src"
    pythonpath = os.pathsep.join(
        [str(src_dir)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={
            "PYTHONHASHSEED": seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": pythonpath,
        },
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_determinism_across_processes():
    """Content hashing must not depend on PYTHONHASHSEED."""
    assert _run_in_child(COUNTER_SCRIPT, "1") == _run_in_child(COUNTER_SCRIPT, "424242")


def test_memoised_hashes_reproduced_by_a_second_process():
    """The interner's cons table hashes its keys (strings among them) with
    Python's salted ``hash``; what it serves must not depend on the salt,
    nor on what this process interned before."""
    here = io.StringIO()
    with contextlib.redirect_stdout(here):
        exec(HASH_SCRIPT, {})  # this process: warm interner, its own salt
    assert here.getvalue().count("\n") == 3
    assert _run_in_child(HASH_SCRIPT, "7") == here.getvalue()
