"""Caches on vs caches off must be observationally identical.

The hot-path optimizations (interned hashing, memoized soundness replay,
incremental enumeration) are performance work only: every counter the §5
benches print, every verdict, and every witness trace must be byte-identical
with the caches disabled.  These tests check it in-process on the snapshot
experiments (§5.5 Paxos and §5.6 1Paxos), serially and with two
exploration workers, and on the benchmark workloads whose absolute counters
``golden/workload_counts.json`` pins.  Those workloads also rerun with
symmetry reduction and POR on, and one with two exploration workers at the
shipped thresholds.  The wall-clock side of the caches is
``benchmarks/test_cache_speedup.py``.
"""

import contextlib
import json
from pathlib import Path

import pytest

from repro.core.checker import LocalModelChecker, _ExplorationPass
from repro.core.config import LMCConfig
from repro.explore.budget import BudgetClock, SearchBudget
from repro.model import hashing
from repro.obs.emitter import MemoryEmitter
from repro.protocols.onepaxos import OnePaxosAgreement
from repro.protocols.onepaxos import scenarios as onepaxos_scenarios
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
)

GOLDEN_PATH = Path(__file__).parent / "golden" / "workload_counts.json"

#: Snapshot keys excluded from comparison: phase timers are wall-clock, and
#: the cache-hit counters are definitionally zero in the uncached run.
EXCLUDED_KEYS = ("phase_",)
CACHE_ONLY_KEYS = frozenset(
    {"sequence_cache_hits", "replay_cache_hits", "rejected_cache_evictions"}
)


def _observable(result):
    counts = {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith(EXCLUDED_KEYS) and key not in CACHE_ONLY_KEYS
    }
    return {
        "counts": counts,
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": [bug.description for bug in result.bugs],
        "traces": [bug.trace_lines() for bug in result.bugs],
    }


@contextlib.contextmanager
def _hashing_caches(cached):
    """The bench's uncached hashing configuration, undone on exit."""
    if not cached:
        hashing.configure_interning(False)
    try:
        yield
    finally:
        hashing.configure_interning(True)


def _run(make_checker, initial, cached, factory=LMCConfig.optimized, **overrides):
    if not cached:
        overrides.update(
            {"memoize_soundness": False, "incremental_enumeration": False}
        )
    with _hashing_caches(cached):
        return make_checker(factory(**overrides)).run(initial)


def _paxos_s55():
    protocol = scenario_protocol(buggy=True)
    invariant = PaxosAgreement(0)
    return protocol, invariant, partial_choice_state()


def _onepaxos_s56():
    protocol = onepaxos_scenarios.scenario_protocol(buggy=True)
    invariant = OnePaxosAgreement(0)
    return protocol, invariant, onepaxos_scenarios.post_leaderchange_state(protocol)


def _paxos(num_nodes=3):
    protocol = PaxosProtocol(num_nodes=num_nodes, proposals=((0, 0, "v0"),))
    return protocol, PaxosAgreement(0), None


def _twophase_timeout():
    return TimeoutTwoPhaseCommit(3), Atomicity(), None


#: name -> (scenario, LMC-OPT or LMC-GEN, budget, config overrides): the
#: workloads whose counters, completion and bugs ``golden/workload_counts.json``
#: pins.  Fig. 10's sweep brackets early, middle and full exploration;
#: ``paxos_sym`` gives three interchangeable acceptors to the reducer.
WORKLOADS = {
    "paxos_opt": (_paxos, LMCConfig.optimized, SearchBudget.unbounded(), {}),
    "paxos_gen": (_paxos, LMCConfig.general, SearchBudget.unbounded(), {}),
    **{
        f"fig10_d{depth}": (
            _paxos, LMCConfig.optimized, SearchBudget(max_depth=depth), {}
        )
        for depth in (4, 6, 8, 10)
    },
    "s55_snapshot": (_paxos_s55, LMCConfig.optimized, SearchBudget.unbounded(), {}),
    "s56_onepaxos": (_onepaxos_s56, LMCConfig.optimized, SearchBudget.unbounded(), {}),
    "paxos_faults": (
        _paxos,
        LMCConfig.optimized,
        SearchBudget.unbounded(),
        {"fault_events_enabled": True},
    ),
    "twophase_drops": (
        _twophase_timeout,
        LMCConfig.optimized,
        SearchBudget.unbounded(),
        {"drop_faults": True},
    ),
    "paxos_sym": (
        lambda: _paxos(num_nodes=4),
        LMCConfig.general,
        SearchBudget(max_depth=4),
        {},
    ),
}


def _run_workload(name, cached=True, emitter=None, **extra):
    scenario, factory, budget, overrides = WORKLOADS[name]
    protocol, invariant, initial = scenario()

    def make(config):
        return LocalModelChecker(protocol, invariant, budget, config, emitter)

    return _run(make, initial, cached, factory, **overrides, **extra)


def _golden(name):
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)[name]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_counts_match_golden(name):
    """Absolute counters, completion and bug descriptions of each workload.

    The golden file holds the cached rows of the cross-process benchmark
    baseline this suite replaced.  A counter it predates is not drift while
    it reads zero: the schema grew, the work did not.
    """
    expected = _golden(name)
    observed = _observable(_run_workload(name))
    observed["counts"] = {
        key: value
        for key, value in observed["counts"].items()
        if key in expected["counts"] or value
    }
    assert {key: observed[key] for key in expected} == expected


#: The workloads each cross-mode leg below reruns: every golden workload but
#: the slow LMC-GEN run and the other Fig. 10 depths.
CROSS_MODE = [
    pytest.param("s55_snapshot", id="s55"),
    pytest.param("s56_onepaxos", id="s56"),
    "paxos_opt",
    "fig10_d6",
    "paxos_faults",
    "twophase_drops",
    "paxos_sym",
]


@pytest.mark.parametrize("name", CROSS_MODE)
def test_local_checker_equivalent_with_and_without_caches(name):
    """The golden test above pins the cached run's counters and bugs."""
    cached = _run_workload(name, cached=True)
    assert _observable(_run_workload(name, cached=False)) == _observable(cached)


@pytest.mark.parametrize("name", CROSS_MODE)
def test_reduction_keeps_golden_completion_and_bugs(name):
    """Symmetry reduction and POR shrink the visit counts, never the verdict.

    The witness may be its orbit's canonical representative, so only the
    bug descriptions are compared, not the traces.
    """
    expected = _golden(name)
    reduced = _run_workload(name, symmetry_reduction=True, por_pruning=True)
    assert reduced.completed == expected["completed"]
    assert [bug.description for bug in reduced.bugs] == expected["bugs"]


def test_two_worker_exploration_at_default_thresholds_matches_serial():
    """At the shipped ``ROUND_THRESHOLD`` and ``SHARD_MIN`` the early rounds
    of three-node Paxos run serially and the later ones forked; the
    mixed run must equal the serial one in everything but ``explore_*``."""
    emitter = MemoryEmitter()
    parallel = _run_workload("paxos_opt", emitter=emitter, explore_workers=2)
    rounds = sum(1 for record in emitter.records if record.get("name") == "round")
    assert 0 < parallel.stats.explore_rounds_parallel < rounds

    def serial_view(result):
        observed = _observable(result)
        observed["counts"] = {
            key: value
            for key, value in observed["counts"].items()
            if not key.startswith("explore_")
        }
        return observed

    assert serial_view(parallel) == serial_view(_run_workload("paxos_opt"))


#: A deterministic transition budget keeps the snapshot runs short; with
#: every round dispatched, it still forks dozens of times.
EXPLORE_BUDGET = SearchBudget(max_transitions=400)


@pytest.mark.usefixtures("dispatch_every_round")
@pytest.mark.parametrize("scenario", [_paxos_s55, _onepaxos_s56], ids=["s55", "s56"])
def test_explore_workers_equivalent_with_and_without_caches(scenario):
    """The caches are off in the uncached run, for the coordinator and the
    forked children it speculates in alike.  Neither may show in any
    result."""
    protocol, invariant, initial = scenario()

    def make(config):
        return LocalModelChecker(protocol, invariant, budget=EXPLORE_BUDGET, config=config)

    cached = _run(make, initial, cached=True, explore_workers=2)
    uncached = _run(make, initial, cached=False, explore_workers=2)
    assert cached.stats.explore_rounds_parallel > 0
    assert _observable(cached) == _observable(uncached)


@pytest.mark.usefixtures("dispatch_every_round")
def test_explore_workers_confirm_bug_identically_with_and_without_caches():
    """On a space small enough to exhaust, the confirmed bug is identical."""
    protocol = EagerCommitCoordinator(3, no_voters=(2,))

    def make(config):
        return LocalModelChecker(protocol, CommitValidity(), config=config)

    cached = _run(make, None, cached=True, explore_workers=2)
    uncached = _run(make, None, cached=False, explore_workers=2)
    assert cached.found_bug and uncached.found_bug
    assert _observable(cached) == _observable(uncached)


def test_s55_smoke_budget_identical_across_memoize():
    """The starvation quotient is unconditional; it must be invisible everywhere.

    The §5.5 snapshot at the bench's smoke budget (``bench/workloads.py``:
    520 transitions), ``memoize_soundness`` on/off: same counters, same bug
    set, same witness event tuples.
    """
    protocol, invariant, initial = _paxos_s55()
    budget = SearchBudget(max_transitions=520)

    def observe(memoize):
        config = LMCConfig.optimized(
            stop_on_first_bug=False, memoize_soundness=memoize
        )
        result = LocalModelChecker(protocol, invariant, budget, config).run(initial)
        observed = _observable(result)
        observed["witnesses"] = [bug.trace for bug in result.bugs]
        return observed

    reference = observe(True)
    assert reference["counts"]["confirmed_bugs"] > 0
    assert observe(False) == reference


def _stored_hashes(cached):
    """Every content hash a depth-4 two-proposal Paxos pass keeps — node
    states, ``I+`` messages, link event/consumed/generated hashes — each
    checked against the uncached reference walk of the value it names."""
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1")))
    # The pass reads its depth bound from ``checker.budget``; the clock only
    # enforces transition/state/time limits.
    checker = LocalModelChecker(
        protocol,
        PaxosAgreement(0),
        budget=SearchBudget(max_depth=4),
        config=LMCConfig.optimized(),
    )
    with _hashing_caches(cached):
        run = _ExplorationPass(
            checker,
            protocol.initial_system_state(),
            BudgetClock(checker.budget),
            None,
        )
        run.execute()
    states, links = [], []
    for store in run.space.stores.values():
        for record in store:
            assert record.hash == hashing.content_hash(record.state, intern=False)
            states.append(record.hash)
            for link in record.predecessors:
                assert link.event_hash == hashing.content_hash(link.event, intern=False)
                links.append(
                    (link.prev_hash, link.event_hash, link.consumed_hash)
                    + link.generated_hashes
                )
    messages = []
    for stored in run.network.all_messages():
        assert stored.hash == hashing.content_hash(stored.message, intern=False)
        messages.append(stored.hash)
    return sorted(states), sorted(messages), sorted(links, key=repr)


def test_value_memo_hashes_equal_the_uncached_configuration():
    """The value memo (``by_value=True`` call sites) serves exactly the
    digests the no-interner configuration computes."""
    memoised = _stored_hashes(cached=True)
    assert hashing.intern_stats()["value_hits"] > 0
    assert len(memoised[0]) > 500 and len(memoised[1]) > 20
    assert _stored_hashes(cached=False) == memoised


def test_a_repeated_run_re_walks_no_state():
    """A new record's size comes from the same lookup as its hash.

    The second of two identical runs in one process (the shape of the
    online loop's restarts) meets every successor as a fresh object equal
    to one the first run encoded: the value memo answers its hash, and the
    size must come from that answer too, not from a second walk of the
    state (which cost 23,289 interner misses on this space).
    """
    hashing.configure_interning(False)
    hashing.configure_interning(True)
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1")))

    def run():
        return LocalModelChecker(
            protocol,
            PaxosAgreement(0),
            budget=SearchBudget(max_depth=5),
            config=LMCConfig.optimized(),
        ).run()

    first = run()
    misses = hashing.intern_stats()["misses"]
    second = run()
    assert second.stats.node_states == first.stats.node_states == 3894
    assert _observable(second) == _observable(first)
    assert hashing.intern_stats()["misses"] - misses < 100
