"""Caches on vs caches off must be observationally identical.

PR 3's hot-path optimizations (interned hashing, memoized soundness replay,
incremental enumeration) are performance work only: every counter the §5
benches print, every verdict, and every witness trace must be byte-identical
with the caches disabled.  ``tools/bench.py`` checks this across processes;
these tests check it in-process on the two snapshot experiments (§5.5 Paxos
and §5.6 1Paxos), for both the sequential and the parallel front-end.
"""

import contextlib

import pytest

from repro.core.checker import LocalModelChecker, _ExplorationPass
from repro.core.config import LMCConfig
from repro.core.parallel import ParallelLocalModelChecker
from repro.explore.budget import BudgetClock, SearchBudget
from repro.model import hashing
from repro.protocols.onepaxos import OnePaxosAgreement
from repro.protocols.onepaxos import scenarios as onepaxos_scenarios
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator

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


def _run(make_checker, initial, cached, **extra):
    overrides = dict(extra)
    if not cached:
        overrides.update(
            {"memoize_soundness": False, "incremental_enumeration": False}
        )
    with _hashing_caches(cached):
        return make_checker(LMCConfig.optimized(**overrides)).run(initial)


def _paxos_s55():
    protocol = scenario_protocol(buggy=True)
    invariant = PaxosAgreement(0)
    return protocol, invariant, partial_choice_state()


def _onepaxos_s56():
    protocol = onepaxos_scenarios.scenario_protocol(buggy=True)
    invariant = OnePaxosAgreement(0)
    return protocol, invariant, onepaxos_scenarios.post_leaderchange_state(protocol)


@pytest.mark.parametrize("scenario", [_paxos_s55, _onepaxos_s56], ids=["s55", "s56"])
def test_local_checker_equivalent_with_and_without_caches(scenario):
    protocol, invariant, initial = scenario()

    def make(config):
        return LocalModelChecker(protocol, invariant, config=config)

    cached = _run(make, initial, cached=True)
    uncached = _run(make, initial, cached=False)
    assert cached.found_bug and uncached.found_bug
    assert _observable(cached) == _observable(uncached)


#: The parallel front-end defers soundness verification to the next buffer
#: flush, so it stops on the first bug later than the inline checker and
#: would otherwise explore much more of the snapshot spaces; a deterministic
#: transition budget (the parallel ablation bench's pattern) keeps the work
#: list identical across modes and the test fast.
PARALLEL_BUDGET = SearchBudget(max_transitions=400)


@pytest.mark.parametrize("scenario", [_paxos_s55, _onepaxos_s56], ids=["s55", "s56"])
def test_parallel_checker_equivalent_with_and_without_caches(scenario):
    protocol, invariant, initial = scenario()

    def make(config):
        return ParallelLocalModelChecker(
            protocol, invariant, budget=PARALLEL_BUDGET, config=config, workers=0
        )

    cached = _run(make, initial, cached=True)
    uncached = _run(make, initial, cached=False)
    assert _observable(cached) == _observable(uncached)


def test_parallel_confirms_bug_identically_with_and_without_caches():
    """On a space small enough to exhaust, the confirmed bug is identical."""
    protocol = EagerCommitCoordinator(3, no_voters=(2,))

    def make(config):
        return ParallelLocalModelChecker(
            protocol, CommitValidity(), config=config, workers=0
        )

    cached = _run(make, None, cached=True)
    uncached = _run(make, None, cached=False)
    assert cached.found_bug and uncached.found_bug
    assert _observable(cached) == _observable(uncached)


def test_s55_smoke_budget_identical_across_memoize_and_front_end():
    """The starvation quotient is unconditional; it must be invisible everywhere.

    The §5.5 snapshot at the bench's smoke budget (``bench/workloads.py``:
    520 transitions), ``memoize_soundness`` on/off × inline / deferred
    verification: same counters, same bug set, same witness event tuples.
    At this budget the deferred front-end verifies against the predecessor
    DAG the inline one saw, so the two are comparable counter for counter.
    """
    protocol, invariant, initial = _paxos_s55()
    budget = SearchBudget(max_transitions=520)

    def observe(front_end, memoize):
        config = LMCConfig.optimized(
            stop_on_first_bug=False, memoize_soundness=memoize
        )
        result = front_end(protocol, invariant, budget, config).run(initial)
        observed = _observable(result)
        observed["witnesses"] = [bug.trace for bug in result.bugs]
        return observed

    reference = observe(LocalModelChecker, True)
    assert reference["counts"]["confirmed_bugs"] > 0
    assert observe(LocalModelChecker, False) == reference
    for memoize in (True, False):
        assert observe(ParallelLocalModelChecker, memoize) == reference


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
