"""What the equivalence suites compare, and the snapshots they compare on.

Each suite runs the checker in two configurations that must be
observationally identical: the same counters, verdicts and witnesses.
"""

from repro.protocols.onepaxos import OnePaxosAgreement
from repro.protocols.onepaxos import scenarios as onepaxos_scenarios
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol

#: Counters no two runs share: the phase timers are wall-clock.
WALL_CLOCK_PREFIXES = ("phase_",)

#: Counters only the soundness caches move.
CACHE_ONLY_KEYS = frozenset(
    {"sequence_cache_hits", "replay_cache_hits", "rejected_cache_evictions"}
)


def observable(result, prefixes=WALL_CLOCK_PREFIXES, keys=frozenset()):
    """Counters, verdict and witnesses of ``result``.

    Counters whose name starts with one of ``prefixes`` or is one of
    ``keys`` are left out.
    """
    counts = {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith(prefixes) and key not in keys
    }
    return {
        "counts": counts,
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": [bug.description for bug in result.bugs],
        "traces": [bug.trace_lines() for bug in result.bugs],
    }


def paxos_s55():
    """The §5.5 workload: buggy Paxos from its partial-choice snapshot."""
    return scenario_protocol(buggy=True), PaxosAgreement(0), partial_choice_state()


def onepaxos_s56():
    """The §5.6 workload: buggy 1Paxos after its leader change."""
    protocol = onepaxos_scenarios.scenario_protocol(buggy=True)
    initial = onepaxos_scenarios.post_leaderchange_state(protocol)
    return protocol, OnePaxosAgreement(0), initial
