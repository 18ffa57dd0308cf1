"""What the equivalence suites compare, and the snapshots they compare on.

Each suite runs the checker in two configurations that must be
observationally identical: the same counters, verdicts and witnesses.
Checkpoint payloads of two runs compare through :func:`without_clocks`
and :func:`renumber_steps`.
"""

from repro.core.checkpoint import LINKS
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


def without_clocks(value):
    """A checkpoint payload minus what depends on the wall clock or the
    process (a depth series row keeps its depth and metrics)."""
    if isinstance(value, dict):
        return {
            key: (
                [[depth, without_clocks(metrics)] for depth, _elapsed, metrics in item]
                if key == "series"
                else without_clocks(item)
            )
            for key, item in value.items()
            if key not in ("elapsed_s", "phase_seconds", "rss_bytes")
            and not key.startswith("phase_")
        }
    if isinstance(value, list):
        return [without_clocks(item) for item in value]
    return value


def renumber_steps(payload):
    """``payload`` with its step table in the order the stores' links first
    name the steps, every link renumbered to match, in place.

    A run numbers its steps in the order it met them; upgrading a
    version-5 log numbers them in link order, since that log kept no step
    ids.  Steps no link names keep their order, after the rest.
    """
    data = payload["pass"]
    order = {}
    for _node, store in data["stores"]:
        for row in store["records"]:
            for step in row[LINKS][1::2]:
                order.setdefault(step, len(order))
    for step in range(len(data["steps"])):
        order.setdefault(step, len(order))
    for _node, store in data["stores"]:
        for row in store["records"]:
            row[LINKS][1::2] = [order[step] for step in row[LINKS][1::2]]
    steps = list(data["steps"])
    for step, renumbered in order.items():
        data["steps"][renumbered] = steps[step]
    return payload


def paxos_s55():
    """The §5.5 workload: buggy Paxos from its partial-choice snapshot."""
    return scenario_protocol(buggy=True), PaxosAgreement(0), partial_choice_state()


def onepaxos_s56():
    """The §5.6 workload: buggy 1Paxos after its leader change."""
    protocol = onepaxos_scenarios.scenario_protocol(buggy=True)
    initial = onepaxos_scenarios.post_leaderchange_state(protocol)
    return protocol, OnePaxosAgreement(0), initial
