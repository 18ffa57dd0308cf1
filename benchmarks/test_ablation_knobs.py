"""Ablations of the §4.2 pragmatic knobs DESIGN.md calls out.

Three design choices get quantified on the single-proposal Paxos space:

* the duplicate-message limit (paper uses 0 — extra copies are pure waste);
* the message-history rule (never redeliver a message already executed on
  the path) — measured through its skip counter;
* the reverify-rejected extension (our completeness patch for the paper's
  "could make the model checking incomplete" caveat) — measured as overhead
  on a clean workload.
"""

import pytest

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.stats.reporting import format_table


def space():
    return PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)), PaxosAgreement(0)


def test_ablation_duplicate_limit(report):
    rows = []
    results = {}
    for limit in (0, 1, 2):
        protocol, invariant = space()
        result = LocalModelChecker(
            protocol,
            invariant,
            config=LMCConfig.optimized(duplicate_limit=limit),
        ).run()
        results[limit] = result
        rows.append(
            (
                limit,
                result.stats.node_states,
                result.stats.transitions,
                result.stats.suppressed_duplicates,
                result.stats.history_skips,
                round(result.series.final().elapsed_s, 3),
            )
        )
    report(
        "Ablation — duplicate-message limit (§4.2; paper uses 0)\n"
        + format_table(
            [
                "limit",
                "node states",
                "transitions",
                "suppressed",
                "history skips",
                "elapsed s",
            ],
            rows,
        )
        + "\n(extra copies discover no states: pure overhead)"
    )
    # Identical state coverage at every limit; strictly more work with copies.
    assert (
        results[0].stats.node_states
        == results[1].stats.node_states
        == results[2].stats.node_states
    )
    assert results[2].stats.transitions > results[0].stats.transitions


def test_ablation_history_rule(report):
    """The history rule's skip counter quantifies avoided redundant work."""
    protocol, invariant = space()
    result = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized()
    ).run()
    total_considered = result.stats.transitions + result.stats.history_skips
    report(
        "Ablation — message-history rule (§4.2 'Duplicate messages')\n"
        + format_table(
            ["quantity", "count"],
            [
                ("handler executions", result.stats.transitions),
                ("redundant deliveries skipped", result.stats.history_skips),
                ("share of deliveries avoided",
                 f"{result.stats.history_skips / max(total_considered, 1):.0%}"),
            ],
        )
    )
    assert result.stats.history_skips > 0


def test_ablation_reverify_extension(report):
    """The completeness patch must confirm the §5.5 bug and cost little
    on the clean single-proposal space."""
    rows = []
    for reverify in (False, True):
        protocol, invariant = space()
        clean = LocalModelChecker(
            protocol,
            invariant,
            config=LMCConfig.optimized(reverify_rejected=reverify),
        ).run()
        buggy = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            config=LMCConfig.optimized(reverify_rejected=reverify),
        ).run(partial_choice_state())
        rows.append(
            (
                "on" if reverify else "off",
                round(clean.series.final().elapsed_s, 3),
                clean.stats.soundness_calls,
                buggy.found_bug,
            )
        )
        assert buggy.found_bug
        assert not clean.found_bug
    report(
        "Ablation — reverify-rejected completeness extension\n"
        + format_table(
            ["reverify", "clean-space elapsed s", "soundness calls", "bug found"],
            rows,
        )
        + "\n(the paper's prototype omits this; both settings agree here)"
    )


def test_ablation_local_event_widening(report):
    """Iterative widening (§4.2 'Local events') vs a single unbounded pass."""
    rows = []
    for label, config in (
        ("unbounded", LMCConfig.optimized()),
        ("widened from 0", LMCConfig.optimized(local_event_bound=0)),
        ("widened from 1", LMCConfig.optimized(local_event_bound=1)),
    ):
        protocol, invariant = space()
        result = LocalModelChecker(protocol, invariant, config=config).run()
        rows.append(
            (
                label,
                result.stats.node_states,
                result.stats.transitions,
                round(result.series.final().elapsed_s, 3),
            )
        )
    report(
        "Ablation — local-event bound widening (restart-from-scratch)\n"
        + format_table(
            ["schedule", "node states (cumulative)", "transitions", "elapsed s"],
            rows,
        )
    )
    # All schedules saturate; widened schedules pay re-exploration.
    unbounded_states = rows[0][1]
    assert rows[1][1] >= unbounded_states
    assert rows[2][1] >= unbounded_states
