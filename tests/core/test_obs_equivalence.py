"""Observability on vs off must be observationally identical.

The run registry, heartbeats, and coverage accounting (docs/OBSERVABILITY.md
"Live operations") are instrumentation only: every counter, verdict, and
witness trace must be byte-identical with them enabled — the same gate the
PR 3 cache work and the PR 4 fault scheduler hold themselves to.
"""

import pytest

import repro.core.soundness as soundness
from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import Checkpointer, load_checkpoint
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.obs.coverage import CoverageTracker
from repro.obs.emitter import MemoryEmitter
from repro.obs.registry import RunRegistry
from repro.obs.report import TraceSummary
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
)
from tests.core.equivalence import observable, onepaxos_s56, paxos_s55
from tests.core.test_summarised_gen import walked


def _instrumented_kwargs(tmp_path, interval):
    handle = RunRegistry(str(tmp_path)).register(
        "test", workload="scenario", algorithm="lmc-opt"
    )
    # Zero min_interval so every sample really writes a heartbeat — the
    # harshest instrumentation the registry can apply.
    handle.min_interval = 0.0
    return {
        "run_handle": handle,
        "coverage": CoverageTracker(),
        "metrics_interval": interval,
    }


@pytest.mark.parametrize("scenario", [paxos_s55, onepaxos_s56], ids=["s55", "s56"])
def test_local_checker_identical_with_observability_on(scenario, tmp_path):
    protocol, invariant, initial = scenario()

    def run(**kwargs):
        return LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized(), **kwargs
        ).run(initial)

    plain = run()
    instrumented = run(**_instrumented_kwargs(tmp_path, interval=0.001))
    assert plain.found_bug and instrumented.found_bug
    assert observable(plain) == observable(instrumented)


@pytest.mark.usefixtures("dispatch_every_round")
def test_explore_workers_identical_with_observability_on(tmp_path):
    """Forwarded worker spans and round events must not shift any result."""
    protocol, invariant, initial = paxos_s55()
    budget = SearchBudget(max_transitions=400)
    config = LMCConfig.optimized(explore_workers=2)

    def run(**kwargs):
        return LocalModelChecker(
            protocol, invariant, budget=budget, config=config, **kwargs
        ).run(initial)

    plain = run()
    instrumented = run(**_instrumented_kwargs(tmp_path, interval=0.001))
    assert plain.stats.explore_rounds_parallel > 0
    assert observable(plain) == observable(instrumented)


def test_depth_series_identical_with_observability_on(tmp_path):
    """The Fig. 10-13 series must not shift under heartbeat sampling."""
    protocol, invariant, initial = paxos_s55()

    def run(**kwargs):
        return LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized(), **kwargs
        ).run(initial)

    plain = run()
    instrumented = run(**_instrumented_kwargs(tmp_path, interval=0.001))
    assert plain.series.depths() == instrumented.series.depths()
    assert [s.metrics.get("transitions") for s in plain.series.samples] == [
        s.metrics.get("transitions") for s in instrumented.series.samples
    ]


def test_instrumented_run_leaves_durable_record(tmp_path):
    protocol, invariant, initial = paxos_s55()
    registry = RunRegistry(str(tmp_path))
    handle = registry.register("test", workload="s55", algorithm="lmc-opt")
    coverage = CoverageTracker()
    checker = LocalModelChecker(
        protocol,
        invariant,
        config=LMCConfig.optimized(),
        run_handle=handle,
        coverage=coverage,
        metrics_interval=0.001,
    )
    result = checker.run(initial)
    assert result.found_bug
    record = registry.load(handle.run_id)
    assert record.heartbeat is not None
    assert record.heartbeat["depth"] >= 0
    assert "transitions" in record.heartbeat
    assert record.heartbeat["round"] >= 1
    assert "frontier" in record.heartbeat


def test_soundness_spans_explain_rejections_without_changing_the_run():
    """The quotient's span attributes are bookkeeping on the traced path only."""
    protocol, invariant, initial = paxos_s55()

    def run(**kwargs):
        return LocalModelChecker(
            protocol, invariant, config=LMCConfig.optimized(), **kwargs
        ).run(initial)

    plain = run()
    emitter = MemoryEmitter()
    traced = run(emitter=emitter)
    assert observable(plain) == observable(traced)

    spans = [
        record["fields"]
        for record in emitter.records
        if record["kind"] == "span" and record["name"] == "soundness"
    ]
    stats = traced.stats
    assert len(spans) == stats.soundness_calls
    # Every combination was a cache hit, a quotient dismissal or a replay.
    assert (
        sum(span["quotient_rejected"] + span["replayed"] for span in spans)
        + stats.replay_cache_hits
        == stats.soundness_sequences
    )
    assert sum(span["quotient_rejected"] for span in spans) > 0
    for span in spans:
        if span["sound"]:
            assert "starved_hash" not in span and "starved_node" not in span
        elif span["quotient_rejected"]:
            assert span["starved_node"] in protocol.node_ids()
            assert isinstance(span["starved_hash"], int)


def _s55_at_760():
    protocol, invariant, initial = paxos_s55()
    config = LMCConfig.optimized(stop_on_first_bug=False)
    return protocol, invariant, initial, SearchBudget(max_transitions=760), config


def _2pc_timeout_with_drops_and_crashes():
    config = LMCConfig.optimized(
        drop_faults=True, fault_events_enabled=True, stop_on_first_bug=False
    )
    return TimeoutTwoPhaseCommit(3), Atomicity(), None, SearchBudget(), config


@pytest.mark.parametrize(
    "space",
    [_s55_at_760, _2pc_timeout_with_drops_and_crashes],
    ids=["s55@760", "2pc-timeout-faults"],
)
def test_bound_refuted_calls_trace_as_the_product_walk_does(space, monkeypatch):
    """A call the record-level bound refutes emits the span the
    per-combination loop would: the same sequence, dismissal and replay
    counts and the same last starved pair — cache hits included, which the
    faulty 2PC space has thousands of.  Only ``bound_refuted`` tells them
    apart, and the trace report counts it."""
    protocol, invariant, initial, budget, config = space()

    def run():
        emitter = MemoryEmitter()
        result = LocalModelChecker(
            protocol, invariant, budget, config, emitter=emitter
        ).run(initial)
        spans = [
            record["fields"]
            for record in emitter.records
            if record["kind"] == "span" and record["name"] == "soundness"
        ]
        return result, spans, TraceSummary(emitter.records).render()

    bounded, bounded_spans, report = run()
    monkeypatch.setattr(soundness, "refuted_by_bound", lambda summaries: False)
    walked_result, walked_spans, _ = run()

    assert observable(bounded) == observable(walked_result)
    refuted = sum(span.pop("bound_refuted") for span in bounded_spans)
    assert not any(span.pop("bound_refuted") for span in walked_spans)
    assert bounded_spans == walked_spans
    assert 0 < refuted < len(bounded_spans)
    assert (
        f"{refuted:,} of {len(bounded_spans):,} soundness calls refuted by the "
        f"record-level bound" in report
    )


def test_summarised_gen_coverage_counts_equal_with_tracing_on_and_off():
    """Coverage counts system states, whether one check covered many or one."""
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
    budget = SearchBudget(max_depth=3)

    def run(invariant, **kwargs):
        coverage = CoverageTracker()
        result = LocalModelChecker(
            protocol, invariant, budget, LMCConfig.general(), coverage=coverage, **kwargs
        ).run()
        return result, coverage.as_dict()

    plain, plain_coverage = run(PaxosAgreement(0))
    emitter = MemoryEmitter()
    traced, traced_coverage = run(PaxosAgreement(0), emitter=emitter)
    assert observable(plain) == observable(traced)
    assert plain_coverage == traced_coverage
    checks = plain_coverage["invariant_checks"]["PaxosAgreement"]
    assert checks == plain.stats.invariant_checks
    # The same counts from the per-combination walk (summary hidden).
    walked_result, walked_coverage = run(walked(PaxosAgreement(0)))
    assert walked_coverage == plain_coverage
    assert observable(walked_result) == observable(plain)
    # The spans say how many calls stood for those system states.
    spans = [
        record["fields"]
        for record in emitter.records
        if record["kind"] == "span" and record["name"] == "materialise"
    ]
    covered = sum(span["system_states"] for span in spans)
    assert covered == plain.stats.system_states_created
    assert 0 < sum(span["tuples_checked"] for span in spans) < covered


def test_symmetry_reduced_gen_coverage_counts_equal_with_tracing_on_and_off():
    """With symmetry on, coverage counts the system states each orbit stood for.

    Clean anchors are counted per new orbit in blocks; the traced run, the
    untraced run and the per-combination walk must agree on every counter
    and coverage count, and the spans must say how many combinations were
    skipped as orbit siblings.
    """
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
    budget = SearchBudget(max_depth=3)
    config = LMCConfig.general(symmetry_reduction=True)

    def run(invariant, **kwargs):
        coverage = CoverageTracker()
        result = LocalModelChecker(
            protocol, invariant, budget, config, coverage=coverage, **kwargs
        ).run()
        return result, coverage.as_dict()

    plain, plain_coverage = run(PaxosAgreement(0))
    emitter = MemoryEmitter()
    traced, traced_coverage = run(PaxosAgreement(0), emitter=emitter)
    assert observable(plain) == observable(traced)
    assert plain_coverage == traced_coverage
    checks = plain_coverage["invariant_checks"]["PaxosAgreement"]
    assert checks == plain.stats.invariant_checks
    walked_result, walked_coverage = run(walked(PaxosAgreement(0)))
    assert walked_coverage == plain_coverage
    assert observable(walked_result) == observable(plain)
    spans = [
        record["fields"]
        for record in emitter.records
        if record["kind"] == "span" and record["name"] == "materialise"
    ]
    assert sum(span["system_states"] for span in spans) == plain.stats.system_states_created
    skips = sum(span["orbit_skips"] for span in spans)
    assert skips == plain.stats.symmetry_skips > 0


# -- one ``materialise`` span per round ---------------------------------------


def _round_spans_reconcile(records, stats):
    """Each round has at most one ``materialise`` span, nested under it, with
    every soundness call of the round nested under that span, and the spans'
    summed counts equal the run's counters.  Returns the spans by name."""
    spans = {}
    for record in records:
        if record["kind"] == "span":
            spans.setdefault(record["name"], []).append(record)
    rounds = {span["id"] for span in spans["round"]}
    materialise = spans["materialise"]
    parents = [span["parent"] for span in materialise]
    assert len(parents) == len(set(parents))
    assert set(parents) <= rounds
    batches = {span["id"] for span in materialise}
    assert all(span["parent"] in batches for span in spans.get("soundness", ()))
    fields = [span["fields"] for span in materialise]
    assert sum(f["system_states"] for f in fields) == stats.system_states_created
    assert sum(f["violations"] for f in fields) == stats.preliminary_violations
    assert sum(f.get("orbit_skips", 0) for f in fields) == stats.symmetry_skips
    assert all(f["anchors"] == sum(f["nodes"].values()) for f in fields)
    return spans


def _s55_opt(stop_on_first_bug, explore_workers=0):
    def run(emitter=None):
        protocol, invariant, initial = paxos_s55()
        budget = SearchBudget() if stop_on_first_bug else SearchBudget(max_transitions=760)
        config = LMCConfig.optimized(
            stop_on_first_bug=stop_on_first_bug, explore_workers=explore_workers
        )
        return LocalModelChecker(
            protocol, invariant, budget, config, emitter=emitter
        ).run(initial)

    return run


def _summarised_gen_with_symmetry(emitter=None):
    return LocalModelChecker(
        PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
        PaxosAgreement(0),
        SearchBudget(max_depth=3),
        LMCConfig.general(symmetry_reduction=True),
        emitter=emitter,
    ).run()


def _extended_from_checkpoint(tmp_path):
    def run(emitter=None):
        # One emitter for both legs: the extended run's counters include the
        # checkpointed leg's, and so does the trace.
        path = str(tmp_path / f"d3-{emitter is None}.json")

        def checker(depth, **extra):
            return LocalModelChecker(
                EagerCommitCoordinator(3, no_voters=(2,)),
                CommitValidity(),
                SearchBudget(max_depth=depth),
                LMCConfig.optimized(stop_on_first_bug=False),
                emitter=emitter,
                **extra,
            )

        checker(3, checkpointer=Checkpointer(path)).run()
        return checker(5).extend_depth(load_checkpoint(path))

    return run


@pytest.mark.usefixtures("dispatch_every_round")
@pytest.mark.parametrize(
    "case",
    [
        "s55-first-bug",
        "s55@760-all-bugs",
        "s55@760-explore-workers",
        "gen-symmetry",
        "extend-depth",
    ],
)
def test_one_materialise_span_per_round(case, tmp_path):
    run = {
        "s55-first-bug": _s55_opt(True),
        "s55@760-all-bugs": _s55_opt(False),
        "s55@760-explore-workers": _s55_opt(False, explore_workers=2),
        "gen-symmetry": _summarised_gen_with_symmetry,
        "extend-depth": _extended_from_checkpoint(tmp_path),
    }[case]
    plain = run()
    emitter = MemoryEmitter()
    traced = run(emitter)
    assert observable(plain) == observable(traced)
    spans = _round_spans_reconcile(emitter.records, traced.stats)
    assert traced.stats.system_states_created > 0
    if case == "s55-first-bug":
        # The confirming soundness call cut its round short; the round's
        # span was still written, and holds that call.
        assert traced.found_bug and traced.stop_reason == "bug found"
        last_round = spans["round"][-1]["id"]
        cut = [span for span in spans["materialise"] if span["parent"] == last_round]
        assert len(cut) == 1
        assert spans["soundness"][-1]["parent"] == cut[0]["id"]
    if case == "gen-symmetry":
        assert traced.stats.symmetry_skips > 0
    if case in ("s55@760-all-bugs", "s55@760-explore-workers", "extend-depth"):
        assert traced.stats.preliminary_violations > 0 and spans["soundness"]
    if case == "s55@760-explore-workers":
        # Pool rounds add worker spans, not materialise spans.
        assert traced.stats.explore_rounds_parallel > 0 and spans["worker_explore"]
