"""Integration: traces from real checker runs agree with ExplorationStats."""

import os

import pytest

from repro.cli import main
from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.core.pool import resolve_workers
from repro.explore.budget import SearchBudget
from repro.obs.emitter import MemoryEmitter
from repro.obs.report import TraceSummary
from repro.protocols.paxos import PaxosAgreement
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import CommitValidity, EagerCommitCoordinator


def spans(emitter, name):
    return [r for r in emitter.records if r.get("name") == name]


class TestSequentialTrace:
    def test_paxos_trace_counters_agree_with_stats(self):
        """A 3-node Paxos run: exploration, materialisation, and soundness
        spans must reconcile with the run's final ExplorationStats."""
        emitter = MemoryEmitter()
        result = LocalModelChecker(
            scenario_protocol(buggy=True),
            PaxosAgreement(0),
            budget=SearchBudget(max_seconds=30.0),
            config=LMCConfig.optimized(),
            emitter=emitter,
        ).run(partial_choice_state())
        stats = result.stats

        assert result.found_bug
        assert spans(emitter, "pass") and spans(emitter, "round")
        assert len(spans(emitter, "soundness")) == stats.soundness_calls
        assert (
            sum(s["fields"]["sequences"] for s in spans(emitter, "soundness"))
            == stats.soundness_sequences
        )
        materialised = spans(emitter, "materialise")
        assert materialised
        assert (
            sum(s["fields"]["system_states"] for s in materialised)
            == stats.system_states_created
        )
        assert (
            sum(s["fields"]["violations"] for s in materialised)
            == stats.preliminary_violations
        )
        assert (
            sum(s["fields"]["transitions"] for s in spans(emitter, "round"))
            == stats.transitions
        )
        assert len(spans(emitter, "bug")) == stats.confirmed_bugs

    def test_final_metric_sample_matches_stats(self):
        emitter = MemoryEmitter()
        result = LocalModelChecker(
            TreeProtocol(), ReceivedImpliesSent(), emitter=emitter
        ).run()
        metrics = [r for r in emitter.records if r["kind"] == "metric"]
        assert metrics
        final = metrics[-1]["fields"]
        assert final["transitions"] == result.stats.transitions
        assert final["node_states"] == result.stats.node_states
        assert final["soundness_calls"] == result.stats.soundness_calls

    def test_tracing_does_not_change_results(self):
        plain = LocalModelChecker(TreeProtocol(), ReceivedImpliesSent()).run()
        traced = LocalModelChecker(
            TreeProtocol(), ReceivedImpliesSent(), emitter=MemoryEmitter()
        ).run()
        assert traced.stats.snapshot() == pytest.approx(
            plain.stats.snapshot(), rel=None, abs=5.0
        )  # counters identical; only phase_*_s wall times may drift
        for key, value in plain.stats.snapshot().items():
            if not key.startswith("phase_"):
                assert traced.stats.snapshot()[key] == value


class TestExploreWorkerTrace:
    """The exploration front's forked work is visible in the trace: one
    ``parallel_round`` event per dispatched round, one forwarded
    ``worker_explore`` span per shard, tagged with the child's pid."""

    @staticmethod
    def _traced(workers):
        emitter = MemoryEmitter()
        result = LocalModelChecker(
            EagerCommitCoordinator(3, no_voters=(2,)),
            CommitValidity(),
            config=LMCConfig.optimized(explore_workers=workers),
            emitter=emitter,
        ).run()
        return result, emitter

    @pytest.mark.usefixtures("dispatch_every_round")
    @pytest.mark.parametrize("workers", [0, 2, None])
    def test_worker_spans_agree_with_merged_stats(self, workers):
        result, emitter = self._traced(workers)
        stats = result.stats

        assert result.found_bug
        rounds = spans(emitter, "parallel_round")
        worker_spans = spans(emitter, "worker_explore")
        assert len(rounds) == stats.explore_rounds_parallel
        assert len(worker_spans) == stats.explore_shards
        assert (stats.explore_shards > 0) == (workers != 0)
        assert sum(r["fields"]["shards"] for r in rounds) == stats.explore_shards
        assert sum(s["fields"]["items"] for s in worker_spans) == sum(
            r["fields"]["items"] for r in rounds
        )
        # The worker count the round used, not the request (None = every CPU).
        assert {r["fields"]["workers"] for r in rounds} <= {resolve_workers(workers)}
        # Verification stays inline: soundness spans reconcile as serially.
        assert len(spans(emitter, "soundness")) == stats.soundness_calls > 0
        assert {"explore", "soundness"} <= set(stats.phase_seconds)

    @pytest.mark.usefixtures("dispatch_every_round")
    def test_pool_worker_pids_forwarded(self):
        _result, emitter = self._traced(2)
        pids = {s["pid"] for s in spans(emitter, "worker_explore")}
        assert pids and os.getpid() not in pids


class TestCliTracing:
    def test_check_trace_out_then_report(self, tmp_path, capsys):
        path = tmp_path / "tree.jsonl"
        assert main(["check", "tree", "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"trace written : {path}" in out
        assert path.exists()

        assert main(["trace-report", str(path)]) == 0
        report = capsys.readouterr().out
        assert "Overhead breakdown (Fig. 13)" in report
        assert "Soundness verification profile" in report
        assert "Final counters" in report
        # The hash_cache event's value-probe share reaches the health table.
        assert "intern_value_hits" in report

    def test_trace_subcommand_defaults_output(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["trace", "tree"]) == 0
        assert (tmp_path / "tree.trace.jsonl").exists()

    def test_explore_workers_trace_has_a_workers_table(self, tmp_path, capsys):
        """Forwarded ``worker_explore`` shards carry the workers' own pids
        into trace-report's per-pid Workers table."""
        path = tmp_path / "par.jsonl"
        argv = ["check", "paxos", "--explore-workers", "2", "--trace-out", str(path)]
        assert main(argv) == 0
        summary = TraceSummary.from_file(str(path))
        workers = summary.worker_profile()
        assert sum(w["units"] for w in workers) == len(summary.spans("worker_explore")) > 0
        assert os.getpid() not in {w["pid"] for w in workers}
        capsys.readouterr()
        assert main(["trace-report", str(path)]) == 0
        assert "Workers" in capsys.readouterr().out

    def test_scenario_accepts_trace_flags(self, tmp_path, capsys):
        path = tmp_path / "s55.jsonl"
        assert main(["scenario", "s55", "--trace-out", str(path)]) == 1
        summary = TraceSummary.from_file(str(path))
        assert summary.spans("soundness")
        assert summary.events("bug")

    def test_trace_report_missing_file_errors(self, capsys):
        assert main(["trace-report", "/nonexistent/file.jsonl"]) == 2
        assert "error" in capsys.readouterr().err

    def test_metrics_interval_flag_parses(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["check", "tree", "--metrics-interval", "0.5"]
        )
        assert args.metrics_interval == 0.5
