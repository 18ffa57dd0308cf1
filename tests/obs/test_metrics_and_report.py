"""Tests for RunMetrics sampling, the Fig. 13 phase breakdown, and trace reports."""

import tracemalloc

import pytest

from repro.obs.emitter import MemoryEmitter
from repro.obs.metrics import RunMetrics, live_bytes, rss_bytes
from repro.obs.report import TraceSummary
from repro.stats.counters import ExplorationStats
from repro.stats.reporting import format_phase_breakdown, overhead_breakdown
from repro.stats.series import DepthSeries


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def elapsed(self):
        return self.now


class TestRunMetrics:
    def _metrics(self, emitter=None, interval=None, extra=None):
        series = DepthSeries("X")
        stats = ExplorationStats()
        clock = FakeClock()
        registry = RunMetrics(
            series,
            stats,
            clock.elapsed,
            emitter=emitter if emitter is not None else MemoryEmitter(),
            interval=interval,
            extra=extra,
        )
        return registry, series, stats, clock

    def test_samples_when_depth_grows(self):
        registry, series, stats, _clock = self._metrics()
        stats.transitions = 3
        assert registry.sample(0) is True
        stats.transitions = 9
        assert registry.sample(2) is True
        assert series.depths() == (0, 2)
        assert series.at_depth(2).get("transitions") == 9

    def test_skips_flat_depth_without_force(self):
        registry, series, _stats, _clock = self._metrics()
        registry.sample(1)
        assert registry.sample(1) is False
        assert series.depths() == (1,)

    def test_force_updates_final_row(self):
        registry, series, stats, clock = self._metrics()
        registry.sample(3)
        stats.transitions = 42
        clock.now = 9.0
        registry.sample(3, force=True)
        assert series.depths() == (3,)
        assert series.final().elapsed_s == 9.0
        assert series.final().get("transitions") == 42

    def test_interval_cadence_emits_trace_metrics_only(self):
        emitter = MemoryEmitter()
        registry, series, _stats, clock = self._metrics(emitter=emitter, interval=1.0)
        registry.sample(1)  # depth growth: series + trace
        clock.now = 0.5
        assert registry.sample(1) is False  # cadence not due yet
        clock.now = 1.5
        assert registry.sample(1) is True  # cadence due: trace only
        metrics = [r for r in emitter.records if r["kind"] == "metric"]
        assert len(metrics) == 2
        assert series.depths() == (1,)  # the series stays depth-keyed

    def test_metric_record_carries_gauges_and_rss(self):
        emitter = MemoryEmitter()
        registry, _series, _stats, _clock = self._metrics(
            emitter=emitter, extra=lambda: {"node_states": 11}
        )
        registry.sample(0)
        fields = [r for r in emitter.records if r["kind"] == "metric"][0]["fields"]
        assert fields["node_states"] == 11
        assert fields["depth"] == 0
        if rss_bytes() is not None:
            assert fields["rss_bytes"] > 0

    def test_rss_bytes_reports_plausible_size(self):
        rss = rss_bytes()
        if rss is None:
            pytest.skip("no resource module on this platform")
        assert rss > 1024 * 1024  # a Python process is at least a MiB

    def test_live_bytes_only_while_tracing(self):
        assert live_bytes() is None
        tracemalloc.start()
        try:
            held = bytearray(1 << 20)
            assert live_bytes() >= len(held)
        finally:
            tracemalloc.stop()
        assert live_bytes() is None


class TestPhaseBuckets:
    def test_accumulated_buckets_snapshot_and_render(self):
        stats = ExplorationStats()
        stats.add_phase_time("soundness", 1.0)
        stats.add_phase_time("soundness", 1.0)
        stats.add_phase_time("explore", 2.0)
        assert stats.snapshot()["phase_soundness_s"] == pytest.approx(2.0)
        rows = overhead_breakdown(stats.phase_seconds)
        assert rows == [("explore", 2.0, 0.5), ("soundness", 2.0, 0.5)]
        assert "50.0%" in format_phase_breakdown(stats.phase_seconds)


class TestOverheadBreakdown:
    def test_canonical_order_and_shares(self):
        rows = overhead_breakdown({"soundness": 1.0, "explore": 2.0, "system_states": 1.0})
        assert [name for name, _s, _f in rows] == ["explore", "system_states", "soundness"]
        assert rows[0][2] == pytest.approx(0.5)
        assert sum(share for _n, _s, share in rows) == pytest.approx(1.0)

    def test_extra_buckets_and_negative_clamp(self):
        rows = overhead_breakdown({"zeta": 1.0, "explore": -0.5})
        assert rows[0] == ("explore", 0.0, 0.0)
        assert rows[1][0] == "zeta"

    def test_obs_reexports_the_reporting_breakdown(self):
        import repro.obs

        assert repro.obs.overhead_breakdown is overhead_breakdown

    def test_empty_and_zero(self):
        assert overhead_breakdown({}) == []
        assert overhead_breakdown({"explore": 0.0})[0][2] == 0.0

    def test_format_phase_breakdown_renders_table(self):
        text = format_phase_breakdown({"explore": 3.0, "soundness": 1.0})
        assert "explore" in text and "75.0%" in text
        assert format_phase_breakdown({}) == ""


def _trace_records():
    """A hand-built trace covering every record kind the report reads."""
    return [
        {"ts": 0.0, "pid": 1, "kind": "event", "name": "trace_start", "fields": {}},
        {
            "ts": 0.1,
            "pid": 1,
            "kind": "span",
            "name": "soundness",
            "id": 1,
            "parent": None,
            "dur_s": 0.045,
            "fields": {"sequences": 500, "sound": False},
        },
        {
            "ts": 0.2,
            "pid": 7,
            "kind": "span",
            "name": "worker_verify",
            "id": 2,
            "parent": None,
            "dur_s": 0.015,
            "fields": {"combinations": 100, "sound": True},
        },
        {
            "ts": 0.3,
            "pid": 1,
            "kind": "metric",
            "fields": {
                "transitions": 1186,
                "phase_explore_s": 0.6,
                "phase_soundness_s": 0.3,
                "phase_system_states_s": 0.1,
            },
        },
    ]


class TestTraceSummary:
    def test_phase_seconds_from_final_metric(self):
        summary = TraceSummary(_trace_records())
        assert summary.phase_seconds() == {"explore": 0.6, "soundness": 0.3, "system_states": 0.1}

    def test_soundness_profile_merges_worker_spans(self):
        profile = TraceSummary(_trace_records()).soundness_profile()
        assert profile["calls"] == 2
        assert profile["sequences"] == 600
        assert profile["total_s"] == pytest.approx(0.06)
        assert profile["avg_ms"] == pytest.approx(30.0)

    def test_worker_profile_groups_by_pid(self):
        workers = TraceSummary(_trace_records()).worker_profile()
        assert workers == [{"pid": 7, "units": 1, "total_s": 0.015}]

    def test_render_contains_all_sections(self):
        text = TraceSummary(_trace_records()).render()
        assert "Overhead breakdown (Fig. 13)" in text
        assert "Soundness verification profile" in text
        assert "Workers" in text
        assert "Final counters" in text
        assert "1,186" in text

    def test_render_empty_trace(self):
        assert "empty trace" in TraceSummary([]).render()

    def test_health_sums_round_counts_and_counts_fallbacks(self):
        """Round events of any age sum their per-round counts and times — a
        trace on disk from before forked speculation still reads its
        sync-misses, one from before the coordinator worked a shard has no
        wait — and each failed-child fallback is counted."""

        def event(name, **fields):
            return {"ts": 0.0, "pid": 1, "kind": "event", "name": name, "fields": fields}

        now = dict(shards=2, workers=2, dispatch_s=0.01)
        current = [
            event("parallel_round", number=1, items=300, inline_items=150,
                  wait_s=0.25, killed=0, **now),
            event("parallel_round", number=2, items=500, inline_items=250,
                  wait_s=0.125, killed=1, **now),
            event("parallel_fallback", round=9, status=-9, reason="killed"),
        ]
        health = TraceSummary(current).health_profile()
        assert health["parallel_round_events"] == 2
        assert health["parallel_items"] == 800
        assert health["parallel_inline_items"] == 400
        assert health["parallel_wait_s"] == 0.375
        assert health["parallel_killed"] == 1
        assert health["parallel_dispatch_s"] == 0.02
        assert health["parallel_fallbacks"] == 1
        assert not {"parallel_number", "parallel_shards", "parallel_workers",
                    "parallel_round", "parallel_status"} & set(health)
        on_disk = [event("parallel_round", number=1, items=300, sync_misses=2, **now)]
        health = TraceSummary(on_disk).health_profile()
        assert health["parallel_sync_misses"] == 2
        assert "parallel_wait_s" not in health
        assert "parallel_killed" not in health
        assert "parallel_fallbacks" not in health

    def test_bound_line_counts_spans_that_carry_the_field(self):
        line = "soundness calls refuted by the record-level bound"
        assert line not in TraceSummary(_trace_records()).render()

        def span(name, refuted):
            return {
                "ts": 0.1,
                "pid": 1,
                "kind": "span",
                "name": name,
                "dur_s": 0.001,
                "fields": {"sequences": 4, "sound": False, "bound_refuted": refuted},
            }

        records = _trace_records() + [
            span("soundness", True),
            span("worker_verify", True),
            span("soundness", False),
        ]
        summary = TraceSummary(records)
        profile = summary.soundness_profile()
        assert (profile["bound_refuted"], profile["bound_calls"]) == (2, 3)
        assert f"2 of 3 {line}" in summary.render()

    def test_gen_line_only_when_tuples_stand_for_more_system_states(self):
        def materialise(ts, tuples, states):
            return {
                "ts": ts,
                "pid": 1,
                "kind": "span",
                "name": "materialise",
                "dur_s": 0.001,
                "fields": {"system_states": states, "tuples_checked": tuples},
            }

        summarised = _trace_records() + [
            materialise(0.4, 4, 1000),
            materialise(0.5, 2, 261383),
        ]
        assert TraceSummary(summarised).materialise_profile() == {
            "tuples_checked": 6,
            "system_states": 262383,
        }
        assert (
            "GEN: 6 tuples checked covering 262,383 system states"
            in TraceSummary(summarised).render()
        )
        walked = _trace_records() + [materialise(0.4, 7, 7)]
        assert "tuples checked" not in TraceSummary(walked).render()

    def test_gen_line_counts_orbit_skips_when_a_reducer_ran(self):
        def materialise(ts, tuples, states, skips):
            return {
                "ts": ts,
                "pid": 1,
                "kind": "span",
                "name": "materialise",
                "dur_s": 0.001,
                "fields": {
                    "system_states": states,
                    "tuples_checked": tuples,
                    "orbit_skips": skips,
                },
            }

        reduced = _trace_records() + [
            materialise(0.4, 3, 1000, 900),
            materialise(0.5, 2, 131065, 129418),
        ]
        assert TraceSummary(reduced).materialise_profile() == {
            "tuples_checked": 5,
            "system_states": 132065,
            "orbit_skips": 130318,
        }
        assert (
            "GEN: 5 tuples checked covering 132,065 system states; "
            "130,318 combinations skipped as orbit siblings"
            in TraceSummary(reduced).render()
        )

    def test_per_anchor_and_per_round_materialise_spans_read_the_same(self):
        """A schema-1 trace (one span per anchor) and the schema-2 trace of
        the same run (one span per round, counting its ``anchors``) give the
        same profile, GEN line and span count."""

        def span(ts, dur_s, fields):
            return {
                "ts": ts,
                "pid": 1,
                "kind": "span",
                "name": "materialise",
                "dur_s": dur_s,
                "fields": fields,
            }

        anchors = [(0, 1, 40, 10), (1, 2, 500, 60), (0, 3, 9000, 20), (2, 1, 8, 8)]
        per_anchor = _trace_records() + [
            span(
                0.4 + index / 100,
                0.25,
                {
                    "node": node,
                    "tuples_checked": tuples,
                    "system_states": states,
                    "violations": 0,
                    "orbit_skips": skips,
                },
            )
            for index, (node, tuples, states, skips) in enumerate(anchors)
        ]

        def per_round(batch):
            return {
                "anchors": len(batch),
                "tuples_checked": sum(tuples for _, tuples, _, _ in batch),
                "system_states": sum(states for _, _, states, _ in batch),
                "violations": 0,
                "orbit_skips": sum(skips for *_, skips in batch),
                "nodes": {
                    str(node): sum(1 for other, *_ in batch if other == node)
                    for node, *_ in batch
                },
            }

        per_round_records = _trace_records() + [
            span(0.4, 0.5, per_round(anchors[:2])),
            span(0.5, 0.5, per_round(anchors[2:])),
        ]
        v1, v2 = TraceSummary(per_anchor), TraceSummary(per_round_records)
        assert v1.materialise_profile() == v2.materialise_profile() == {
            "tuples_checked": 7,
            "system_states": 9548,
            "orbit_skips": 98,
        }
        gen = (
            "GEN: 7 tuples checked covering 9,548 system states; "
            "98 combinations skipped as orbit siblings"
        )
        assert gen in v1.render() and gen in v2.render()
        assert v1._span_rows() == v2._span_rows()
        assert ("materialise", 4, 1.0) in v2._span_rows()
