"""Tests for the trace emitters: JSONL round-trip, nesting, null overhead."""

import json
import time

import pytest

from repro.obs.emitter import (
    NULL_EMITTER,
    JsonlEmitter,
    MemoryEmitter,
    NullEmitter,
    TraceEmitter,
)
from repro.obs.report import load_trace


class TestMemoryEmitter:
    def test_trace_starts_with_header_event(self):
        emitter = MemoryEmitter()
        assert emitter.records[0]["kind"] == "event"
        assert emitter.records[0]["name"] == "trace_start"
        assert emitter.records[0]["fields"]["schema"] == 2

    def test_span_record_shape(self):
        emitter = MemoryEmitter()
        with emitter.span("work", node=2) as span:
            span.add(result="ok")
        record = emitter.records[-1]
        assert record["kind"] == "span"
        assert record["name"] == "work"
        assert record["fields"] == {"node": 2, "result": "ok"}
        assert record["dur_s"] >= 0
        assert record["parent"] is None
        assert isinstance(record["id"], int)

    def test_span_nesting_links_parent(self):
        emitter = MemoryEmitter()
        with emitter.span("outer") as outer:
            with emitter.span("inner"):
                pass
        inner_rec = next(r for r in emitter.records if r.get("name") == "inner")
        outer_rec = next(r for r in emitter.records if r.get("name") == "outer")
        assert inner_rec["parent"] == outer_rec["id"]
        assert outer_rec["parent"] is None
        assert outer.span_id == outer_rec["id"]

    def test_sibling_spans_share_parent(self):
        emitter = MemoryEmitter()
        with emitter.span("outer"):
            with emitter.span("a"):
                pass
            with emitter.span("b"):
                pass
        a = next(r for r in emitter.records if r.get("name") == "a")
        b = next(r for r in emitter.records if r.get("name") == "b")
        assert a["parent"] == b["parent"] is not None
        assert a["id"] != b["id"]

    def test_span_ts_is_start_time(self):
        emitter = MemoryEmitter()
        with emitter.span("outer"):
            with emitter.span("inner"):
                pass
        inner_rec = next(r for r in emitter.records if r.get("name") == "inner")
        outer_rec = next(r for r in emitter.records if r.get("name") == "outer")
        # Outer starts before inner even though its record is written later.
        assert outer_rec["ts"] <= inner_rec["ts"]

    def test_emit_span_carries_foreign_pid_and_nests(self):
        emitter = MemoryEmitter()
        with emitter.span("dispatch"):
            emitter.emit_span("worker_verify", 0.5, {"unit": 3}, pid=12345)
        worker = next(
            r for r in emitter.records if r.get("name") == "worker_verify"
        )
        dispatch = next(r for r in emitter.records if r.get("name") == "dispatch")
        assert worker["pid"] == 12345
        assert worker["dur_s"] == 0.5
        assert worker["fields"] == {"unit": 3}
        assert worker["parent"] == dispatch["id"]

    def test_exception_still_emits_span(self):
        emitter = MemoryEmitter()
        with pytest.raises(RuntimeError):
            with emitter.span("doomed"):
                raise RuntimeError("boom")
        assert any(r.get("name") == "doomed" for r in emitter.records)

    def test_metric_and_event_records(self):
        emitter = MemoryEmitter()
        emitter.event("bug", description="x")
        emitter.metric(transitions=7, depth=2)
        kinds = [r["kind"] for r in emitter.records]
        assert kinds.count("event") == 2  # trace_start + bug
        assert kinds.count("metric") == 1
        assert emitter.records[-1]["fields"] == {"transitions": 7, "depth": 2}

    def test_batch_span_is_one_record_for_many_entries(self):
        emitter = MemoryEmitter()
        with emitter.span("round") as round_span:
            batch = emitter.batch_span("materialise")
            for node in (0, 1, 0):
                with batch as entry:
                    with emitter.span("soundness"):
                        pass
                    entry.add(anchors=1, system_states=2)
                    entry.tally("nodes", node)
            batch.flush()
        spans = [r for r in emitter.records if r["kind"] == "span"]
        assert [r["name"] for r in spans] == ["soundness"] * 3 + ["materialise", "round"]
        materialise = spans[3]
        assert materialise["parent"] == round_span.span_id
        assert materialise["fields"] == {
            "anchors": 3,
            "system_states": 6,
            "nodes": {"0": 2, "1": 1},
        }
        assert all(r["parent"] == materialise["id"] for r in spans[:3])
        assert materialise["ts"] <= spans[0]["ts"]
        assert 0 <= materialise["dur_s"] <= spans[4]["dur_s"]
        # A flush starts the next batch afresh, with a new id.
        with batch as entry:
            entry.add(anchors=1)
        batch.flush()
        again = emitter.records[-1]
        assert again["fields"] == {"anchors": 1}
        assert again["id"] > materialise["id"] and again["parent"] is None

    def test_batch_span_entered_on_an_exception_still_flushes(self):
        emitter = MemoryEmitter()
        batch = emitter.batch_span("materialise")
        with pytest.raises(RuntimeError):
            with batch:
                raise RuntimeError("stop")
        assert emitter._stack == []
        batch.flush()
        assert emitter.records[-1]["name"] == "materialise"

    def test_batch_span_never_entered_writes_nothing(self):
        emitter = MemoryEmitter()
        emitter.batch_span("materialise").flush()
        assert [r["name"] for r in emitter.records] == ["trace_start"]

    def test_close_drops_later_records(self):
        emitter = MemoryEmitter()
        emitter.close()
        emitter.event("late")
        assert all(r.get("name") != "late" for r in emitter.records)


class TestJsonlRoundTrip:
    def test_round_trip_preserves_records(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlEmitter(str(path)) as emitter:
            with emitter.span("round", number=1) as span:
                span.add(executions=9)
            emitter.metric(transitions=4)
            emitter.event("run_end", bugs=0)
        records = load_trace(str(path))
        names = [r.get("name") for r in records]
        assert "trace_start" in names and "round" in names and "run_end" in names
        round_rec = next(r for r in records if r.get("name") == "round")
        assert round_rec["fields"] == {"number": 1, "executions": 9}
        metric = next(r for r in records if r["kind"] == "metric")
        assert metric["fields"] == {"transitions": 4}

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with JsonlEmitter(str(path)) as emitter:
            emitter.event("a")
            emitter.event("b")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 3  # trace_start + a + b
        for line in lines:
            json.loads(line)

    def test_malformed_line_raises_with_location(self, tmp_path):
        # A malformed *final* line is treated as a killed run's truncated
        # tail by default, so corruption must be mid-file to fail loudly.
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n{"ok": 2}\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(str(path))
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match="bad.jsonl:2"):
            load_trace(str(path), tolerate_truncated_tail=False)

    def test_accepts_open_file_object(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with open(path, "w") as handle:
            emitter = JsonlEmitter(handle)
            emitter.event("x")
            emitter.close()
            assert not handle.closed  # caller-owned handles stay open
        assert len(load_trace(str(path))) == 2


class TestNullEmitter:
    def test_is_disabled_and_silent(self):
        assert NULL_EMITTER.enabled is False
        NULL_EMITTER.event("x", a=1)
        NULL_EMITTER.metric(b=2)
        NULL_EMITTER.emit_span("w", 0.1)
        with NULL_EMITTER.span("s") as span:
            span.add(c=3)
        with NULL_EMITTER.batch_span("b") as batch:
            batch.add(d=4)
            batch.tally("nodes", 0)
        batch.flush()

    def test_span_returns_shared_singleton(self):
        # No per-call allocation: the whole point of the zero-overhead claim.
        assert NullEmitter().span("a") is NullEmitter().span("b")
        assert NullEmitter().batch_span("c") is NullEmitter().span("a")

    def test_null_span_overhead_is_negligible(self):
        emitter = NullEmitter()
        started = time.perf_counter()
        for _ in range(100_000):
            with emitter.span("hot"):
                pass
        elapsed = time.perf_counter() - started
        # ~100 ns per disabled instrumentation point; 100k of them must be
        # far under a second even on slow CI (generous 2 s bound).
        assert elapsed < 2.0

    def test_real_emitter_base_requires_sink(self):
        class Bare(TraceEmitter):
            pass

        with pytest.raises(NotImplementedError):
            Bare()
