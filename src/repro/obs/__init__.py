"""Observability: structured tracing, run metrics, and trace reports.

The paper's evaluation is entirely quantitative — 157,332 vs 1,186
transitions (§5.1), 773 soundness calls at 45 ms average (§5.4), the
Fig. 10–13 curves — and this package makes the same quantities observable
on a *live* run instead of only after it ends:

* :mod:`repro.obs.emitter` — :class:`TraceEmitter` streams structured JSONL
  span/event/metric records to a file or to memory; the
  :class:`NullEmitter` default makes every hook a no-op.
* :mod:`repro.obs.metrics` — :class:`RunMetrics` samples
  :class:`~repro.stats.counters.ExplorationStats`, RSS, live bytes and the
  per-phase timers into the depth series and the trace at a configurable
  cadence.
* :mod:`repro.obs.report` — loads a trace file back and renders the
  Fig. 13 overhead breakdown and the §5.4 soundness profile as tables
  (the ``repro trace-report`` subcommand).
* :mod:`repro.obs.registry` — durable per-run records under
  ``.lmc/runs/<run_id>/`` with atomic heartbeat snapshots, readable from
  other processes (``repro runs`` / ``repro status``).
* :mod:`repro.obs.progress` — fits frontier growth per depth and turns it
  into a fraction-done / ETA estimate for depth-bounded runs.
* :mod:`repro.obs.coverage` — per-handler / message-type / invariant /
  fault exercise counts, with unexercised-transition detection against a
  protocol's declared universe (``repro coverage``).
* :mod:`repro.obs.statusd` — a read-only stdlib HTTP endpoint over the
  run registry (``repro serve-status``).

See ``docs/OBSERVABILITY.md`` for the record schema and a worked example.
"""

from repro.obs.emitter import (
    NULL_EMITTER,
    JsonlEmitter,
    MemoryEmitter,
    NullEmitter,
    TraceEmitter,
)
from repro.obs.coverage import NULL_COVERAGE, CoverageTracker, render_coverage
from repro.obs.metrics import RunMetrics, live_bytes, rss_bytes
from repro.obs.progress import ProgressEstimate, estimate_progress, format_eta
from repro.obs.registry import RunHandle, RunRecord, RunRegistry
from repro.obs.report import TraceSummary, load_trace
from repro.stats.reporting import overhead_breakdown

__all__ = [
    "CoverageTracker",
    "JsonlEmitter",
    "MemoryEmitter",
    "NULL_COVERAGE",
    "NULL_EMITTER",
    "NullEmitter",
    "ProgressEstimate",
    "RunHandle",
    "RunMetrics",
    "RunRecord",
    "RunRegistry",
    "TraceEmitter",
    "TraceSummary",
    "estimate_progress",
    "format_eta",
    "live_bytes",
    "load_trace",
    "overhead_breakdown",
    "render_coverage",
    "rss_bytes",
]
