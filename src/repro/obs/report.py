"""Trace-file analysis: render a captured trace back into paper tables.

``repro trace-report <trace.jsonl>`` loads the records written by
:class:`~repro.obs.emitter.JsonlEmitter` and reproduces, from the trace
alone:

* the **Fig. 13 overhead breakdown** — exploration vs system-state creation
  vs soundness-verification wall-time shares, read from the final ``metric``
  record's ``phase_*_s`` fields (the same buckets the checker maintains);
* the **§5.4 soundness profile** — call count, average wall time per call,
  and sequences examined, aggregated over ``soundness`` spans and the
  ``worker_verify`` spans of traces written while verification could still
  run on the worker pool;
* the LMC-GEN summary line — invariant calls against the system states
  they covered, from the ``materialise`` spans' ``tuples_checked`` (one
  span per anchor in schema-1 traces, one per round in schema 2);
* span counts/durations per name, final counters, and per-worker totals
  over forwarded worker spans.

Rendering reuses :func:`repro.stats.reporting.format_table`, keeping
trace-report output in the same monospace-table dialect as the benches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.profiling import overhead_breakdown
from repro.obs.progress import ProgressEstimate, estimate_progress, format_eta
from repro.stats.reporting import format_table

#: Span names counted into the §5.4 soundness profile.
_SOUNDNESS_SPANS = ("soundness", "worker_verify")

#: ``parallel_round`` fields that label a round rather than count its work.
_ROUND_LABELS = ("number", "shards", "workers")


def load_trace(
    path: str, tolerate_truncated_tail: bool = True
) -> List[Dict[str, Any]]:
    """Parse a JSONL trace file into record dicts, in file order.

    Blank lines are skipped; a malformed line raises ``ValueError`` naming
    its line number — except, by default, when it is the file's *final*
    non-blank line.  A process killed mid-write leaves exactly one
    truncated record at the tail, and a trace that ends that way is still
    worth reporting on; a malformed line anywhere earlier is corruption
    and still fails loudly.
    """
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    last_content = 0
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            last_content = lineno
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError as exc:
            if tolerate_truncated_tail and lineno == last_content:
                break
            raise ValueError(f"{path}:{lineno}: malformed trace record: {exc}")
    return records


@dataclass
class TraceSummary:
    """Aggregated view over one trace's records."""

    records: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def from_file(cls, path: str) -> "TraceSummary":
        """Load and summarise a JSONL trace file."""
        return cls(load_trace(path))

    # -- selectors -------------------------------------------------------------

    def spans(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All span records, optionally filtered by name, in causal (ts) order."""
        found = [
            record
            for record in self.records
            if record.get("kind") == "span"
            and (name is None or record.get("name") == name)
        ]
        return sorted(found, key=lambda record: record.get("ts", 0.0))

    def events(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """All event records, optionally filtered by name."""
        return [
            record
            for record in self.records
            if record.get("kind") == "event"
            and (name is None or record.get("name") == name)
        ]

    def final_metric(self) -> Optional[Dict[str, Any]]:
        """The last ``metric`` record's fields — the run's final counters."""
        for record in reversed(self.records):
            if record.get("kind") == "metric":
                return dict(record.get("fields", {}))
        return None

    # -- derived profiles ------------------------------------------------------

    def phase_seconds(self) -> Dict[str, float]:
        """Fig. 13 phase buckets, from the final metric's ``phase_*_s`` fields."""
        final = self.final_metric() or {}
        return {
            key[len("phase_") : -len("_s")]: float(value)
            for key, value in final.items()
            if key.startswith("phase_") and key.endswith("_s")
        }

    def soundness_profile(self) -> Dict[str, float]:
        """§5.4 aggregate: calls, total/average wall time, sequences examined.

        From the ``soundness`` spans' quotient attributes it also says *why*
        violations were rejected: ``quotient_rejected`` / ``replayed`` count
        combinations, ``rejected_by_quotient`` / ``rejected_by_replay`` count
        unsound calls none of whose combinations, or at least one of whose
        combinations, reached the replay.  ``bound_refuted`` counts the calls
        the record-level bound refuted before walking their product, out of
        the ``bound_calls`` whose spans say either way.
        """
        calls = 0
        total_s = 0.0
        sequences = 0
        quotient_rejected = replayed = by_quotient = by_replay = 0
        bound_calls = bound_refuted = 0
        for span in self.spans():
            if span.get("name") not in _SOUNDNESS_SPANS:
                continue
            calls += 1
            total_s += float(span.get("dur_s", 0.0))
            fields = span.get("fields", {})
            sequences += int(fields.get("sequences", fields.get("combinations", 0)))
            if "bound_refuted" in fields:
                bound_calls += 1
                bound_refuted += bool(fields["bound_refuted"])
            if "quotient_rejected" not in fields:
                continue  # a worker span, or a trace that predates the quotient
            quotient_rejected += int(fields["quotient_rejected"])
            replayed += int(fields.get("replayed", 0))
            if not fields.get("sound"):
                if fields.get("replayed"):
                    by_replay += 1
                else:
                    by_quotient += 1
        return {
            "calls": calls,
            "total_s": total_s,
            "avg_ms": (total_s / calls * 1000.0) if calls else 0.0,
            "sequences": sequences,
            "quotient_rejected": quotient_rejected,
            "replayed": replayed,
            "rejected_by_quotient": by_quotient,
            "rejected_by_replay": by_replay,
            "bound_calls": bound_calls,
            "bound_refuted": bound_refuted,
        }

    def materialise_profile(self) -> Dict[str, int]:
        """Invariant calls against system states over ``materialise`` spans.

        Sums per-anchor spans (schema 1) and per-round spans (schema 2)
        alike.  Summarised LMC-GEN checks one combination per distinct summary
        tuple and counts the rest, so ``tuples_checked`` falls below
        ``system_states``; a per-combination walk has the two equal.
        When a symmetry reducer ran (its spans carry ``orbit_skips``), the
        profile adds ``orbit_skips``: combinations skipped as orbit siblings.
        """
        profile = {"tuples_checked": 0, "system_states": 0}
        for span in self.spans("materialise"):
            fields = span.get("fields", {})
            if "tuples_checked" not in fields:
                continue  # a trace that predates summarised GEN
            profile["tuples_checked"] += int(fields["tuples_checked"])
            profile["system_states"] += int(fields.get("system_states", 0))
            if "orbit_skips" in fields:
                profile["orbit_skips"] = profile.get("orbit_skips", 0) + int(
                    fields["orbit_skips"]
                )
        return profile

    def progress_profile(self) -> Optional[ProgressEstimate]:
        """Frontier-growth fit over the trace's metric samples.

        Rebuilds the same :func:`~repro.obs.progress.estimate_progress`
        model the live heartbeats carry, from the per-depth ``metric``
        records (depth, elapsed, transitions) and the depth bound the
        ``run_start`` event advertised.  For a trace from a killed run —
        where no final counters exist — this is the report's forecast of
        what the run still had ahead of it.
        """
        samples = []
        for record in self.records:
            if record.get("kind") != "metric":
                continue
            fields = record.get("fields", {})
            depth = fields.get("depth")
            work = fields.get("transitions")
            if depth is None or work is None:
                continue
            samples.append(
                (int(depth), float(fields.get("elapsed_s", 0.0)), float(work))
            )
        max_depth: Optional[int] = None
        for event in self.events("run_start"):
            bound = event.get("fields", {}).get("max_depth")
            if bound is not None:
                max_depth = int(bound)
        return estimate_progress(samples, max_depth)

    def worker_profile(self) -> List[Dict[str, Any]]:
        """Per-process totals over forwarded worker spans: ``worker_explore``
        shards, and the ``worker_verify`` units of traces written while
        verification could still run on the pool."""
        by_pid: Dict[int, Dict[str, Any]] = {}
        for span in self.spans("worker_explore") + self.spans("worker_verify"):
            pid = span.get("pid", 0)
            entry = by_pid.setdefault(
                pid, {"pid": pid, "units": 0, "total_s": 0.0}
            )
            entry["units"] += 1
            entry["total_s"] += float(span.get("dur_s", 0.0))
        return sorted(by_pid.values(), key=lambda entry: entry["pid"])

    def health_profile(self) -> Dict[str, Any]:
        """Pool & cache health: interner hit rate, evictions, parallel rounds.

        Pulls together the operational gauges a long run's trace carries but
        the paper tables don't surface: the hash interner's hit rate and the
        value memo's part of it (the last ``hash_cache`` event — the
        interner is process-global, so the last snapshot is the
        authoritative one), rejected-cache evictions
        and the two cache-hit counters from the final metric, the
        parallel-exploration round and item totals from ``parallel_round``
        events, and how many ``parallel_fallback`` events a failed
        speculation child caused.
        """
        health: Dict[str, Any] = {}
        caches = self.events("hash_cache")
        if caches:
            fields = caches[-1].get("fields", {})
            hits = int(fields.get("hits", 0))
            misses = int(fields.get("misses", 0))
            health["intern_hits"] = hits
            health["intern_value_hits"] = int(fields.get("value_hits", 0))
            health["intern_misses"] = misses
            health["intern_evictions"] = int(fields.get("evictions", 0))
            health["intern_entries"] = int(fields.get("entries", 0))
            health["intern_hit_rate"] = (
                hits / (hits + misses) if hits + misses else 0.0
            )
        final = self.final_metric() or {}
        for counter in (
            "sequence_cache_hits",
            "replay_cache_hits",
            "rejected_cache_evictions",
            "explore_rounds_parallel",
            "explore_shards",
            "explore_merge_conflicts_suppressed",
        ):
            if counter in final:
                health[counter] = int(final[counter])
        rounds = self.events("parallel_round")
        if rounds:
            health["parallel_round_events"] = len(rounds)
            # Every per-round count a round event carries, summed: ``items``
            # today, plus the tallies older traces recorded per round.
            for record in rounds:
                for key, value in record.get("fields", {}).items():
                    if key not in _ROUND_LABELS and isinstance(value, int):
                        total = f"parallel_{key}"
                        health[total] = health.get(total, 0) + value
        fallbacks = self.events("parallel_fallback")
        if fallbacks:
            health["parallel_fallbacks"] = len(fallbacks)
        return health

    # -- rendering -------------------------------------------------------------

    def render(self) -> str:
        """The full ``repro trace-report`` text: all tables, ready to print."""
        sections: List[str] = []

        phases = self.phase_seconds()
        if phases:
            rows = [
                (name, seconds, f"{share * 100:.1f}%")
                for name, seconds, share in overhead_breakdown(phases)
            ]
            sections.append(
                "Overhead breakdown (Fig. 13)\n"
                + format_table(["phase", "seconds", "share"], rows)
            )

        profile = self.soundness_profile()
        if profile["calls"]:
            sections.append(
                "Soundness verification profile (§5.4)\n"
                + format_table(
                    ["calls", "sequences", "total s", "avg ms/call"],
                    [
                        (
                            int(profile["calls"]),
                            int(profile["sequences"]),
                            profile["total_s"],
                            profile["avg_ms"],
                        )
                    ],
                )
            )
            if profile["quotient_rejected"] or profile["replayed"]:
                sections[-1] += (
                    f"\nviolations rejected by quotient / by replay: "
                    f"{profile['rejected_by_quotient']:,} / "
                    f"{profile['rejected_by_replay']:,}  (combinations dismissed "
                    f"unreplayed / replayed: {profile['quotient_rejected']:,} / "
                    f"{profile['replayed']:,})"
                )
            if profile["bound_calls"]:
                sections[-1] += (
                    f"\n{profile['bound_refuted']:,} of {profile['bound_calls']:,} "
                    f"soundness calls refuted by the record-level bound"
                )

        materialised = self.materialise_profile()
        if materialised["tuples_checked"] < materialised["system_states"]:
            sections.append(
                f"GEN: {materialised['tuples_checked']:,} tuples checked covering "
                f"{materialised['system_states']:,} system states"
            )
            if materialised.get("orbit_skips"):
                sections[-1] += (
                    f"; {materialised['orbit_skips']:,} combinations skipped as "
                    f"orbit siblings"
                )

        estimate = self.progress_profile()
        if estimate is not None and estimate.growth_factor is not None:
            finished = bool(self.events("run_end"))
            progress_rows = [
                ("deepest depth", estimate.depth),
                ("depth bound", estimate.max_depth or "-"),
                ("growth per depth", f"x{estimate.growth_factor:.2f}"),
                (
                    "rate",
                    f"{estimate.rate_per_s:.0f} transitions/s"
                    if estimate.rate_per_s
                    else "-",
                ),
            ]
            if not finished and estimate.max_depth is not None:
                # Only a truncated trace still has a future to forecast.
                if estimate.fraction_done is not None:
                    progress_rows.append(
                        ("est. fraction done", f"{estimate.fraction_done * 100:.1f}%")
                    )
                progress_rows.append(("est. remaining", format_eta(estimate.eta_s)))
            sections.append(
                "Progress & growth model\n"
                + format_table(["quantity", "value"], progress_rows)
            )

        span_rows = self._span_rows()
        if span_rows:
            sections.append(
                "Spans\n" + format_table(["span", "count", "total s"], span_rows)
            )

        workers = self.worker_profile()
        if workers:
            sections.append(
                "Workers\n"
                + format_table(
                    ["pid", "units", "total s"],
                    [(w["pid"], w["units"], w["total_s"]) for w in workers],
                )
            )

        health = self.health_profile()
        if health:
            health_rows = []
            for key, value in sorted(health.items()):
                if key == "intern_hit_rate":
                    health_rows.append((key, f"{value * 100:.1f}%"))
                else:
                    health_rows.append((key, value))
            sections.append(
                "Pool & cache health\n"
                + format_table(["gauge", "value"], health_rows)
            )

        final = self.final_metric()
        if final:
            counter_rows = [
                (key, value)
                for key, value in sorted(final.items())
                if not (key.startswith("phase_") and key.endswith("_s"))
            ]
            sections.append(
                "Final counters\n" + format_table(["counter", "value"], counter_rows)
            )

        if not sections:
            return "(empty trace: no spans, events, or metrics)"
        return "\n\n".join(sections)

    def _span_rows(self) -> List[tuple]:
        """Count and total seconds per span name.

        A schema-2 ``materialise`` span stands for a round's ``anchors``
        node states, so it counts as that many, the one span per anchor a
        schema-1 trace carries.
        """
        totals: Dict[str, List[float]] = {}
        for span in self.spans():
            entry = totals.setdefault(span.get("name", "?"), [0, 0.0])
            entry[0] += int(span.get("fields", {}).get("anchors", 1))
            entry[1] += float(span.get("dur_s", 0.0))
        return [
            (name, int(count), seconds)
            for name, (count, seconds) in sorted(totals.items())
        ]
