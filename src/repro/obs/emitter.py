"""Structured trace emitters: JSONL spans, events, and metric samples.

A trace is a flat stream of JSON records, one per line.  Three kinds:

``span``
    A named, timed region — an exploration round, a round's system-state
    materialisation, one soundness call, one worker verification.
    Spans carry ``id``/``parent`` so nested regions reconstruct into a
    tree; a span record is written when the region *ends* and its ``ts``
    is the region's start, so sorting by ``ts`` yields causal order.  A
    batched span (:meth:`TraceEmitter.batch_span`) is one record for many
    short entries into a region, written when its owner flushes it.
``event``
    A point-in-time occurrence (a bug confirmation, a run ending).
``metric``
    A counter snapshot (:meth:`repro.stats.counters.ExplorationStats.snapshot`
    plus memory figures), emitted by :class:`repro.obs.metrics.RunMetrics`.

Every record has ``ts`` (seconds since the emitter was created), ``pid``,
and ``kind``.  The full field-by-field schema is docs/OBSERVABILITY.md.

The default sink is :data:`NULL_EMITTER`, whose hooks are no-ops and whose
``span()`` returns a shared singleton — instrumented hot paths cost one
no-op ``with`` statement when tracing is off.  Emitters are single-threaded
by design (one per checker run); parallel workers do not emit directly but
return pre-timed span dicts that the parent re-emits via
:meth:`TraceEmitter.emit_span`, keeping a multiprocess run's trace coherent.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional, TextIO, Union

#: Schema version stamped on the trace header event.
SCHEMA_VERSION = 2


class _Span:
    """Context manager for one timed region; emits its record on exit."""

    __slots__ = ("_emitter", "name", "span_id", "parent", "fields", "_start")

    def __init__(
        self,
        emitter: "TraceEmitter",
        name: str,
        span_id: int,
        parent: Optional[int],
        fields: Dict[str, Any],
    ):
        self._emitter = emitter
        self.name = name
        self.span_id = span_id
        self.parent = parent
        self.fields = fields
        self._start = 0.0

    def add(self, **fields: Any) -> None:
        """Attach fields discovered mid-region (counts, outcomes)."""
        self.fields.update(fields)

    def __enter__(self) -> "_Span":
        self._start = time.perf_counter()
        self._emitter._stack.append(self.span_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        duration = time.perf_counter() - self._start
        stack = self._emitter._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()
        self._emitter._write_record(
            {
                "ts": self._start - self._emitter._origin,
                "pid": os.getpid(),
                "kind": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent,
                "dur_s": duration,
                "fields": self.fields,
            }
        )


class _BatchSpan:
    """One span record standing for many short entries into the same region.

    Each ``with`` entry pushes the span's id onto the nesting stack while
    it runs, so spans opened inside nest under it; the first entry after a
    flush reserves the id and fixes ``ts`` and ``parent``.  :meth:`add`
    sums counts across entries, ``dur_s`` is the summed time inside
    entries, and :meth:`flush` writes the one record — nothing if no entry
    happened.
    """

    __slots__ = (
        "_emitter", "name", "span_id", "parent", "fields", "_first", "_start", "_dur"
    )

    def __init__(self, emitter: "TraceEmitter", name: str):
        self._emitter = emitter
        self.name = name
        self._start = 0.0
        self._reset()

    def _reset(self) -> None:
        self.span_id: Optional[int] = None
        self.parent: Optional[int] = None
        self.fields: Dict[str, Any] = {}
        self._first = self._dur = 0.0

    def add(self, **deltas: int) -> None:
        """Add each count to the field of that name."""
        fields = self.fields
        for key, value in deltas.items():
            fields[key] = fields.get(key, 0) + value

    def tally(self, key: str, label: object) -> None:
        """Count one entry under ``label`` in the per-label field ``key``."""
        counts = self.fields.setdefault(key, {})
        label = str(label)  # the same keys in memory as after a JSON round trip
        counts[label] = counts.get(label, 0) + 1

    def __enter__(self) -> "_BatchSpan":
        emitter = self._emitter
        self._start = time.perf_counter()
        if self.span_id is None:
            self.span_id = emitter._next_id
            emitter._next_id += 1
            self.parent = emitter._stack[-1] if emitter._stack else None
            self._first = self._start
        emitter._stack.append(self.span_id)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._dur += time.perf_counter() - self._start
        stack = self._emitter._stack
        if stack and stack[-1] == self.span_id:
            stack.pop()

    def flush(self) -> None:
        """Write the span's record if it was entered at all, and start afresh.

        The next entry after a flush reserves a new id: one object serves a
        sequence of batches, such as a pass's rounds.
        """
        if self.span_id is None:
            return
        emitter = self._emitter
        emitter._write_record(
            {
                "ts": self._first - emitter._origin,
                "pid": os.getpid(),
                "kind": "span",
                "name": self.name,
                "id": self.span_id,
                "parent": self.parent,
                "dur_s": self._dur,
                "fields": self.fields,
            }
        )
        self._reset()


class _NullSpan:
    """Shared no-op span: the entire cost of a disabled instrumentation point."""

    __slots__ = ()

    def add(self, **fields: Any) -> None:
        pass

    def tally(self, key: str, label: object) -> None:
        pass

    def flush(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceEmitter:
    """Base emitter: span/event/metric construction over an abstract sink.

    Subclasses implement :meth:`_write`; everything else — ids, the span
    nesting stack, the trace-relative clock — lives here.
    """

    #: Hot paths may consult this to skip field computation entirely.
    enabled: bool = True

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._stack: List[int] = []
        self._next_id = 1
        self._closed = False
        self.event("trace_start", schema=SCHEMA_VERSION)

    # -- record construction ---------------------------------------------------

    def span(self, name: str, **fields: Any) -> Union[_Span, _NullSpan]:
        """A context manager timing a named region nested under the current span."""
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        return _Span(self, name, span_id, parent, fields)

    def batch_span(self, name: str) -> Union[_BatchSpan, _NullSpan]:
        """One span record for many entries into a region (see :class:`_BatchSpan`)."""
        return _BatchSpan(self, name)

    def emit_span(
        self,
        name: str,
        dur_s: float,
        fields: Optional[Dict[str, Any]] = None,
        pid: Optional[int] = None,
    ) -> None:
        """Emit a pre-timed span (a worker's region, forwarded by the parent).

        The record nests under the *parent's* current span and carries the
        worker's ``pid``, so a multiprocess run reads as one tree.
        """
        span_id = self._next_id
        self._next_id += 1
        self._write_record(
            {
                "ts": time.perf_counter() - self._origin,
                "pid": os.getpid() if pid is None else pid,
                "kind": "span",
                "name": name,
                "id": span_id,
                "parent": self._stack[-1] if self._stack else None,
                "dur_s": dur_s,
                "fields": dict(fields or {}),
            }
        )

    def event(self, name: str, **fields: Any) -> None:
        """Emit a point-in-time event record."""
        self._write_record(
            {
                "ts": time.perf_counter() - self._origin,
                "pid": os.getpid(),
                "kind": "event",
                "name": name,
                "fields": fields,
            }
        )

    def metric(self, **fields: Any) -> None:
        """Emit a counter-snapshot record (see :class:`repro.obs.metrics.RunMetrics`)."""
        self._write_record(
            {
                "ts": time.perf_counter() - self._origin,
                "pid": os.getpid(),
                "kind": "metric",
                "fields": fields,
            }
        )

    # -- sink ------------------------------------------------------------------

    def _write_record(self, record: Dict[str, Any]) -> None:
        if not self._closed:
            self._write(record)

    def _write(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self) -> None:
        """Flush and release the sink; further records are dropped."""
        self._closed = True

    def __enter__(self) -> "TraceEmitter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


class NullEmitter(TraceEmitter):
    """The zero-overhead default: every hook is a no-op."""

    enabled = False

    def __init__(self) -> None:  # deliberately skips TraceEmitter.__init__
        self._stack = []
        self._closed = False

    def span(self, name: str, **fields: Any) -> _NullSpan:
        return _NULL_SPAN

    def batch_span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def emit_span(self, name, dur_s, fields=None, pid=None) -> None:
        pass

    def event(self, name: str, **fields: Any) -> None:
        pass

    def metric(self, **fields: Any) -> None:
        pass

    def close(self) -> None:
        pass


#: Process-wide shared no-op emitter; the default for every instrumented API.
NULL_EMITTER = NullEmitter()


class MemoryEmitter(TraceEmitter):
    """Collects records in a list — the test and notebook sink."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        super().__init__()

    def _write(self, record: Dict[str, Any]) -> None:
        self.records.append(record)


class JsonlEmitter(TraceEmitter):
    """Streams records to a JSONL file (one compact JSON object per line)."""

    def __init__(self, path_or_file: Union[str, "os.PathLike[str]", TextIO]):
        if hasattr(path_or_file, "write"):
            self._file: TextIO = path_or_file  # type: ignore[assignment]
            self._owns_file = False
            self.path: Optional[str] = getattr(path_or_file, "name", None)
        else:
            self.path = os.fspath(path_or_file)
            # Line buffering: each record reaches the OS as one whole line,
            # so a killed run truncates at most the final record — which the
            # trace readers tolerate (see repro.obs.report.load_trace).
            self._file = open(self.path, "w", encoding="utf-8", buffering=1)
            self._owns_file = True
        super().__init__()

    def _write(self, record: Dict[str, Any]) -> None:
        self._file.write(json.dumps(record, separators=(",", ":"), default=str))
        self._file.write("\n")

    def close(self) -> None:
        if self._closed:
            return
        super().close()
        self._file.flush()
        if self._owns_file:
            self._file.close()
