"""Per-layer spans, taken from outside ``src/repro``.

The traced repetition of a workload wraps the public callables of each layer
(``FUNCTIONS`` and ``METHODS`` below) and accumulates, per callable, how often it ran, its
*self* time (span minus the part its child spans cover) and its inclusive
time.  Spans nest through one stack, so the self times of all layers
telescope to the duration of the root spans: nothing is counted twice and
nothing inside a root span is lost.

Only the traced child process imports this module; end-to-end metrics come
from children that never load it.  Wrappers are installed on module and
class attributes (consumers use ``from … import``, so every ``repro.*``
module attribute that *is* the original is patched) and :meth:`Tracer.restore`
puts every original back.

Closing a span is the tracer's own work; it is charged to a ``bench.trace``
pseudo-layer instead of the enclosing layer.  What remains in the parent's
self time is the call into the wrapper itself.  The whole cost of tracing is
published as ``bench.trace.overhead_share``, not hidden.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from typing import Any, Callable, Dict, List, Tuple

#: layer -> module-level functions of that layer.
FUNCTIONS: Tuple[Tuple[str, str, Tuple[str, ...]], ...] = (
    (
        "model.hashing",
        "repro.model.hashing",
        ("content_hash", "content_hash_and_size", "canonical_bytes", "hash_many"),
    ),
    (
        "core.system_states",
        "repro.core.system_states",
        ("enumerate_general", "enumerate_optimized", "combination_to_system_state"),
    ),
    (
        "core.soundness",
        "repro.core.soundness",
        ("replay_sequences_indexed", "backtrack_order"),
    ),
    (
        "core.checkpoint",
        "repro.core.checkpoint",
        (
            "snapshot_pass",
            "save_checkpoint",
            "load_checkpoint",
            "restore_pass",
            "verify_fingerprint",
        ),
    ),
    ("replay", "repro.replay", ("validate_bug",)),
)

#: layer -> methods of that layer's public classes.  ``TraceEmitter.span`` is
#: handled apart (its cost is in the returned context manager).
METHODS: Tuple[Tuple[str, str, str, Tuple[str, ...]], ...] = (
    (
        "network.monotonic",
        "repro.network.monotonic",
        "MonotonicNetwork",
        ("add", "add_hashed", "add_all", "for_destination", "messages_since"),
    ),
    (
        "core.records",
        "repro.core.records",
        "NodeStateStore",
        ("add", "lookup", "active_records"),
    ),
    ("core.records", "repro.core.records", "NodeStateRecord", ("add_predecessor",)),
    (
        "core.symmetry",
        "repro.core.symmetry",
        "SymmetryReducer",
        ("first_occurrence", "orbit_key", "orbit_variants"),
    ),
    ("core.soundness", "repro.core.soundness", "SoundnessVerifier", ("is_state_sound",)),
    (
        "core.explore_parallel",
        "repro.core.explore_parallel",
        "RoundSpeculator",
        ("begin_round",),
    ),
    ("core.checker", "repro.core.checker", "LocalModelChecker", ("run", "extend_depth")),
    ("obs", "repro.obs.emitter", "TraceEmitter", ("event", "metric", "emit_span")),
    ("obs", "repro.obs.registry", "RunHandle", ("heartbeat",)),
    (
        "obs",
        "repro.obs.coverage",
        "CoverageTracker",
        ("note_delivery", "note_action", "note_invariant", "note_fault", "as_dict"),
    ),
    ("online", "repro.online.simulator", "LiveRun", ("run_for", "snapshot")),
    ("online", "repro.online.injector", "PaxosTestDriver", ("drive",)),
    ("online", "repro.online.injector", "FreshIndexInjector", ("__call__",)),
    ("online", "repro.online.crystalball", "OnlineModelChecker", ("run",)),
)

#: Wrapped on whichever class in the workload's protocol / invariant MRO
#: defines them (instance attributes would not survive the pickling that
#: ships the protocol to pool workers).
PROTOCOL_METHODS = ("handle_message", "handle_action", "enabled_actions")
INVARIANT_METHODS = ("check", "local_projection", "projections_conflict")


class Tracer:
    """Accumulates per-callable span statistics and owns the installed patches."""

    def __init__(self) -> None:
        #: ``"layer|callable"`` -> ``[calls, self_s, inclusive_s]``.
        self.stats: Dict[str, List[float]] = {}
        #: Smallest self time any span ever had; span accounting is sound
        #: (children ⊆ parent) exactly when this stays >= 0.
        self.min_self_s = 0.0
        #: Bytes on disk after each ``save_checkpoint`` call, summed.
        self.bytes_written = 0
        #: Open spans, innermost last: ``[start, seconds covered by children]``.
        self._stack: List[List[float]] = []
        #: The tracer's own span-closing work, kept out of every layer.
        self._bookkeeping = self.stats.setdefault(
            "bench.trace|bookkeeping", [0, 0.0, 0.0]
        )
        self._patches: List[Tuple[Any, str, Any]] = []

    # -- spans -----------------------------------------------------------------

    def _close(self, stat: List[float], frame: List[float], end: float) -> None:
        self._stack.pop()
        duration = end - frame[0]
        own = duration - frame[1]
        stat[0] += 1
        stat[1] += own
        stat[2] += duration
        if own < self.min_self_s:
            self.min_self_s = own
        if self._stack:
            # Charge the parent up to *now*, not up to ``end``: the lines
            # above are the tracer's work, not the parent layer's.
            covered = time.perf_counter() - frame[0]
            self._stack[-1][1] += covered
            self._bookkeeping[0] += 1
            self._bookkeeping[1] += covered - duration

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``.

        A generator function is timed inside each ``next`` — the time its
        consumer spends between items belongs to the consumer.
        """
        stat = self.stats.setdefault(f"{layer}|{name}", [0, 0.0, 0.0])
        stack, close, clock = self._stack, self._close, time.perf_counter

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_generator(*args: Any, **kwargs: Any):
                iterator = fn(*args, **kwargs)
                while True:
                    frame = [clock(), 0.0]
                    stack.append(frame)
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        close(stat, frame, clock())
                    yield item

            return traced_generator

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                close(stat, frame, clock())

        return traced

    # -- patching ----------------------------------------------------------------

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch_method(self, layer: str, cls: type, name: str) -> None:
        """Wrap ``name`` on the class in ``cls``'s MRO that defines it."""
        for owner in cls.__mro__:
            if name in owner.__dict__:
                wrapper = self.wrap(layer, f"{owner.__name__}.{name}", owner.__dict__[name])
                self._set(owner, name, wrapper)
                return
        raise AttributeError(f"{cls.__name__} has no method {name!r}")

    def patch_function(self, layer: str, module_name: str, name: str) -> None:
        """Wrap a module-level function wherever ``repro`` has bound it."""
        original = getattr(importlib.import_module(module_name), name)
        wrapper = self.wrap(layer, name, original)
        if name == "save_checkpoint":
            wrapper = self._measuring_size(wrapper)
        for mod_name, module in list(sys.modules.items()):
            if module is None or mod_name.split(".")[0] != "repro":
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def _measuring_size(self, save: Callable) -> Callable:
        @functools.wraps(save)
        def save_and_measure(path: str, payload: Dict[str, Any]) -> None:
            save(path, payload)
            self.bytes_written += os.path.getsize(path)

        return save_and_measure

    def _patch_span(self) -> None:
        """Time ``TraceEmitter.span``'s context manager, where its cost is."""
        from repro.obs.emitter import TraceEmitter

        make = TraceEmitter.__dict__["span"]
        enter = self.wrap("obs", "span.__enter__", lambda span: span.__enter__())
        leave = self.wrap(
            "obs", "span.__exit__", lambda span, *exc: span.__exit__(*exc)
        )

        class TimedSpan:
            __slots__ = ("_span",)

            def __init__(self, span: Any) -> None:
                self._span = span

            def add(self, **fields: Any) -> None:
                self._span.add(**fields)

            def __enter__(self) -> "TimedSpan":
                enter(self._span)
                return self

            def __exit__(self, *exc_info: object) -> None:
                leave(self._span, *exc_info)

        @functools.wraps(make)
        def span(emitter: Any, name: str, **fields: Any) -> TimedSpan:
            return TimedSpan(make(emitter, name, **fields))

        self._set(TraceEmitter, "span", span)

    def install(self, protocol: Any, invariant: Any) -> None:
        """Wrap every layer's callables; call after the workload is built."""
        for layer, module_name, names in FUNCTIONS:
            for name in names:
                self.patch_function(layer, module_name, name)
        for layer, module_name, class_name, names in METHODS:
            cls = getattr(importlib.import_module(module_name), class_name)
            for name in names:
                self.patch_method(layer, cls, name)
        self._patch_span()
        for name in PROTOCOL_METHODS:
            self.patch_method("protocols.handlers", type(protocol), name)
        for name in INVARIANT_METHODS:
            self.patch_method("invariants", type(invariant), name)

    def restore(self) -> None:
        """Put every original back (idempotent)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def report(self) -> Dict[str, Any]:
        """JSON-ready statistics for the parent process."""
        return {
            "stats": self.stats,
            "min_self_s": self.min_self_s,
            "bytes_written": self.bytes_written,
        }
