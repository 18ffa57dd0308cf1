"""Run-metrics sampling: counters, memory, and phase timers over time.

:class:`RunMetrics` replaces the checkers' ad-hoc depth-sample bookkeeping
with one registry that feeds two consumers at once:

* the per-depth :class:`~repro.stats.series.DepthSeries` the Fig. 10–13
  benches print (a sample lands whenever the explored depth grows, plus a
  forced end-of-run sample — exactly the seed behaviour);
* the trace, as ``metric`` records — additionally emitted on a configurable
  wall-clock cadence (``interval`` seconds, checked at each sampling point),
  so a long run's trace shows counter *progress*, not just its endpoints.

Each sample is the :meth:`~repro.stats.counters.ExplorationStats.snapshot`
dict (which already folds in the ``phase_*_s`` Fig. 13 timers) extended
with caller-provided gauges (node states, tracked bytes) and the process
RSS via :func:`rss_bytes`.
"""

from __future__ import annotations

import sys
from typing import Callable, Dict, Optional

from repro.obs.emitter import NULL_EMITTER, TraceEmitter
from repro.stats.counters import ExplorationStats
from repro.stats.series import DepthSeries


def rss_bytes() -> Optional[int]:
    """Peak resident set size of this process in bytes, or None if unknown.

    Uses the stdlib ``resource`` module (no third-party dependency);
    ``ru_maxrss`` is KiB on Linux and bytes on macOS.
    """
    try:
        import resource
    except ImportError:  # non-POSIX platform
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":
        return int(peak)
    return int(peak) * 1024


class RunMetrics:
    """Samples exploration counters into a depth series and a trace.

    Parameters
    ----------
    series:
        The depth series to fill (Fig. 10–13 raw material).
    stats:
        The live counter block being sampled.
    elapsed:
        Zero-argument callable returning seconds since the run started
        (typically ``BudgetClock.elapsed``).
    emitter:
        Trace sink for ``metric`` records; the null emitter by default.
    interval:
        Wall-clock cadence in seconds for *trace* samples while depth is
        flat; ``None`` emits only when depth grows (and on force).
    extra:
        Zero-argument callable contributing additional gauge fields to each
        sample (e.g. ``node_states``, ``memory_bytes``).
    heartbeat:
        Callable receiving ``(depth, elapsed_s, metrics, force)`` on every
        taken sample — the run registry's hook (docs/OBSERVABILITY.md "Live
        operations"); ``force`` marks the seed and end-of-run samples that
        must reach disk past any rate limiting.  A heartbeat sink keeps the
        ``interval`` cadence alive even when tracing is off, but never
        touches the depth series or the trace, so results stay
        byte-identical with it absent.
    """

    def __init__(
        self,
        series: DepthSeries,
        stats: ExplorationStats,
        elapsed: Callable[[], float],
        emitter: TraceEmitter = NULL_EMITTER,
        interval: Optional[float] = None,
        extra: Optional[Callable[[], Dict[str, float]]] = None,
        heartbeat: Optional[Callable[[int, float, Dict[str, float], bool], None]] = None,
    ):
        self.series = series
        self.stats = stats
        self.elapsed = elapsed
        self.emitter = emitter
        self.interval = interval
        self.extra = extra
        self.heartbeat = heartbeat
        self._last_depth = -1
        self._last_emit = float("-inf")

    def _metrics(self) -> Dict[str, float]:
        """One sample: the counter snapshot, the ``extra`` gauges and RSS."""
        metrics = self.stats.snapshot()
        if self.extra is not None:
            metrics.update(self.extra())
        rss = rss_bytes()
        if rss is not None:
            metrics["rss_bytes"] = rss
        return metrics

    def pulse(self, get_depth: Callable[[], int]) -> bool:
        """Interval-cadence emission from *inside* a long round.

        Exploration rounds grow with the frontier, so the round-boundary
        :meth:`sample` calls can be minutes apart on hard workloads — a
        live status reader would see nothing but the seed snapshot.  This
        hook emits a trace metric and/or heartbeat whenever the wall-clock
        cadence is due, but never touches the depth series: mid-round
        depths are provisional, and the Fig. 10–13 series must stay keyed
        to round boundaries exactly as without observability.

        ``get_depth`` is called only once a sample is actually due, so the
        common case costs two attribute checks and a clock read.  Returns
        True when a sample was emitted.
        """
        if self.interval is None:
            return False
        if not self.emitter.enabled and self.heartbeat is None:
            return False
        elapsed = self.elapsed()
        if elapsed - self._last_emit < self.interval:
            return False
        depth = get_depth()
        metrics = self._metrics()
        if self.emitter.enabled:
            self.emitter.metric(depth=depth, elapsed_s=elapsed, **metrics)
        if self.heartbeat is not None:
            self.heartbeat(depth, elapsed, metrics, False)
        self._last_emit = elapsed
        return True

    def sample(self, depth: int, force: bool = False) -> bool:
        """Take a sample at ``depth`` if anything warrants one.

        A sample is warranted when the depth grew past the last recorded
        one, when ``force`` is set (seeding and end-of-run), or — for the
        trace only — when ``interval`` seconds elapsed since the last
        emitted metric record.  Returns True when a sample was taken.
        """
        depth_grew = depth > self._last_depth
        elapsed = self.elapsed()
        interval_due = (
            self.interval is not None
            and (self.emitter.enabled or self.heartbeat is not None)
            and elapsed - self._last_emit >= self.interval
        )
        if not (depth_grew or force or interval_due):
            return False
        metrics = self._metrics()
        # The series stays depth-keyed: interval-only samples do not touch
        # it, and a forced sample at an already-recorded depth replaces the
        # final row (end-of-run totals must win).
        if depth_grew:
            self.series.record(depth, elapsed, metrics)
            self._last_depth = depth
        elif force:
            self.series.record_or_update(depth, elapsed, metrics)
        if self.emitter.enabled:
            self.emitter.metric(depth=depth, elapsed_s=elapsed, **metrics)
        if self.heartbeat is not None:
            self.heartbeat(depth, elapsed, metrics, force)
        if self.emitter.enabled or self.heartbeat is not None:
            self._last_emit = elapsed
        return True
