"""The box's speed, sampled while a repetition runs.

This VM's speed drifts: the same repetition reads 2.4 s and, a minute later,
4.1 s, with ``cpu_s`` = ``wall_s`` throughout (the host's other tenants slow
the core itself; the guest sees no steal).  Slow stretches last from a second
to minutes, so no statistic over a run removes them: 150 back-to-back
repetitions of one workload gave ten-run spreads of 12-44% on raw wall time
whether a run reported its median, lower quartile or minimum.

What does remove them is measuring the box at the same moment, on the same
core.  A :class:`Yardstick` makes an interval timer interrupt the child's
main thread ``HZ`` times a second to do a fixed half millisecond of
interpreter work (integer arithmetic, tuple / repr / hash / dict churn) and
time it.  The child takes the ticks' own time out of its measurements and
multiplies what is left by ``speed`` = ``NOMINAL_TICK_S`` / the mean tick:
seconds as they would read on this box when quiet.  Timing the yardstick
before and after each child instead was tried first and tracks the slowdown
poorly (correlation 0.3-0.8 against 0.95 for ticks inside the run), because
the bursts are shorter than a repetition and differ between the two cores.

The tick is stdlib only and of fixed size, so no change to ``src/`` can move
it.  Forked pool workers inherit the handler but not the timer: they are not
interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List

#: Ticks a second: about 3% of the run, 125 samples in a 2.5 s repetition.
HZ = 50
#: The mean tick on this box when quiet: 0.50 ms inside the smallest workload,
#: 0.60 ms inside the largest, whose working set leaves the tick a colder
#: cache.  Only a scale: it makes rescaled seconds read like seconds here.
NOMINAL_TICK_S = 0.00055


class Yardstick:
    """Times a fixed piece of work on the main thread, ``HZ`` times a second."""

    def __init__(self) -> None:
        self.ticks: List[float] = []
        #: Seconds spent in ticks so far: not the program's, to be taken out.
        self.busy_s = 0.0

    def _tick(self, signum: int, frame: object) -> None:
        started = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc = (acc * 31 + i) & 0xFFFFFFFF
        table = {}
        for i in range(250):
            key = (i & 63, i, ("m", i % 7))
            table[hash(repr(key))] = key
        for key in table.values():
            acc += key[1]
        took = time.perf_counter() - started
        self.ticks.append(took)
        self.busy_s += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, 1.0 / HZ, 1.0 / HZ)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self) -> float:
        """Quiet-box seconds per measured second over the sampled stretch.

        The mean of the ticks without their fastest and slowest tenth: a tick
        the host preempted reads ten times the others.
        """
        ordered = sorted(self.ticks)
        cut = len(ordered) // 10
        return NOMINAL_TICK_S / statistics.mean(ordered[cut : len(ordered) - cut])
