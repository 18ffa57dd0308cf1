"""Search budgets and stop criteria.

Both checkers terminate "upon exceeding some bounds, such as running time or
search depth" (Fig. 9, ``StopCriterion``).  :class:`SearchBudget` bundles the
bounds; :class:`BudgetClock` is the per-run stopwatch that evaluates them.
Online model checking (§3.3) leans on the time bound: the checker gets a few
seconds between restarts, so running out of budget is the *normal* way a run
ends there.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional

from repro.knobs import check_minimums, knob

#: Handler executions between two readings of the wall clock: the counter
#: bounds are compared before every execution, the clock only this often,
#: to keep the hot path cheap.
CLOCK_CHECK_INTERVAL = 256


@dataclass(frozen=True)
class SearchBudget:
    """Bounds on a single checker run; ``None`` disables a bound.

    ``max_depth`` bounds the number of events in any explored sequence;
    ``max_seconds`` bounds wall-clock time; ``max_transitions`` bounds
    handler executions (a deterministic alternative to wall-clock for
    reproducible tests); ``max_states`` bounds visited states (global states
    for the global checker, node states for LMC).
    """

    max_depth: Optional[int] = knob(None, minimum=0)
    max_seconds: Optional[float] = knob(None, minimum=0)
    max_transitions: Optional[int] = knob(None, minimum=0)
    max_states: Optional[int] = knob(None, minimum=0)

    def __post_init__(self) -> None:
        check_minimums(self)

    @classmethod
    def unbounded(cls) -> "SearchBudget":
        """A budget with every bound disabled (exhaustive search)."""
        return cls()


class BudgetClock:
    """Evaluates a :class:`SearchBudget` against a running search."""

    def __init__(self, budget: SearchBudget, already_elapsed: float = 0.0):
        self.budget = budget
        #: ``already_elapsed`` pre-ages the clock: a resumed run
        #: (docs/CHECKPOINTS.md) continues from the checkpointed elapsed
        #: time, so ``max_seconds`` bounds total work, not work-since-resume,
        #: and the depth series stays monotonic across the restore.
        self._start = time.perf_counter() - already_elapsed

    def elapsed(self) -> float:
        """Seconds since the clock started."""
        return time.perf_counter() - self._start

    def out_of_time(self) -> bool:
        """True when the wall-clock bound is exhausted."""
        limit = self.budget.max_seconds
        return limit is not None and self.elapsed() >= limit

    def depth_allowed(self, depth: int) -> bool:
        """True when exploring at ``depth`` is within the depth bound."""
        limit = self.budget.max_depth
        return limit is None or depth <= limit

    def stop_reason(
        self, transitions: int, states: Callable[[], int], executed: int
    ) -> Optional[str]:
        """The first exhausted bound as a human-readable label, else None.

        The stop criterion of both checkers, asked before each handler
        execution.  The counter bounds come first: ``transitions`` against
        ``max_transitions``, then ``states()`` — called only when
        ``max_states`` is set — against ``max_states``.  The wall clock is
        read last, and only when ``executed`` (handler executions so far)
        is a multiple of :data:`CLOCK_CHECK_INTERVAL`.
        """
        budget = self.budget
        if budget.max_transitions is not None and transitions >= budget.max_transitions:
            return "transition budget exhausted"
        if budget.max_states is not None and states() >= budget.max_states:
            return "state budget exhausted"
        if executed % CLOCK_CHECK_INTERVAL == 0 and self.out_of_time():
            return "time budget exhausted"
        return None
