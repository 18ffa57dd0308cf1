"""Replaying witness traces on real (consuming) semantics.

Every confirmed bug carries a witness: a total order of events that a real
run could execute.  This module replays such traces under the *global*
semantics of Fig. 5 — messages are consumed on delivery — which is the
strongest possible validation of an LMC report: if the replay executes to
completion and the final system state violates the invariant, the bug is
real beyond doubt.

The checkers already guarantee this by construction; the replayer exists so
users (and the test suite) can independently audit any report, and so bug
reports can be turned into regression fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.explore.global_checker import apply_event
from repro.invariants.base import Invariant
from repro.model.events import DeliveryEvent, DropEvent, DuplicateEvent, Event
from repro.model.multiset import FrozenMultiset
from repro.model.protocol import Protocol
from repro.model.system_state import GlobalState, SystemState
from repro.reports import BugReport


@dataclass(frozen=True)
class ReplayOutcome:
    """Result of replaying a trace.

    ``executed`` counts the events that ran; ``failed_at`` is the index of
    the first inexecutable event (None when all ran); ``final_system`` is
    the system state after the last executed event; ``violates`` tells
    whether the supplied invariant fails on it.
    """

    executed: int
    failed_at: Optional[int]
    final_system: SystemState
    violates: Optional[bool]

    @property
    def complete(self) -> bool:
        """True when every event of the trace executed."""
        return self.failed_at is None


def replay_trace(
    protocol: Protocol,
    initial_system: SystemState,
    trace: Tuple[Event, ...],
    invariant: Optional[Invariant] = None,
) -> ReplayOutcome:
    """Execute ``trace`` from ``initial_system`` under consuming semantics.

    A delivery or a drop is executable only while its message is genuinely
    in flight, and consumes that copy; a duplicate redelivery consumes
    nothing but needs an executed event to have sent its message, since a
    network can only copy what it carried.  An inexecutable event stops
    the replay (that is what makes the check meaningful).  Exceptions a
    handler raises propagate.  Internal no-ops are tolerated — they do not
    change state, so skipping them preserves the run.
    """
    state = GlobalState(initial_system, FrozenMultiset())
    # Every message ever in flight: the network starts empty and only sends
    # enter it, so this is exactly what the executed events sent.
    sent: set = set()
    executed = 0
    failed_at: Optional[int] = None
    for index, event in enumerate(trace):
        if (
            isinstance(event, (DeliveryEvent, DropEvent))
            and event.message not in state.network
        ) or (isinstance(event, DuplicateEvent) and event.message not in sent):
            # Not enabled: that copy was never sent or is already consumed.
            failed_at = index
            break
        # None is an internal no-op: harmless, state unchanged.
        state = apply_event(protocol, state, event) or state
        sent.update(state.network.distinct())
        executed += 1
    violates = None
    if invariant is not None:
        violates = not invariant.check(state.system)
    return ReplayOutcome(
        executed=executed,
        failed_at=failed_at,
        final_system=state.system,
        violates=violates,
    )


def validate_bug(
    protocol: Protocol, bug: BugReport, invariant: Invariant
) -> ReplayOutcome:
    """Audit a checker's bug report end to end.

    Replays the report's witness trace from its initial state and evaluates
    the invariant on the outcome.  A sound report yields a complete replay
    whose final state violates the invariant.
    """
    return replay_trace(protocol, bug.initial_state, bug.trace, invariant)


def trace_to_script(bug: BugReport) -> List[str]:
    """Render a bug's witness as a copy-pasteable regression comment block."""
    lines = [
        "# regression witness — replay with repro.replay.replay_trace",
        f"# violation: {bug.description}",
    ]
    lines.extend(f"#   {line}" for line in bug.trace_lines())
    return lines
