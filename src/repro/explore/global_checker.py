"""The global model checking baseline (§3.2): exhaustive search over global states.

This is the classic approach the paper compares against: every explored state
is a full global state ``(L, I)`` — system state plus in-flight messages —
and every network mutation mints a fresh global state.  The checker is sound
(every visited state is reachable, so every violation is real) and complete
up to its bounds, but hits exponential explosion almost immediately; that
explosion *is* the paper's motivation and the B-DFS curves of Figs. 10-12.

The search is layered breadth-first with visited-state deduplication on
state hashes.  Depth ``d`` of the layering holds exactly the states whose
shortest path from the initial state has ``d`` events, so a depth bound
visits the same states a bounded DFS (the literal B-DFS of §3.2) visits,
and each finished layer yields one sample of the per-depth series
Figs. 10-12 plot.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.explore.budget import BudgetClock, SearchBudget
from repro.invariants.base import Invariant
from repro.model.events import DeliveryEvent, DropEvent, Event, InternalEvent
from repro.model.multiset import FrozenMultiset
from repro.model.protocol import Protocol
from repro.model.system_state import GlobalState, SystemState
from repro.model.types import LocalAssertionError
from repro.obs.metrics import live_bytes
from repro.reports import BugReport, CheckResult
from repro.stats.counters import ExplorationStats
from repro.stats.series import DepthSeries


def enumerate_events(protocol: Protocol, state: GlobalState) -> Tuple[Event, ...]:
    """All events enabled in a global state, in deterministic order.

    Delivery events for each *distinct* in-flight message come first (in the
    network's canonical order), then internal actions per node in node-id
    order.
    """
    events: List[Event] = [
        DeliveryEvent(message) for message in state.network.distinct()
    ]
    for node, node_state in state.system.items():
        for action in protocol.enabled_actions(node_state):
            events.append(InternalEvent(action))
    return tuple(events)


def apply_event(
    protocol: Protocol, state: GlobalState, event: Event
) -> Optional[GlobalState]:
    """Successor global state after executing ``event``, or None for a no-op.

    Every event runs through :meth:`Protocol.execute`; what is left here is
    the consuming network ``I``.  A delivery or a drop consumes one
    in-flight copy of its message, so it always produces a distinct global
    state; every other event is a local step, and an internal action that
    changes nothing is a no-op.  Local assertion failures propagate to the
    caller: in the sound global search they are genuine bugs.
    """
    node_state = state.system.get(event.node)
    result = protocol.execute(node_state, event)
    if isinstance(event, (DeliveryEvent, DropEvent)):
        return state.deliver(event.message, result.state, result.sends)
    if isinstance(event, InternalEvent) and result.is_noop(node_state):
        return None
    return state.run_internal(event.node, result.state, result.sends)


class GlobalModelChecker:
    """Exhaustive layered BFS over global states (the B-DFS baseline)."""

    def __init__(
        self,
        protocol: Protocol,
        invariant: Invariant,
        budget: SearchBudget = SearchBudget.unbounded(),
        stop_on_first_bug: bool = True,
    ):
        self.protocol = protocol
        self.invariant = invariant
        self.budget = budget
        self.stop_on_first_bug = stop_on_first_bug

    # -- public API ---------------------------------------------------------

    def run(self, initial_system: Optional[SystemState] = None) -> CheckResult:
        """Search from ``initial_system`` (default: the protocol's initial state).

        The network starts empty — when restarting from a live snapshot the
        online framework treats in-flight messages as lost, which the lossy
        network model already permits.
        """
        if initial_system is None:
            initial_system = self.protocol.initial_system_state()
        return self._run_bfs(GlobalState(initial_system, FrozenMultiset()))

    # -- search ---------------------------------------------------------------

    def _run_bfs(self, initial: GlobalState) -> CheckResult:
        stats = ExplorationStats()
        clock = BudgetClock(self.budget)
        series = DepthSeries("B-DFS")
        result = CheckResult(
            algorithm="B-DFS", completed=False, stats=stats, series=series
        )
        # Predecessor pointers, one per visited state hash: the visited set.
        parents: Dict[int, Tuple[Optional[int], Optional[Event]]] = {}

        def record_depth(depth: int) -> None:
            metrics = stats.snapshot()
            live = live_bytes()
            if live is not None:
                metrics["live_bytes"] = live
            series.record(depth, clock.elapsed(), metrics)

        initial_hash = hash(initial)
        parents[initial_hash] = (None, None)
        stats.global_states = 1
        frontier: List[Tuple[GlobalState, int]] = [(initial, initial_hash)]
        self._check_state(initial, initial_hash, parents, initial.system, result)
        record_depth(0)
        if result.bugs and self.stop_on_first_bug:
            result.stop_reason = "bug found"
            return result

        depth = 0
        while frontier:
            if not clock.depth_allowed(depth + 1):
                result.completed = True
                result.stop_reason = "depth bound reached"
                return result
            next_frontier: List[Tuple[GlobalState, int]] = []
            for state, state_hash in frontier:
                for event in enumerate_events(self.protocol, state):
                    # The visited set holds one entry per global state.
                    reason = clock.stop_reason(
                        stats.transitions, parents.__len__, stats.transitions
                    )
                    if reason:
                        result.stop_reason = reason
                        return result
                    successor = self._execute(
                        state, state_hash, event, parents, result, stats
                    )
                    if successor is None:
                        continue
                    succ_hash = hash(successor)
                    if succ_hash in parents:
                        continue
                    parents[succ_hash] = (state_hash, event)
                    stats.global_states += 1
                    next_frontier.append((successor, succ_hash))
                    self._check_state(
                        successor, succ_hash, parents, initial.system, result
                    )
                    if result.bugs and self.stop_on_first_bug:
                        result.stop_reason = "bug found"
                        record_depth(depth + 1)
                        return result
            depth += 1
            frontier = next_frontier
            if frontier:
                record_depth(depth)
        result.completed = True
        result.stop_reason = "state space exhausted"
        return result

    # -- helpers ----------------------------------------------------------------

    def _execute(
        self,
        state: GlobalState,
        state_hash: int,
        event: Event,
        parents: Dict[int, Tuple[Optional[int], Optional[Event]]],
        result: CheckResult,
        stats: ExplorationStats,
    ) -> Optional[GlobalState]:
        try:
            successor = apply_event(self.protocol, state, event)
        except LocalAssertionError as exc:
            stats.transitions += 1
            trace = self._rebuild_trace(parents, state_hash) + (event,)
            result.bugs.append(
                BugReport(
                    kind="local-assertion",
                    description=str(exc),
                    violating_state=state.system,
                    trace=trace,
                    initial_state=state.system,
                )
            )
            stats.confirmed_bugs += 1
            return None
        if successor is None:
            stats.noop_executions += 1
            return None
        stats.transitions += 1
        return successor

    def _check_state(
        self,
        state: GlobalState,
        state_hash: int,
        parents: Dict[int, Tuple[Optional[int], Optional[Event]]],
        initial_system: SystemState,
        result: CheckResult,
    ) -> None:
        result.stats.invariant_checks += 1
        if self.invariant.check(state.system):
            return
        trace = self._rebuild_trace(parents, state_hash)
        result.bugs.append(
            BugReport(
                kind="invariant",
                description=self.invariant.describe_violation(state.system),
                violating_state=state.system,
                trace=trace,
                initial_state=initial_system,
            )
        )
        result.stats.confirmed_bugs += 1

    @staticmethod
    def _rebuild_trace(
        parents: Dict[int, Tuple[Optional[int], Optional[Event]]],
        state_hash: int,
    ) -> Tuple[Event, ...]:
        events: List[Event] = []
        cursor: Optional[int] = state_hash
        while cursor is not None:
            parent, event = parents[cursor]
            if event is not None:
                events.append(event)
            cursor = parent
        events.reverse()
        return tuple(events)
