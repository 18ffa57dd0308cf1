"""Discrete-event live-run simulator: the "running system" of Fig. 6.

Online model checking needs a live distributed system to snapshot.  This
simulator executes a protocol over a lossy network with randomised latencies
(the UDP + 30% drop environment of §5.5), firing nodes' internal actions
according to a pluggable :class:`~repro.online.driver.LiveDriver` policy
(propose-then-sleep, probabilistic fault detection, …).

Everything is driven by a single seeded :class:`random.Random`, so a live
run — and therefore every snapshot it produces — is a pure function of its
seed.  Simulated time is decoupled from wall-clock: a "1150 second" live run
(§5.5) executes in milliseconds.
"""

from __future__ import annotations

import heapq
import itertools
import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.model.events import DeliveryEvent, Event, InternalEvent
from repro.model.protocol import Protocol
from repro.model.system_state import SystemState
from repro.model.types import Action, LocalAssertionError, Message, NodeId
from repro.network.lossy import LossyNetwork
from repro.online.driver import LiveDriver


@dataclass(frozen=True)
class TraceEntry:
    """One executed live event, for debugging and tests."""

    time: float
    kind: str  # the event's KIND: "deliver" | "action"
    description: str  # the event's describe() line


class LiveRun:
    """A running distributed system that can be stepped and snapshotted."""

    def __init__(
        self,
        protocol: Protocol,
        driver: LiveDriver,
        seed: int = 0,
        drop_probability: float = 0.0,
        min_latency: float = 0.01,
        max_latency: float = 0.1,
        initial_system: Optional[SystemState] = None,
        keep_trace: bool = False,
    ):
        self.protocol = protocol
        self.driver = driver
        self.rng = random.Random(seed)
        self.network = LossyNetwork(
            self.rng,
            drop_probability=drop_probability,
            min_latency=min_latency,
            max_latency=max_latency,
        )
        if initial_system is None:
            initial_system = protocol.initial_system_state()
        self._states: Dict[NodeId, Any] = {
            node: state for node, state in initial_system.items()
        }
        self.now = 0.0
        self.events_executed = 0
        self.assertion_failures = 0
        self.keep_trace = keep_trace
        self.trace: List[TraceEntry] = []
        self._timer_queue: List[Tuple[float, int, Action]] = []
        self._tiebreak = itertools.count()
        self._scheduled: Dict[Tuple[NodeId, str, Any], float] = {}
        for node in sorted(self._states):
            self._poll_actions(node)

    # -- public API ------------------------------------------------------------

    def snapshot(self) -> SystemState:
        """The current live system state (what CrystalBall would ship to LMC)."""
        return SystemState(dict(self._states))

    def run_until(self, deadline: float) -> None:
        """Advance simulated time to ``deadline``, executing due events."""
        while True:
            next_time = self._next_event_time()
            if next_time is None or next_time > deadline:
                break
            self._step(next_time)
        self.now = max(self.now, deadline)

    def run_for(self, duration: float) -> None:
        """Advance simulated time by ``duration`` seconds."""
        self.run_until(self.now + duration)

    def idle(self) -> bool:
        """True when no deliveries or timers are pending."""
        return self._next_event_time() is None

    def inject_action(self, action: Action, delay: float = 0.0) -> None:
        """Schedule an application call (e.g. a driver-injected proposal).

        The action is executed through the protocol's internal handler even
        if it is not in ``enabled_actions`` — this models application calls
        that exist only in the live system, like the §5.5 proposal injector.
        """
        heapq.heappush(
            self._timer_queue, (self.now + delay, next(self._tiebreak), action)
        )

    # -- internals -----------------------------------------------------------------

    def _next_event_time(self) -> Optional[float]:
        times = []
        delivery = self.network.next_delivery_time()
        if delivery is not None:
            times.append(delivery)
        if self._timer_queue:
            times.append(self._timer_queue[0][0])
        return min(times) if times else None

    def _step(self, event_time: float) -> None:
        self.now = event_time
        message = self.network.pop_due(self.now)
        if message is not None:
            self._run(DeliveryEvent(message))
            return
        _, _, action = heapq.heappop(self._timer_queue)
        self._fire_action(action)

    def _run(self, event: Event) -> bool:
        """Execute ``event`` on its node; False when a local assertion failed."""
        node = event.node
        try:
            result = self.protocol.execute(self._states[node], event)
        except LocalAssertionError:
            self.assertion_failures += 1
            return False
        self._apply(node, result.state, result.sends)
        self.events_executed += 1
        if self.keep_trace:
            self.trace.append(TraceEntry(self.now, event.KIND, event.describe()))
        return True

    def _fire_action(self, action: Action) -> None:
        node = action.node
        self._scheduled.pop((node, action.name, action.payload), None)
        # The state may have moved on; fire only if the protocol would still
        # offer this action (injected application calls bypass this check).
        enabled = self.protocol.enabled_actions(self._states[node])
        if action in enabled or action.name.startswith("inject"):
            if not self._run(InternalEvent(action)):
                return
        self._poll_actions(node)

    def _apply(self, node: NodeId, new_state: Any, sends: Tuple[Message, ...]) -> None:
        self._states[node] = new_state
        for message in sends:
            self.network.send(message, self.now)
        self._poll_actions(node)

    def _poll_actions(self, node: NodeId) -> None:
        """Ask the driver to schedule any enabled-but-unscheduled actions."""
        for action in self.protocol.enabled_actions(self._states[node]):
            key = (node, action.name, action.payload)
            if key in self._scheduled:
                continue
            delay = self.driver.schedule(action, self.now, self.rng)
            if delay is None:
                continue
            fire_at = self.now + delay
            self._scheduled[key] = fire_at
            heapq.heappush(
                self._timer_queue, (fire_at, next(self._tiebreak), action)
            )
