"""Protocol conformance checking: does an implementation keep the contract?

Both checkers rely on properties the :class:`~repro.model.protocol.Protocol`
interface documents but Python cannot enforce:

* **purity/determinism** — running a handler twice on the same inputs yields
  equal results (footnote 3 of §4.1: every event "must deterministically
  lead to the same node state", or soundness replay breaks);
* **hashability** — every reachable node state and emitted message is
  content-hashable (the closed immutable vocabulary);
* **exact interning** — every digest the shared interner of
  :mod:`repro.model.hashing` serves for a state, message or event equals
  the uncached reference walk's (the interner's cons keys are exact, so a
  mismatch is a bug in the interner, not in the protocol);
* **totality** — handlers accept any message without crashing (foreign
  payloads must be no-ops, not exceptions);
* **stable action enumeration** — ``enabled_actions`` is a pure function of
  the state.

Given an invariant that declares the optional ``summary`` hook, it also
samples the hook's contract (:class:`~repro.invariants.base.Invariant`):
summaries are hashable and survive a pickle round trip into the same group,
and combinations of the explored node states with equal summary tuples get
the same ``check`` verdict.

:func:`check_protocol` drives a bounded exploration of the protocol and
verifies each property on every state and event it encounters, returning a
report of violations.  Run it against a new protocol before handing it to a
checker — it turns silent state-space corruption into a named error.
"""

from __future__ import annotations

import pickle
import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.invariants.base import Invariant, declares_summary
from repro.model.events import DeliveryEvent, InternalEvent
from repro.model.hashing import UnhashableModelValue, content_hash
from repro.model.protocol import Protocol
from repro.model.system_state import SystemState
from repro.model.types import LocalAssertionError, Message


#: Combinations drawn when sampling an invariant's ``summary`` contract.
SUMMARY_SAMPLES = 500


@dataclass
class ConformanceReport:
    """Outcome of a conformance run."""

    states_checked: int = 0
    events_checked: int = 0
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no contract violation was observed."""
        return not self.problems

    def summary(self) -> str:
        """Human-readable multi-line report."""
        lines = [
            f"states checked : {self.states_checked}",
            f"events checked : {self.events_checked}",
            f"problems       : {len(self.problems)}",
        ]
        lines.extend(f"  - {problem}" for problem in self.problems)
        return "\n".join(lines)


def check_protocol(
    protocol: Protocol,
    max_states: int = 2000,
    max_problems: int = 20,
    invariant: Optional[Invariant] = None,
) -> ConformanceReport:
    """Explore ``protocol`` breadth-first, validating the contract throughout.

    The exploration delivers every generated message to every visited state
    of its destination (LMC-style conservative delivery), which exercises
    handlers on inputs they may not expect — exactly the situations in which
    contract violations hide.  An ``invariant`` declaring ``summary`` has
    its contract sampled over :data:`SUMMARY_SAMPLES` combinations of the
    explored node states (:func:`summary_contract_problems`).
    """
    report = ConformanceReport()
    per_node_states: dict = {node: [] for node in protocol.node_ids()}
    seen_hashes: dict = {node: set() for node in protocol.node_ids()}
    messages: List[Message] = []
    message_hashes: Set[int] = set()

    def note(problem: str) -> None:
        if len(report.problems) < max_problems and problem not in report.problems:
            report.problems.append(problem)

    def exact_hash(value: Any, context: str) -> int:
        """The reference digest of ``value``, after validating that the
        interner serves the same one."""
        exact = content_hash(value, intern=False)
        if content_hash(value) != exact:
            note(f"{context}: the interned digest of {value!r} differs from the walk's")
        return exact

    def admit_state(node: int, state: Any) -> None:
        try:
            digest = exact_hash(state, f"state of node {node}")
        except UnhashableModelValue as exc:
            note(f"unhashable state on node {node}: {exc}")
            return
        if digest in seen_hashes[node]:
            return
        seen_hashes[node].add(digest)
        per_node_states[node].append(state)
        report.states_checked += 1

    def admit_sends(sends: Tuple[Message, ...], context: str) -> None:
        for message in sends:
            if not isinstance(message, Message):
                note(f"{context}: send is not a Message: {message!r}")
                continue
            if message.dest not in per_node_states:
                note(f"{context}: send to unknown node {message.dest}")
                continue
            try:
                digest = exact_hash(message, context)
            except UnhashableModelValue as exc:
                note(f"{context}: unhashable message: {exc}")
                continue
            if digest not in message_hashes:
                message_hashes.add(digest)
                messages.append(message)
                exact_hash(DeliveryEvent(message), context)

    def run_twice(handler, state, argument, context: str):
        try:
            first = handler(state, argument)
        except LocalAssertionError:
            return None  # a declared local assertion is contract-compliant
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            note(f"{context}: handler raised {type(exc).__name__}: {exc}")
            return None
        try:
            second = handler(state, argument)
        except Exception as exc:  # noqa: BLE001 - report, don't mask
            note(
                f"{context}: handler is non-deterministic "
                f"(raised on rerun: {type(exc).__name__}: {exc})"
            )
            return None
        if first.state != second.state or first.sends != second.sends:
            note(f"{context}: handler is non-deterministic (differing results)")
            return None
        return first

    for node in protocol.node_ids():
        admit_state(node, protocol.initial_state(node))

    # foreign-payload totality probe
    for node in protocol.node_ids():
        state = per_node_states[node][0]
        probe = Message(dest=node, src=node, payload="__conformance_probe__")
        result = run_twice(
            protocol.handle_message, state, probe, f"node {node} foreign payload"
        )
        if result is not None and not result.is_noop(state):
            note(f"node {node}: foreign payload was not a no-op")

    total = lambda: sum(len(states) for states in per_node_states.values())  # noqa: E731
    progress = True
    while progress and total() < max_states:
        progress = False
        # internal actions on every state
        for node in protocol.node_ids():
            for state in list(per_node_states[node]):
                try:
                    once = protocol.enabled_actions(state)
                    twice = protocol.enabled_actions(state)
                except Exception as exc:  # noqa: BLE001
                    note(f"node {node}: enabled_actions raised {exc}")
                    continue
                if once != twice:
                    note(f"node {node}: enabled_actions is unstable")
                for action in once:
                    if action.node != node:
                        note(
                            f"node {node}: enabled action targets node "
                            f"{action.node}"
                        )
                    context = f"action {action.name} on node {node}"
                    try:
                        exact_hash(InternalEvent(action), context)
                    except UnhashableModelValue as exc:
                        note(f"{context}: unhashable action: {exc}")
                        continue
                    result = run_twice(
                        protocol.handle_action, state, action, context
                    )
                    report.events_checked += 1
                    if result is None:
                        continue
                    admit_sends(result.sends, f"action {action.name}")
                    before = len(seen_hashes[node])
                    admit_state(node, result.state)
                    if len(seen_hashes[node]) > before:
                        progress = True
        # every message on every state of its destination
        for message in list(messages):
            for state in list(per_node_states[message.dest]):
                result = run_twice(
                    protocol.handle_message,
                    state,
                    message,
                    f"message {type(message.payload).__name__} "
                    f"on node {message.dest}",
                )
                report.events_checked += 1
                if result is None:
                    continue
                admit_sends(result.sends, "message handler")
                before = len(seen_hashes[message.dest])
                admit_state(message.dest, result.state)
                if len(seen_hashes[message.dest]) > before:
                    progress = True
    if invariant is not None and declares_summary(invariant):
        _, problems = summary_contract_problems(
            invariant, _sampled_systems(invariant, per_node_states)
        )
        for problem in problems:
            note(problem)
    return report


def summary_contract_problems(
    invariant: Invariant, systems: Iterable[SystemState]
) -> Tuple[int, List[str]]:
    """The ``summary`` contract over ``systems``: (distinct tuples, problems).

    Every system state's per-node summary tuple must be hashable, states
    with equal tuples must get the same ``check`` verdict, and a pickle
    round trip of a tuple (equal but not identical) must land in its group.
    Stops at the first problem.
    """
    name = type(invariant).__name__
    verdicts: Dict[Tuple[Any, ...], bool] = {}
    for system in systems:
        key = tuple(
            (node, invariant.summary(node, state)) for node, state in system.items()
        )
        try:
            hash(key)
        except TypeError:
            return len(verdicts), [f"{name}.summary is unhashable on {system!r}"]
        verdict = invariant.check(system)
        if verdicts.setdefault(key, verdict) != verdict:
            return len(verdicts), [
                f"{name}: equal summary tuples {key!r}, different verdicts "
                f"(one on {system!r})"
            ]
    for key, verdict in verdicts.items():
        if verdicts.get(pickle.loads(pickle.dumps(key))) != verdict:
            return len(verdicts), [
                f"{name}: summary tuple {key!r} does not group with its "
                "pickle round trip"
            ]
    return len(verdicts), []


def _sampled_systems(
    invariant: Invariant, per_node_states: Dict[Any, List[Any]]
) -> Iterator[SystemState]:
    """Seeded draws over the explored node states, each with an equal twin.

    :data:`SUMMARY_SAMPLES` times: one state per node, then a twin that
    swaps every state for one of equal summary (found by ``==``, so an
    unhashable summary still reaches the contract check).
    """
    if any(not states for states in per_node_states.values()):
        return
    summaries = {
        node: [invariant.summary(node, state) for state in states]
        for node, states in per_node_states.items()
    }
    rng = random.Random(0)
    nodes = sorted(per_node_states)
    for _ in range(SUMMARY_SAMPLES):
        picks = {node: rng.randrange(len(per_node_states[node])) for node in nodes}
        yield SystemState(
            {node: per_node_states[node][i] for node, i in picks.items()}
        )
        yield SystemState(
            {
                node: rng.choice(
                    [
                        state
                        for state, summary in zip(
                            per_node_states[node], summaries[node]
                        )
                        if summary == summaries[node][i]
                    ]
                )
                for node, i in picks.items()
            }
        )
