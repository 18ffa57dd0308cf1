"""State-space coverage accounting: which protocol transitions really ran.

A verdict of "no bug found" is only as strong as the space actually
explored.  This module counts, deterministically, what the checker
exercised — per message type delivered, per internal action fired, per
invariant checked, per fault event injected — and compares it against the
protocol's *declared* handler universe, so ``repro coverage`` can flag
transitions the run never touched (a dead handler, an unreachable action,
a fault schedule the bounds excluded).

The discipline matches the rest of :mod:`repro.obs`: hot paths hold a
tracker whose ``enabled`` flag gates all field computation, and the shared
:data:`NULL_COVERAGE` singleton makes a disabled instrumentation point cost
one attribute read — counters, verdicts and witnesses are byte-identical
with coverage off.

The declared universe comes from the protocol hooks
:meth:`~repro.model.protocol.Protocol.coverage_message_types` and
:meth:`~repro.model.protocol.Protocol.coverage_action_names`, which default
to ``None``.  Protocols that declare nothing still get exercised-only
reports.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.stats.reporting import format_table

#: Schema version stamped on serialized coverage reports.
COVERAGE_VERSION = 1


class CoverageTracker:
    """Mutable per-run coverage counters (one per checker run).

    Counting is by handler execution — a delivery that turns out to be a
    no-op still exercised the handler, which is exactly what coverage is
    asking.  All keys are plain strings so the dict serializes as-is.
    """

    #: Hot paths consult this to skip key computation entirely.
    enabled: bool = True

    def __init__(self) -> None:
        #: Executions of the message handler, keyed by payload type name.
        self.message_types: Dict[str, int] = {}
        #: Executions of the internal handler, keyed by action name.
        self.actions: Dict[str, int] = {}
        #: System states checked, keyed by invariant class name.
        self.invariant_checks: Dict[str, int] = {}
        #: Preliminary violations, keyed by invariant class name.
        self.invariant_violations: Dict[str, int] = {}
        #: Fault events executed, keyed by ``"crash:<node>"``/``"restart:<node>"``.
        self.faults: Dict[str, int] = {}

    # -- recording hooks (checker hot paths) -----------------------------------

    def note_delivery(self, payload_type: str) -> None:
        self.message_types[payload_type] = (
            self.message_types.get(payload_type, 0) + 1
        )

    def note_action(self, name: str) -> None:
        self.actions[name] = self.actions.get(name, 0) + 1

    def note_invariant(self, name: str, violated: bool, count: int = 1) -> None:
        """``count`` system states checked against ``name``, all with one verdict.

        Summarised LMC-GEN covers many system states with one ``check``
        call; the totals still count system states.
        """
        self.invariant_checks[name] = self.invariant_checks.get(name, 0) + count
        if violated:
            self.invariant_violations[name] = (
                self.invariant_violations.get(name, 0) + count
            )

    def note_fault(self, kind: str, node: Any) -> None:
        key = f"{kind}:{node}"
        self.faults[key] = self.faults.get(key, 0) + 1

    # -- reporting --------------------------------------------------------------

    def as_dict(
        self,
        declared_messages: Optional[Tuple[str, ...]] = None,
        declared_actions: Optional[Tuple[str, ...]] = None,
    ) -> Dict[str, Any]:
        """JSON-ready coverage report, with the declared universe attached."""
        return {
            "version": COVERAGE_VERSION,
            "message_types": dict(self.message_types),
            "actions": dict(self.actions),
            "invariant_checks": dict(self.invariant_checks),
            "invariant_violations": dict(self.invariant_violations),
            "faults": dict(self.faults),
            "universe": {
                "message_types": (
                    list(declared_messages) if declared_messages is not None else None
                ),
                "actions": (
                    list(declared_actions) if declared_actions is not None else None
                ),
            },
        }


class NullCoverage(CoverageTracker):
    """The zero-overhead default: every hook is a no-op."""

    enabled = False

    def note_delivery(self, payload_type: str) -> None:
        pass

    def note_action(self, name: str) -> None:
        pass

    def note_invariant(self, name: str, violated: bool, count: int = 1) -> None:
        pass

    def note_fault(self, kind: str, node: Any) -> None:
        pass


#: Process-wide shared no-op tracker; the default for instrumented checkers.
NULL_COVERAGE = NullCoverage()


# -- report analysis ----------------------------------------------------------------


def unexercised(coverage: Dict[str, Any]) -> Dict[str, List[str]]:
    """Declared-but-never-executed handlers, per dimension.

    Only dimensions with a declared universe can have unexercised entries;
    an undeclared universe reports an empty list (nothing to miss against).
    """
    universe = coverage.get("universe") or {}
    missing: Dict[str, List[str]] = {"message_types": [], "actions": []}
    declared_messages = universe.get("message_types")
    if declared_messages:
        counts = coverage.get("message_types") or {}
        missing["message_types"] = sorted(
            name for name in declared_messages if not counts.get(name)
        )
    declared_actions = universe.get("actions")
    if declared_actions:
        counts = coverage.get("actions") or {}
        missing["actions"] = sorted(
            name for name in declared_actions if not counts.get(name)
        )
    return missing


def _dimension_rows(
    counts: Dict[str, int], declared: Optional[List[str]]
) -> List[Tuple[str, int, str]]:
    """Table rows for one dimension: every declared or observed name."""
    names = set(counts)
    if declared:
        names.update(declared)
    rows = []
    for name in sorted(names):
        count = int(counts.get(name, 0))
        if count:
            flag = ""
        elif declared and name in declared:
            flag = "UNEXERCISED"
        else:
            flag = ""
        rows.append((name, count, flag))
    return rows


def render_coverage(coverage: Dict[str, Any]) -> str:
    """The full ``repro coverage`` text: per-dimension tables plus a verdict."""
    universe = coverage.get("universe") or {}
    sections: List[str] = []

    message_rows = _dimension_rows(
        coverage.get("message_types") or {}, universe.get("message_types")
    )
    if message_rows:
        sections.append(
            "Message handlers (by payload type)\n"
            + format_table(["message type", "executions", ""], message_rows)
        )

    action_rows = _dimension_rows(
        coverage.get("actions") or {}, universe.get("actions")
    )
    if action_rows:
        sections.append(
            "Internal actions (by name)\n"
            + format_table(["action", "executions", ""], action_rows)
        )

    checks = coverage.get("invariant_checks") or {}
    if checks:
        violations = coverage.get("invariant_violations") or {}
        sections.append(
            "Invariants\n"
            + format_table(
                ["invariant", "checks", "violations"],
                [
                    (name, int(count), int(violations.get(name, 0)))
                    for name, count in sorted(checks.items())
                ],
            )
        )

    faults = coverage.get("faults") or {}
    if faults:
        sections.append(
            "Fault events\n"
            + format_table(
                ["fault", "executions"],
                [(name, int(count)) for name, count in sorted(faults.items())],
            )
        )

    missing = unexercised(coverage)
    missing_total = sum(len(names) for names in missing.values())
    if missing_total:
        lines = [f"UNEXERCISED transitions: {missing_total}"]
        for dimension, names in sorted(missing.items()):
            for name in names:
                lines.append(f"  {dimension}: {name}")
        sections.append("\n".join(lines))
    elif universe.get("message_types") or universe.get("actions"):
        sections.append("All declared handlers exercised.")

    if not sections:
        return "(no coverage data recorded)"
    return "\n\n".join(sections)
