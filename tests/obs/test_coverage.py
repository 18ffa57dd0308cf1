"""Coverage accounting: trackers, the declared universe, and the report."""

from repro.core.checker import LocalModelChecker
from repro.core.config import LMCConfig
from repro.obs.coverage import (
    NULL_COVERAGE,
    CoverageTracker,
    NullCoverage,
    render_coverage,
    unexercised,
)
from repro.protocols.echo import EchoProtocol, PongsImplyPing


class DeadHandlerEcho(EchoProtocol):
    """Echo, but declaring a message type and an action nothing ever fires.

    The fixture for the ``repro coverage`` acceptance criterion: a run over
    this protocol must flag ``NeverSent``/``never_fired`` as unexercised.
    """

    def coverage_message_types(self):
        return ("Ping", "Pong", "NeverSent")

    def coverage_action_names(self):
        return ("ping", "never_fired")


# -- tracker unit behaviour ----------------------------------------------------


def test_tracker_counts_every_dimension():
    tracker = CoverageTracker()
    tracker.note_delivery("Ping")
    tracker.note_delivery("Ping")
    tracker.note_action("ping")
    tracker.note_invariant("Inv", violated=False)
    tracker.note_invariant("Inv", violated=True)
    tracker.note_fault("crash", 2)
    report = tracker.as_dict()
    assert report["message_types"] == {"Ping": 2}
    assert report["actions"] == {"ping": 1}
    assert report["invariant_checks"] == {"Inv": 2}
    assert report["invariant_violations"] == {"Inv": 1}
    assert report["faults"] == {"crash:2": 1}
    assert report["universe"] == {"message_types": None, "actions": None}


def test_null_coverage_is_inert_and_disabled():
    assert NULL_COVERAGE.enabled is False
    assert isinstance(NULL_COVERAGE, NullCoverage)
    NULL_COVERAGE.note_delivery("Ping")
    NULL_COVERAGE.note_action("ping")
    NULL_COVERAGE.note_invariant("Inv", violated=True)
    NULL_COVERAGE.note_fault("crash", 0)
    report = NULL_COVERAGE.as_dict()
    assert report["message_types"] == {}
    assert report["actions"] == {}
    assert report["faults"] == {}


def test_declared_universe_dispatch():
    plain = EchoProtocol(2)
    assert plain.coverage_message_types() is None
    assert plain.coverage_action_names() is None
    declaring = DeadHandlerEcho(2)
    assert declaring.coverage_message_types() == ("Ping", "Pong", "NeverSent")
    assert declaring.coverage_action_names() == ("ping", "never_fired")


def test_unexercised_against_declared_universe():
    tracker = CoverageTracker()
    tracker.note_delivery("Ping")
    report = tracker.as_dict(
        declared_messages=("Ping", "NeverSent"),
        declared_actions=("ping",),
    )
    missing = unexercised(report)
    assert missing["message_types"] == ["NeverSent"]
    assert missing["actions"] == ["ping"]


def test_unexercised_empty_without_universe():
    tracker = CoverageTracker()
    tracker.note_delivery("Ping")
    missing = unexercised(tracker.as_dict())
    assert missing == {"message_types": [], "actions": []}


# -- end-to-end through the checker -------------------------------------------


def _run_covered(protocol):
    coverage = CoverageTracker()
    checker = LocalModelChecker(
        protocol,
        PongsImplyPing(),
        config=LMCConfig.optimized(),
        coverage=coverage,
    )
    result = checker.run()
    return result, checker.coverage_report()


def test_checker_records_exercised_handlers():
    result, report = _run_covered(EchoProtocol(2))
    assert result.completed
    # Every echo handler actually runs in the full space.
    assert report["message_types"]["Ping"] > 0
    assert report["message_types"]["Pong"] > 0
    assert report["actions"]["ping"] > 0
    assert report["invariant_checks"]["PongsImplyPing"] > 0
    # No declaration => no universe, nothing flagged.
    assert report["universe"] == {"message_types": None, "actions": None}
    assert unexercised(report) == {"message_types": [], "actions": []}


def test_checker_flags_deliberately_unreachable_handlers():
    result, report = _run_covered(DeadHandlerEcho(2))
    assert result.completed
    missing = unexercised(report)
    assert missing["message_types"] == ["NeverSent"]
    assert missing["actions"] == ["never_fired"]
    text = render_coverage(report)
    assert "UNEXERCISED transitions: 2" in text
    assert "NeverSent" in text and "never_fired" in text


def test_coverage_counts_are_deterministic():
    _result, first = _run_covered(EchoProtocol(2))
    _result, second = _run_covered(EchoProtocol(2))
    assert first == second


def test_render_coverage_all_exercised_and_empty():
    tracker = CoverageTracker()
    tracker.note_delivery("Ping")
    text = render_coverage(tracker.as_dict(declared_messages=("Ping",)))
    assert "All declared handlers exercised." in text
    assert render_coverage(CoverageTracker().as_dict()) == (
        "(no coverage data recorded)"
    )


def test_fault_coverage_through_checker():
    coverage = CoverageTracker()
    checker = LocalModelChecker(
        EchoProtocol(2),
        PongsImplyPing(),
        config=LMCConfig.optimized(
            fault_events_enabled=True, max_crashes_per_node=1
        ),
        coverage=coverage,
    )
    checker.run()
    report = checker.coverage_report()
    assert any(key.startswith("crash:") for key in report["faults"])
    assert any(key.startswith("restart:") for key in report["faults"])
