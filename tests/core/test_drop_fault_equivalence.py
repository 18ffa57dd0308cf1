"""Drop/duplication/partition faults: invisible when off, sound when on.

The omission-fault dimensions (docs/FAULTS.md) follow the same discipline
PR 4 set for crash–restart scheduling and ``test_fault_equivalence``
enforces: with ``drop_faults``/``duplicate_faults``/``partition_schedules``
at their defaults — or switched on but budgeted to zero effect — every
counter, verdict and witness trace must be byte-identical to a run without
the fault sweeps, across GEN/OPT, symmetry reduction and
checkpoint-resume.  With the gates open, a drop or partition schedule must
reach violations the loss-free space cannot exhibit, and the witness must
carry the fault events, replay end to end, and round-trip through the bug
corpus.
"""

from dataclasses import dataclass, replace
from typing import Any, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import Checkpointer, load_checkpoint
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.invariants.base import LocalInvariant
from repro.model.events import DropEvent, DuplicateEvent
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, Message, NodeId
from repro.persistence import bug_from_dict, bug_to_dict, registry_for_protocol
from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol
from repro.protocols.twophase import (
    Atomicity,
    CommitValidity,
    EagerCommitCoordinator,
    TimeoutTwoPhaseCommit,
)
from repro.replay import validate_bug
from tests.core.equivalence import observable
from tests.core.test_checkpoint_resume import CaptureCheckpointer, assert_round_trip

#: Small exhaustible workloads spanning verdict shapes.  ``2pc-timeout``
#: is the only one that overrides ``handle_drop``.
SCENARIOS = {
    "tree": lambda: (TreeProtocol(), ReceivedImpliesSent()),
    "2pc-buggy": lambda: (
        EagerCommitCoordinator(3, no_voters=(2,)),
        CommitValidity(),
    ),
    "2pc-timeout": lambda: (TimeoutTwoPhaseCommit(3), Atomicity()),
}

#: Fault knobs switched on but budgeted (or scoped) to zero effect:
#: ``max_drops=0`` starves the drop sweep, a partition window whose start
#: round is never reached masks nothing, and an open ``drop_faults`` gate
#: is inert on protocols without a ``handle_drop`` hook.  Each must be
#: byte-identical to the no-fault baseline.
INERT_OVERRIDES = {
    "drops_zero_budget": {"drop_faults": True, "max_drops": 0},
    "partition_never_starts": {
        "partition_schedules": ((10**6, None, (0,), (1,)),)
    },
    "drops_hookless_only": {"drop_faults": True},
}

MODES = {"opt": "optimized", "gen": "general"}


@given(
    scenario=st.sampled_from(sorted(SCENARIOS)),
    inert=st.sampled_from(sorted(INERT_OVERRIDES)),
    mode=st.sampled_from(sorted(MODES)),
    symmetry=st.booleans(),
)
@settings(max_examples=20, deadline=None)
def test_inert_fault_knobs_are_byte_identical(scenario, inert, mode, symmetry):
    if inert == "drops_hookless_only" and scenario == "2pc-timeout":
        # The open gate is only inert without a handle_drop hook.
        return
    # GEN enumerates full combinations — keep its space depth-bounded the
    # way test_checkpoint_resume does; identity must hold under any budget.
    budget = SearchBudget(max_depth=4 if mode == "gen" else 8)
    factory = getattr(LMCConfig, MODES[mode])
    common = {"symmetry_reduction": symmetry}
    protocol, invariant = SCENARIOS[scenario]()
    baseline = LocalModelChecker(
        protocol, invariant, budget=budget, config=factory(**common)
    ).run()
    protocol, invariant = SCENARIOS[scenario]()
    gated = LocalModelChecker(
        protocol,
        invariant,
        budget=budget,
        config=factory(**common, **INERT_OVERRIDES[inert]),
    ).run()
    assert observable(gated) == observable(baseline)


def test_new_fault_knobs_are_off_by_default():
    for config in (LMCConfig(), LMCConfig.optimized(), LMCConfig.general()):
        assert config.drop_faults is False
        assert config.max_drops is None
        assert config.duplicate_faults is False
        assert config.partition_schedules == ()


class _StopAtCheckpointer(Checkpointer):
    """Deterministic interrupt at one exact round boundary."""

    def __init__(self, path, stop_round):
        super().__init__(path)
        self.stop_round = stop_round

    def due(self, round_number):
        if round_number >= self.stop_round:
            self.stop_requested = True
        return super().due(round_number)


def test_inert_knobs_survive_checkpoint_resume_byte_identically(tmp_path):
    """Interrupt/resume with inert fault knobs == the no-fault reference."""
    protocol, invariant = SCENARIOS["2pc-timeout"]()
    reference = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized()
    ).run()

    config = LMCConfig.optimized(drop_faults=True, max_drops=0)
    path = str(tmp_path / "checkpoint.json")
    protocol, invariant = SCENARIOS["2pc-timeout"]()
    interrupted = LocalModelChecker(
        protocol,
        invariant,
        config=config,
        checkpointer=_StopAtCheckpointer(path, stop_round=2),
    ).run()
    assert not interrupted.completed

    protocol, invariant = SCENARIOS["2pc-timeout"]()
    resumed = LocalModelChecker(protocol, invariant, config=config).resume(
        load_checkpoint(path)
    )
    assert observable(resumed) == observable(reference)


# -- drop-dependent bug: loss is required to break atomicity ---------------------


@pytest.mark.parametrize(
    "reduction",
    [{}, {"symmetry_reduction": True, "por_pruning": True}],
    ids=["unreduced", "reduced"],
)
def test_drop_dependent_bug_found_with_drop_witness(reduction):
    """2PC presumed-abort atomicity breaks only under a drop schedule, with
    or without symmetry and commutativity reduction."""
    protocol = TimeoutTwoPhaseCommit(3)
    invariant = Atomicity()

    clean = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized()
    ).run()
    assert clean.completed and not clean.found_bug

    result = LocalModelChecker(
        protocol,
        invariant,
        config=LMCConfig.optimized(drop_faults=True, **reduction),
    ).run()
    assert result.found_bug
    assert result.stats.snapshot()["fault_drops"] > 0
    bug = result.first_bug()
    assert any(isinstance(event, DropEvent) for event in bug.trace)

    outcome = validate_bug(protocol, bug, invariant)
    assert outcome.complete and outcome.violates

    # The witness must also survive the bug corpus round trip.
    registry = registry_for_protocol(protocol)
    revived = bug_from_dict(bug_to_dict(bug), registry)
    assert revived.trace == bug.trace
    assert revived.violating_state == bug.violating_state
    outcome = validate_bug(protocol, revived, invariant)
    assert outcome.complete and outcome.violates


def test_max_drops_budget_bounds_the_fault_space():
    protocol = TimeoutTwoPhaseCommit(3)
    result = LocalModelChecker(
        protocol,
        Atomicity(),
        config=LMCConfig.optimized(
            drop_faults=True, max_drops=1, stop_on_first_bug=False
        ),
    ).run()
    assert result.completed
    assert result.stats.snapshot()["fault_drops"] == 1


# -- duplication: a non-idempotent handler must be caught ------------------------


@dataclass(frozen=True)
class PingPayload:
    """The single message of the at-most-once fixture."""


@dataclass(frozen=True)
class CountState:
    """Node state counting every ping execution (deliberately stateful)."""

    node: NodeId
    pinged: bool = False
    count: int = 0


class NonIdempotentCounter(Protocol):
    """Node 0 pings node 1 once; node 1 counts *every* executed delivery.

    The handler is deliberately not idempotent, so at-least-once delivery
    (``duplicate_faults`` with ``duplicate_limit >= 2``) is the only way
    the count can exceed one.
    """

    name = "non-idempotent-counter"

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0, 1)

    def initial_state(self, node: NodeId) -> CountState:
        return CountState(node=node)

    def enabled_actions(self, state: CountState) -> Tuple[Action, ...]:
        if state.node == 0 and not state.pinged:
            return (Action(node=state.node, name="ping"),)
        return ()

    def handle_action(self, state: CountState, action: Action) -> HandlerResult:
        if action.name != "ping" or state.pinged:
            return HandlerResult(state)
        return HandlerResult(
            replace(state, pinged=True),
            (Message(dest=1, src=0, payload=PingPayload()),),
        )

    def handle_message(self, state: CountState, message: Message) -> HandlerResult:
        if isinstance(message.payload, PingPayload):
            return HandlerResult(replace(state, count=state.count + 1))
        return HandlerResult(state)


class AtMostOnce(LocalInvariant):
    """No node may execute the ping more than once (a per-node predicate)."""

    name = "at-most-once"

    def check_local(self, node: NodeId, state: Any) -> bool:
        return getattr(state, "count", 0) <= 1


def test_duplicate_dependent_bug_found_with_redelivery_witness():
    protocol = NonIdempotentCounter()
    invariant = AtMostOnce()

    clean = LocalModelChecker(
        protocol, invariant, config=LMCConfig.optimized()
    ).run()
    assert clean.completed and not clean.found_bug

    result = LocalModelChecker(
        protocol,
        invariant,
        config=LMCConfig.optimized(duplicate_faults=True, duplicate_limit=2),
    ).run()
    assert result.found_bug
    assert result.stats.snapshot()["fault_duplicates"] > 0
    bug = result.first_bug()
    assert any(isinstance(event, DuplicateEvent) for event in bug.trace)

    outcome = validate_bug(protocol, bug, invariant)
    assert outcome.complete and outcome.violates

    registry = registry_for_protocol(protocol)
    revived = bug_from_dict(bug_to_dict(bug), registry)
    assert revived.trace == bug.trace
    outcome = validate_bug(protocol, revived, invariant)
    assert outcome.complete and outcome.violates


# -- partitions: reachability masks over the delivery sweep ----------------------


def test_permanent_partition_suppresses_the_bug_and_terminates():
    """Forever-unreachable pairs shrink the space and still reach fixpoint."""
    result = LocalModelChecker(
        TimeoutTwoPhaseCommit(3),
        Atomicity(),
        config=LMCConfig.optimized(
            drop_faults=True,
            partition_schedules=((1, None, (0,), (1, 2)),),
        ),
    ).run()
    assert result.completed
    assert not result.found_bug
    assert result.stats.snapshot()["partition_blocks"] > 0


def test_permanent_partition_suppresses_eager_commit_bug():
    """Blocking the vote request hides the no-voter from the coordinator."""
    baseline = LocalModelChecker(
        EagerCommitCoordinator(3, no_voters=(2,)), CommitValidity(),
        config=LMCConfig.optimized(),
    ).run()
    assert baseline.found_bug

    result = LocalModelChecker(
        EagerCommitCoordinator(3, no_voters=(2,)),
        CommitValidity(),
        config=LMCConfig.optimized(
            partition_schedules=((1, None, (0,), (2,)),),
        ),
    ).run()
    assert result.completed
    assert not result.found_bug
    assert result.stats.snapshot()["partition_blocks"] > 0


def test_healing_partition_window_recovers_the_bug():
    """A finite window delays the decision loss but cannot prevent it."""
    result = LocalModelChecker(
        TimeoutTwoPhaseCommit(3),
        Atomicity(),
        config=LMCConfig.optimized(
            drop_faults=True,
            partition_schedules=((1, 2, (0,), (1,)),),
        ),
    ).run()
    assert result.found_bug
    assert result.stats.snapshot()["partition_blocks"] > 0


# -- checkpoint round trip of the new fault state --------------------------------


@pytest.mark.parametrize(
    "overrides",
    [
        {"drop_faults": True},
        {"drop_faults": True, "max_drops": 1},
        {"duplicate_faults": True, "duplicate_limit": 2},
        {"drop_faults": True, "partition_schedules": ((1, 2, (0,), (1,)),)},
    ],
    ids=["drops", "drops-capped", "duplicates", "drops-partition"],
)
def test_fault_state_checkpoint_roundtrip_is_byte_identical(
    overrides, tmp_path
):
    """restore → snapshot → load, and again, over the new fault fields."""
    config = LMCConfig.optimized(stop_on_first_bug=False, **overrides)
    cadence = CaptureCheckpointer(str(tmp_path / "cadence.json"))
    LocalModelChecker(
        TimeoutTwoPhaseCommit(3),
        Atomicity(),
        SearchBudget(max_depth=8),
        config,
        checkpointer=cadence,
    ).run()
    assert cadence.payloads

    def restorer():
        return LocalModelChecker(
            TimeoutTwoPhaseCommit(3), Atomicity(), SearchBudget(max_depth=8), config
        )

    for pick, view in enumerate(cadence.payloads):
        directory = tmp_path / f"pick{pick}"
        directory.mkdir()
        assert_round_trip(restorer, view, directory)
