"""Absolute golden counters for fault-on runs of the event pipeline.

Every other equivalence suite compares two configurations at one commit
(fault on vs off, serial vs parallel, cold vs resumed), so a refactor that
reorders a fault sweep the same way on both sides passes them all.  This
suite pins the *absolute* outcome instead: ``golden/pipeline_counters.json``
was written by the commit preceding the one-event-pipeline refactor
(``python tests/core/test_event_pipeline_golden.py`` regenerates it — only
ever do that on a commit whose counters are the intended reference) and
holds, for a small matrix of fault configurations, the full
``stats.snapshot()`` (timers excluded), the completion verdict and every
bug's witness as ``describe()`` strings, each × {serial,
``explore_workers=2``} × {cold run, SIGTERM-checkpoint-and-resume,
``extend_depth`` chain}.

``golden/parent_envelope_*.json`` are checkpoint envelopes written by that
same parent commit with every cursor family populated; current code must
resume / extend them to the golden counters and write the same content for
the same run, which pins the on-disk format.
"""

import json
import os
import shutil
import signal
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Tuple

import pytest

import repro.core.explore_parallel as explore_parallel
from repro.core.checker import LocalModelChecker
from repro.cli import main
from repro.core.checkpoint import CheckpointError, Checkpointer, load_checkpoint
from repro.core.config import LMCConfig
from repro.explore.budget import SearchBudget
from repro.invariants.base import LocalInvariant
from repro.model.protocol import Protocol
from repro.model.types import Action, HandlerResult, Message, NodeId, local_assert
from repro.obs.registry import RunRegistry
from repro.protocols.paxos import PaxosAgreement, PaxosProtocol
from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_PATH = GOLDEN_DIR / "pipeline_counters.json"

PARALLEL = dict(explore_workers=2)
pytestmark = pytest.mark.usefixtures("dispatch_every_round")


@dataclass(frozen=True)
class Ping:
    """Counted on every execution; the first one is relayed onwards."""


@dataclass(frozen=True)
class Poison:
    """Trips the receiver's local assertion."""


@dataclass(frozen=True)
class RelayState:
    node: NodeId
    sent: bool = False
    count: int = 0
    timed_out: bool = False


class CountingRelay(Protocol):
    """Node 0 pings 1 and 2 (and poisons 1); receivers count and relay.

    Deliberately non-idempotent (each executed ``Ping`` increments
    ``count``), asserting (``Poison``) and drop-aware (``handle_drop``), so
    one small space exercises duplicate redelivery as real transitions, both
    assertion policies, and the omission hook.
    """

    name = "counting-relay"

    def node_ids(self) -> Tuple[NodeId, ...]:
        return (0, 1, 2)

    def initial_state(self, node: NodeId) -> RelayState:
        return RelayState(node=node)

    def enabled_actions(self, state: RelayState) -> Tuple[Action, ...]:
        if state.node == 0 and not state.sent:
            return (Action(node=0, name="go"),)
        return ()

    def handle_action(self, state: RelayState, action: Action) -> HandlerResult:
        if action.name != "go" or state.sent:
            return HandlerResult(state)
        return HandlerResult(
            replace(state, sent=True),
            (
                Message(dest=1, src=0, payload=Ping()),
                Message(dest=2, src=0, payload=Ping()),
                Message(dest=1, src=0, payload=Poison()),
            ),
        )

    def handle_message(self, state: RelayState, message: Message) -> HandlerResult:
        local_assert(
            not isinstance(message.payload, Poison), "poisoned", node=state.node
        )
        if state.node == 0 or state.count >= 3:
            return HandlerResult(state)
        sends: Tuple[Message, ...] = ()
        if state.count == 0:
            peer = 2 if state.node == 1 else 1
            sends = (Message(dest=peer, src=state.node, payload=Ping()),)
        return HandlerResult(replace(state, count=state.count + 1), sends)

    def handle_drop(self, state: RelayState, message: Message) -> HandlerResult:
        if isinstance(message.payload, Ping) and state.node != 0:
            return HandlerResult(replace(state, timed_out=True))
        return HandlerResult(state)


class CountAtMostTwo(LocalInvariant):
    """Two distinct pings can reach a relay; a third needs a duplicate."""

    name = "count-at-most-two"

    def check_local(self, node: NodeId, state: Any) -> bool:
        return getattr(state, "count", 0) <= 2


def _two_phase():
    return TimeoutTwoPhaseCommit(3), Atomicity()


def _paxos():
    return PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)), PaxosAgreement(0)


def _relay():
    return CountingRelay(), CountAtMostTwo()


HEALING = ((1, 2, (0,), (1,)),)
PERMANENT = ((1, None, (0,), (1, 2)),)

#: name -> (scenario, config overrides, (checkpointed depth, final depth)).
CASES = {
    "2pc_drops": (_two_phase, dict(drop_faults=True), (3, 5)),
    "2pc_drops_capped": (_two_phase, dict(drop_faults=True, max_drops=2), (3, 5)),
    "2pc_duplicates": (
        _two_phase,
        dict(duplicate_faults=True, duplicate_limit=1),
        (3, 5),
    ),
    "2pc_partition_healing": (
        _two_phase,
        dict(drop_faults=True, partition_schedules=HEALING),
        (3, 5),
    ),
    "2pc_partition_permanent": (
        _two_phase,
        dict(drop_faults=True, partition_schedules=PERMANENT),
        (1, 3),
    ),
    "2pc_all_families": (
        _two_phase,
        dict(
            fault_events_enabled=True,
            drop_faults=True,
            duplicate_faults=True,
            duplicate_limit=1,
            partition_schedules=((2, 3, (0,), (1,)),),
        ),
        (3, 5),
    ),
    "paxos_crash_per_node_cap": (
        _paxos,
        dict(fault_events_enabled=True, max_crashes_per_node=1),
        (3, 4),
    ),
    "paxos_crash_total_cap": (
        _paxos,
        dict(fault_events_enabled=True, max_crashes_per_node=2, max_total_crashes=3),
        (3, 4),
    ),
    "paxos_local_bound_widening": (
        _paxos,
        dict(local_event_bound=1, widen_increment=1),
        (3, 4),
    ),
    "relay_assert_discard": (
        _relay,
        dict(
            assertion_policy="discard",
            drop_faults=True,
            duplicate_faults=True,
            duplicate_limit=2,
        ),
        (2, 4),
    ),
    "relay_assert_ignore": (
        _relay,
        dict(
            assertion_policy="ignore",
            drop_faults=True,
            duplicate_faults=True,
            duplicate_limit=2,
        ),
        (2, 4),
    ),
}

#: The case whose parent-written envelopes are committed as fixtures (it
#: populates every cursor family of the checkpoint payload).
ENVELOPE_CASE = "2pc_all_families"
ENVELOPE_MIDRUN = GOLDEN_DIR / "parent_envelope_midrun.json"
ENVELOPE_COMPLETED = GOLDEN_DIR / "parent_envelope_completed.json"


class _SigtermAtRound(Checkpointer):
    """Sends this process a real SIGTERM at one round boundary.

    The checkpointer's own cooperative handler (installed by the checker
    around the run) catches it, so the run takes exactly the
    SIGTERM-checkpoint-and-stop path of docs/CHECKPOINTS.md.
    """

    def __init__(self, path, stop_round):
        super().__init__(path)
        self.stop_round = stop_round

    def due(self, round_number):
        if round_number == self.stop_round:
            os.kill(os.getpid(), signal.SIGTERM)
        return super().due(round_number)


def _checker(case, workers, depth, checkpointer=None):
    scenario, overrides, _depths = CASES[case]
    protocol, invariant = scenario()
    config = LMCConfig.optimized(
        stop_on_first_bug=False, **overrides, **(PARALLEL if workers else {})
    )
    return LocalModelChecker(
        protocol,
        invariant,
        SearchBudget(max_depth=depth),
        config,
        checkpointer=checkpointer,
    )


def _observable(result):
    return {
        "counters": {
            key: value
            for key, value in result.stats.snapshot().items()
            if not key.startswith("phase_")
        },
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": [
            {
                "description": bug.description,
                "witness": [event.describe() for event in bug.trace],
            }
            for bug in result.bugs
        ],
    }


def _run_modes(case, workers, tmp_path, midrun_path=None, completed_path=None):
    """The three observables of one (case, workers) cell."""
    first_depth, final_depth = CASES[case][2]
    cold = _checker(case, workers, final_depth).run()

    midrun = str(midrun_path or tmp_path / "midrun.json")
    interrupted = _checker(
        case, workers, final_depth, _SigtermAtRound(midrun, stop_round=2)
    ).run()
    assert interrupted.stop_reason == "interrupted (checkpoint written)"
    resumed = _checker(case, workers, final_depth).resume(load_checkpoint(midrun))

    completed = str(completed_path or tmp_path / "completed.json")
    shallow = _checker(case, workers, first_depth, Checkpointer(completed)).run()
    assert shallow.completed
    extended = _checker(case, workers, final_depth).extend_depth(
        load_checkpoint(completed)
    )
    return {
        "cold": _observable(cold),
        "resumed": _observable(resumed),
        "extended": _observable(extended),
    }


def _golden():
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("workers", [0, 2], ids=["serial", "workers2"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_verdicts_and_witnesses_match_golden(case, workers, tmp_path):
    expected = _golden()[case]["workers2" if workers else "serial"]
    assert _run_modes(case, workers, tmp_path) == expected


def test_parent_written_envelope_resumes_to_golden_counters():
    resumed = _checker(ENVELOPE_CASE, 0, CASES[ENVELOPE_CASE][2][1]).resume(
        load_checkpoint(str(ENVELOPE_MIDRUN))
    )
    assert _observable(resumed) == _golden()[ENVELOPE_CASE]["serial"]["resumed"]


def test_parent_written_envelope_extends_to_golden_counters():
    extended = _checker(ENVELOPE_CASE, 0, CASES[ENVELOPE_CASE][2][1]).extend_depth(
        load_checkpoint(str(ENVELOPE_COMPLETED))
    )
    assert _observable(extended) == _golden()[ENVELOPE_CASE]["serial"]["extended"]


def test_envelope_with_an_inherited_buffer_is_refused(tmp_path, capsys):
    """A non-empty ``unverified`` list was written mid-buffer by the retired
    deferring checker: resuming it would skip verifying those rows, so the
    reader refuses it, and a CLI resume fails without harming the registry."""
    payload = json.loads(ENVELOPE_MIDRUN.read_text(encoding="utf-8"))
    assert payload["pass"]["unverified"] == []
    payload["pass"]["unverified"] = [[[node, 0] for node in (0, 1, 2)]]
    injected = tmp_path / "injected.json"
    injected.write_text(json.dumps(payload, sort_keys=True) + "\n", encoding="utf-8")
    with pytest.raises(CheckpointError, match="carries 1 unverified"):
        _checker(ENVELOPE_CASE, 0, CASES[ENVELOPE_CASE][2][1]).resume(
            load_checkpoint(str(injected))
        )

    root = str(tmp_path / "runs")
    killed = RunRegistry(root).register(
        command="check",
        workload="2pc-timeout",
        argv=["check", "2pc-timeout", "--max-depth", "5", "--checkpoint-every", "1"],
    )
    shutil.copy(injected, os.path.join(killed.directory, "checkpoint.json"))
    assert main(["resume", killed.run_id, "--registry-root", root]) == 2
    assert "carries 1 unverified" in capsys.readouterr().err
    assert main(["runs", "--registry-root", root]) == 0
    assert killed.run_id in capsys.readouterr().out
    resumed = RunRegistry(root).latest()
    assert resumed.meta["resumed_from"] == killed.run_id
    assert "carries 1 unverified" in resumed.result["error"]


def _without_clocks(value):
    """A payload minus what depends on the wall clock or the process."""
    if isinstance(value, dict):
        return {
            key: _without_clocks(item)
            for key, item in value.items()
            if key not in ("elapsed_s", "phase_seconds", "rss_bytes")
            and not key.startswith("phase_")
        }
    if isinstance(value, list):
        return [_without_clocks(item) for item in value]
    return value


def test_envelope_content_matches_parent_written_envelope(tmp_path):
    """Same keys, same cursor families, same values: the format is pinned."""
    path = str(tmp_path / "completed.json")
    _checker(ENVELOPE_CASE, 0, CASES[ENVELOPE_CASE][2][0], Checkpointer(path)).run()
    written, parent = load_checkpoint(path), load_checkpoint(str(ENVELOPE_COMPLETED))
    # Two keys the format no longer writes: copies of fault counters the
    # same payload holds in ``stats``, which no reader ever read.
    stats = parent["pass"]["stats"]
    assert parent["pass"].pop("crashes_executed") == stats["fault_crashes"]
    assert parent["pass"].pop("drops_executed") == stats["fault_drops"]
    for payload in (written, parent):
        # Series rows are [depth, elapsed_s, metrics]: drop the clock column.
        payload["pass"]["series"] = [
            [depth, metrics] for depth, _elapsed, metrics in payload["pass"]["series"]
        ]
    assert _without_clocks(written) == _without_clocks(parent)


def _write_golden(tmp_dir):
    GOLDEN_DIR.mkdir(exist_ok=True)
    golden = {}
    for case in sorted(CASES):
        golden[case] = {}
        for label, workers in (("serial", 0), ("workers2", 2)):
            keep = case == ENVELOPE_CASE and not workers
            golden[case][label] = _run_modes(
                case,
                workers,
                Path(tmp_dir),
                midrun_path=ENVELOPE_MIDRUN if keep else None,
                completed_path=ENVELOPE_COMPLETED if keep else None,
            )
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    import tempfile

    explore_parallel.ROUND_THRESHOLD = explore_parallel.SHARD_MIN = 1
    with tempfile.TemporaryDirectory() as scratch:
        _write_golden(scratch)
