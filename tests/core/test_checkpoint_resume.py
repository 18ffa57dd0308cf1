"""Checkpoint/resume and incremental depth extension (docs/CHECKPOINTS.md).

The durable-snapshot layer's contract, tested from five angles:

* **Round-trip**: what a reader of the log sees, restored and snapshotted,
  must load back to itself, and a second restore-and-snapshot must write
  the same bytes — for mid-run and completed-pass snapshots, with faults
  and symmetry both on and off (the hypothesis property below).
* **Interrupt/resume**: a run stopped at a round boundary — by the
  cooperative SIGTERM flag or by abandoning the process after a cadence
  write, the SIGKILL shape — must resume to counters identical to the
  uninterrupted run (rebuildable caches excepted).
* **Depth extension**: extending a completed depth-``d`` snapshot to
  ``d' > d`` must reproduce the cold depth-``d'`` counters exactly while
  re-offering only the frontier the old bound blocked.
* **Refusal**: fingerprint, budget and format mismatches must raise
  loudly instead of silently exploring a different space.
* **The log**: the file is a base line plus appended segments; cut or
  damaged anywhere it must load as a complete round boundary or raise
  :class:`CheckpointError` naming the line, never as something in between.
  Its value rows define each model value once, and a restore turns each
  into one shared object.

Equality everywhere excludes phase timers (wall clock) and the cache-hit
counters (``sequence_cache_hits``/``replay_cache_hits``/
``rejected_cache_evictions``): verifier memos are rebuilt cold after a
restore, so hit counts legitimately differ while every soundness verdict
and visit count must not.
"""

import dataclasses
import json
import os
import signal
import subprocess
import sys
import threading
import time
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import checker as checker_module
from repro.core import checkpoint as checkpoint_module
from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    HISTORY,
    LINKS,
    CheckpointError,
    CheckpointMismatch,
    Checkpointer,
    load_checkpoint,
    save_checkpoint,
    snapshot_pass,
)
from repro.core.config import LMCConfig
from repro.core.system_states import enumerate_optimized
from repro.explore.budget import SearchBudget
from repro.fsio import append_text
from repro.model.hashing import content_hash
from repro.obs.registry import RunRegistry
from repro.protocols.paxos import PaxosAgreement, PaxosAgreementAll, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from tests.core.test_event_pipeline_golden import _checker as _golden_checker
from tests.core.equivalence import (
    CACHE_ONLY_KEYS,
    observable,
    renumber_steps,
    without_clocks,
)

#: The cache-hit counters a restored run rebuilds cold.
_observable = partial(observable, keys=CACHE_ONLY_KEYS)

#: The config axes the codec must cover: GEN vs OPT, crash–restart
#: scheduling on, symmetry reduction on, rounds sharded across two forked
#: workers.
CONFIGS = {
    "opt": ("optimized", {}),
    "gen": ("general", {}),
    "opt_faults": ("optimized", {"fault_events_enabled": True}),
    "gen_faults": ("general", {"fault_events_enabled": True}),
    "opt_sym": ("optimized", {"symmetry_reduction": True}),
    "gen_sym": ("general", {"symmetry_reduction": True}),
    "opt_explore": ("optimized", {"explore_workers": 2}),
}


#: A version-5 log of ``_legacy_checker(3)``, one write per round, as the
#: commit before version 6 wrote it: segments with ``grown`` rows, value
#: rows and orbit keys (crash faults are on because symmetric LMC-GEN alone
#: grows no older record at this depth).
LEGACY_LOG = Path(__file__).parent / "golden" / "parent_log_v5.json"


def _legacy_checker(depth, checkpointer=None):
    """Single-proposal Paxos, LMC-GEN with symmetry reduction and crash
    faults: the run ``LEGACY_LOG`` is a log of."""
    return LocalModelChecker(
        PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
        PaxosAgreement(0),
        SearchBudget(max_depth=depth),
        LMCConfig.general(symmetry_reduction=True, fault_events_enabled=True),
        checkpointer=checkpointer,
    )


def _checker(variant, depth, checkpointer=None):
    """A fresh checker over the single-proposal Paxos space."""
    factory, overrides = CONFIGS[variant]
    protocol = PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),))
    return LocalModelChecker(
        protocol,
        PaxosAgreement(0),
        SearchBudget(max_depth=depth),
        getattr(LMCConfig, factory)(**overrides),
        checkpointer=checkpointer,
    )


class CaptureCheckpointer(Checkpointer):
    """Keeps every payload written, so tests can pick a mid-run snapshot."""

    def __init__(self, path, every_rounds=1):
        super().__init__(path, every_rounds)
        self.payloads = []

    def write(self, payload):
        super().write(payload)
        self.payloads.append(load_checkpoint(self.path))


def assert_round_trip(make_checker, view, directory):
    """A reader's view of a checkpoint log survives restore → snapshot.

    File A is a full snapshot of the restored ``view``: it must load back
    to ``view`` exactly.  File B is a full snapshot of A restored: it must
    be A byte for byte.  (A view need not have A's bytes: a log's segments
    and value rows split the same payload differently.)
    """

    def save_restored(payload, name):
        total_stats, result, run_pass = make_checker()._restore(payload)
        # _run_loop rebinds the run-level context before executing; a
        # re-snapshot must see the same bindings.
        run_pass.prior_stats = total_stats
        run_pass.prior_bugs = result.bugs
        path = os.path.join(str(directory), name)
        save_checkpoint(
            path,
            snapshot_pass(
                run_pass,
                reason=payload["reason"],
                pass_completed=payload["pass_completed"],
                pass_reason=payload["pass_reason"],
                elapsed=payload["elapsed_s"],
            ),
        )
        return path

    def canonical(payload):
        # Not ``==``: that equates 1, 1.0 and True, so a field could change
        # JSON type on restore and still compare equal.
        return json.dumps(payload, sort_keys=True)

    first = save_restored(view, "a.json")
    reloaded = load_checkpoint(first)
    assert canonical(reloaded) == canonical(view)
    second = save_restored(reloaded, "b.json")
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()


class StopAtCheckpointer(Checkpointer):
    """Deterministic interrupt: behaves exactly like the SIGTERM flag, but
    raised from inside :meth:`due` at one exact round boundary."""

    def __init__(self, path, stop_round):
        super().__init__(path)
        self.stop_round = stop_round

    def due(self, round_number):
        if round_number >= self.stop_round:
            self.stop_requested = True
        return super().due(round_number)


class TestRoundTrip:
    @settings(max_examples=8, deadline=None)
    @given(
        variant=st.sampled_from(sorted(CONFIGS)),
        pick=st.integers(min_value=0, max_value=30),
    )
    def test_serialize_deserialize_serialize_is_byte_identical(
        self, variant, pick, tmp_path_factory
    ):
        tmp = tmp_path_factory.mktemp("roundtrip")
        cadence = CaptureCheckpointer(str(tmp / "cadence.json"), every_rounds=1)
        _checker(variant, 4, checkpointer=cadence).run()
        assert cadence.payloads, "a run with cadence 1 must write snapshots"
        view = cadence.payloads[pick % len(cadence.payloads)]
        assert_round_trip(lambda: _checker(variant, 4), view, tmp)


class TestInterruptResume:
    @pytest.mark.usefixtures("dispatch_every_round")
    @pytest.mark.parametrize("variant", sorted(CONFIGS))
    def test_interrupted_run_resumes_to_identical_counters(self, variant, tmp_path):
        depth = 4 if variant.startswith("gen") else 6
        reference = _checker(variant, depth).run()
        if variant == "opt_explore":
            assert reference.stats.explore_rounds_parallel > 0

        path = str(tmp_path / "checkpoint.json")
        interrupted = _checker(
            variant, depth, checkpointer=StopAtCheckpointer(path, stop_round=3)
        ).run()
        assert not interrupted.completed
        assert interrupted.stop_reason == "interrupted (checkpoint written)"
        assert interrupted.stats.transitions < reference.stats.transitions

        payload = load_checkpoint(path)
        resumed = _checker(variant, depth).resume(payload)
        assert _observable(resumed) == _observable(reference)

    def test_kill_after_cadence_write_resumes_to_identical_counters(self, tmp_path):
        """The SIGKILL shape: the run dies with no handler, leaving only the
        last cadence snapshot; resuming it must reproduce the reference."""
        reference = _checker("opt", 6).run()

        cadence = CaptureCheckpointer(str(tmp_path / "cadence.json"), every_rounds=1)
        _checker("opt", 6, checkpointer=cadence).run()
        mid_run = [p for p in cadence.payloads if not p["pass_completed"]]
        assert len(mid_run) >= 2
        # The checkpoint a kill leaves behind is whichever cadence write
        # happened last before the process died — any of them must do.
        for payload in (mid_run[0], mid_run[len(mid_run) // 2], mid_run[-1]):
            resumed = _checker("opt", 6).resume(payload)
            assert _observable(resumed) == _observable(reference)

    @pytest.mark.parametrize("opt", [True, False], ids=["opt", "summarised-gen"])
    def test_kill_and_resume_rebuilds_summary_groups_in_order(
        self, opt, tmp_path, monkeypatch
    ):
        """The summary index is a derived cache, rebuilt from
        ``store.records`` on restore.  Buggy Paxos under the multi-index
        invariant has two value groups per node by round 4; under LMC-OPT
        the restored groups must pair every anchor exactly as the
        record-by-record scan over the restored stores does.  Under
        summarised LMC-GEN (correct Paxos, whose run a bug does not cut
        short) each node's representatives must be the first active record
        of each distinct summary.  Either way the resumed run must finish
        on the uninterrupted run's counters."""
        # One completion per conflicting pair, as the enumeration below
        # walks them.
        monkeypatch.setattr(checker_module, "MAX_COMPLETIONS_PER_CONFLICT", 1)

        def checker(checkpointer=None):
            return LocalModelChecker(
                scenario_protocol(buggy=opt),
                PaxosAgreementAll(),
                SearchBudget(max_depth=3),
                LMCConfig(invariant_specific_creation=opt),
                checkpointer=checkpointer,
            )

        reference = checker().run(partial_choice_state())
        path = str(tmp_path / "checkpoint.json")
        interrupted = checker(StopAtCheckpointer(path, stop_round=4)).run(partial_choice_state())
        created = interrupted.stats.system_states_created
        assert 0 < created < reference.stats.system_states_created
        payload = load_checkpoint(path)

        _stats, _result, restored = checker()._restore(payload)
        index, walked = restored._index, 0
        for node in restored.space.node_ids:
            if not opt:
                firsts = {}
                for record in restored.space.store(node).active_records():
                    summary = restored.invariant.summary(node, record.state)
                    firsts.setdefault(summary, record)
                assert index.representatives(node) == list(firsts.values())
                walked += len(firsts)
                continue
            for record in restored.space.store(node).records:
                indexed, scanned = (
                    [
                        sorted((n, r.index) for n, r in combo.items())
                        for combo in enumerate_optimized(
                            restored.space,
                            node,
                            record,
                            restored.invariant,
                            index,
                            1,
                            grouped,
                        )
                    ]
                    for grouped in (True, False)
                )
                assert indexed == scanned
                walked += len(indexed)
        # several records per group were walked, or some node has groups
        assert walked > (created if opt else len(restored.space.node_ids))

        resumed = checker().resume(payload)
        assert _observable(resumed) == _observable(reference)

    def test_sigterm_mid_run_then_resume(self, tmp_path):
        """The real signal path: SIGTERM lands mid-run, the cooperative
        handler finishes the round, writes the snapshot, and stops."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        timer = threading.Timer(0.05, os.kill, (os.getpid(), signal.SIGTERM))
        path = str(tmp_path / "checkpoint.json")
        try:
            timer.start()
            interrupted = _checker("opt", 10, checkpointer=Checkpointer(path)).run()
        finally:
            timer.cancel()
            signal.signal(signal.SIGTERM, previous)
        # Whether the signal won the race or the run finished first, the
        # snapshot on disk must resume to the uninterrupted counters.
        reference = _checker("opt", 10).run()
        resumed = _checker("opt", 10).resume(load_checkpoint(path))
        assert _observable(resumed) == _observable(reference)
        if not interrupted.completed:
            assert interrupted.stop_reason == "interrupted (checkpoint written)"

    def test_sigkill_subprocess_resume_matches_reference(self, tmp_path):
        """End to end through the CLI: SIGKILL the child once a checkpoint
        exists, ``repro resume`` it, and compare the printed counters.
        (tools/resume_smoke.py runs the bigger GEN version of this in CI.)"""
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get(
            "PYTHONPATH", ""
        )
        check = ["check", "paxos", "--algorithm", "lmc-opt", "--max-depth", "8"]
        runs_root = str(tmp_path / "runs")

        def counters(stdout):
            wanted = ("transitions", "system states", "bugs", "completed")
            picked = {}
            for line in stdout.splitlines():
                label, _, value = line.partition(":")
                if label.strip() in wanted:
                    picked[label.strip()] = value.strip()
            return picked

        reference = subprocess.run(
            [sys.executable, "-m", "repro", *check, "--no-registry"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert reference.returncode == 0, reference.stderr

        child = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                *check,
                "--checkpoint-every",
                "1",
                "--registry-root",
                runs_root,
            ],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
            env=env,
        )
        deadline = time.time() + 120
        run_dir = None
        while time.time() < deadline:
            candidates = (
                sorted(os.listdir(runs_root)) if os.path.isdir(runs_root) else []
            )
            if candidates:
                candidate = os.path.join(runs_root, candidates[-1])
                if os.path.isfile(os.path.join(candidate, "checkpoint.json")):
                    run_dir = candidate
                    break
            if child.poll() is not None:
                break
            time.sleep(0.01)
        if child.poll() is None:
            child.kill()
        child.wait(timeout=60)
        assert run_dir is not None, "child never wrote a checkpoint"

        resumed = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "resume",
                os.path.basename(run_dir),
                "--registry-root",
                runs_root,
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert resumed.returncode == 0, resumed.stderr + resumed.stdout
        assert counters(resumed.stdout) == counters(reference.stdout)


class TestDepthExtension:
    @pytest.mark.parametrize("variant", ["opt", "gen", "opt_faults", "opt_sym"])
    def test_extension_reproduces_cold_counters_per_depth(self, variant, tmp_path):
        depths = (3, 4, 5) if variant.startswith("gen") else (4, 6, 8)
        cold = {depth: _checker(variant, depth).run() for depth in depths}

        payload = None
        for index, depth in enumerate(depths):
            path = str(tmp_path / f"d{depth}.json")
            checker = _checker(variant, depth, checkpointer=Checkpointer(path))
            if payload is None:
                extended = checker.run()
            else:
                extended = checker.extend_depth(payload)
            assert _observable(extended) == _observable(cold[depth])
            if index + 1 < len(depths):
                payload = load_checkpoint(path)
        if variant == "opt":
            # The chain pays only for what each larger bound unblocks, and its
            # counters end equal to the deepest cold run's; the cold sweep
            # re-pays every shallower depth from scratch.
            cold_sweep = sum(result.stats.transitions for result in cold.values())
            assert cold_sweep >= 1.5 * extended.stats.transitions

    def test_resumed_extension_matches_the_uninterrupted_one(self, tmp_path):
        """An extension interrupted while a partition window holds lanes
        whose deferred pairs it has not re-offered yet resumes to the
        uninterrupted extension's counters: the checkpoint keeps those
        lanes, and keeps the pass counting ``partition_blocks`` as an
        extension."""

        def checker(depth, schedule, checkpointer=None):
            return LocalModelChecker(
                PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
                PaxosAgreement(0),
                SearchBudget(max_depth=depth),
                LMCConfig.optimized(partition_schedules=schedule),
                checkpointer=checkpointer,
            )

        cold = str(tmp_path / "cold.json")
        checker(4, (), Checkpointer(cold)).run()
        last = load_checkpoint(cold)["pass"]["round_number"]
        # The window opens with the extension's first round, after the cold
        # pass, so that pass is the same under it and its deferred pairs of
        # node 0's messages to 1 and 2 wait out the window.
        schedule = ((last + 1, last + 2, (0,), (1, 2)),)
        checker(4, schedule, Checkpointer(cold)).run()
        payload = load_checkpoint(cold)
        assert payload["pass"]["round_number"] == last
        uninterrupted = checker(6, schedule).extend_depth(payload)

        cut = str(tmp_path / "cut.json")
        stopped = checker(6, schedule, StopAtCheckpointer(cut, last + 1)).extend_depth(payload)
        assert not stopped.completed
        interrupted = load_checkpoint(cut)
        resumed = checker(6, schedule).resume(interrupted)
        assert _observable(resumed) == _observable(uninterrupted)
        assert resumed.stats.partition_blocks > 0
        assert interrupted["pass"]["extension"]["delivery"]
        assert_round_trip(lambda: checker(6, schedule), interrupted, tmp_path)

    def test_extension_to_unbounded_depth(self, tmp_path):
        reference = _checker("opt", 10).run()
        assert reference.completed
        path = str(tmp_path / "d6.json")
        _checker("opt", 6, checkpointer=Checkpointer(path)).run()
        unbounded = LocalModelChecker(
            PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
            PaxosAgreement(0),
            SearchBudget.unbounded(),
            LMCConfig.optimized(),
        ).extend_depth(load_checkpoint(path))
        # d=10 saturates the single-proposal space, so removing the bound
        # reaches the same fixpoint; only the stop reason wording differs.
        assert unbounded.completed
        expected = _observable(reference)
        got = _observable(unbounded)
        expected.pop("stop_reason")
        got.pop("stop_reason")
        assert got == expected


class TestRefusals:
    def _completed_checkpoint(self, tmp_path, variant="opt", depth=4):
        path = str(tmp_path / "done.json")
        _checker(variant, depth, checkpointer=Checkpointer(path)).run()
        return load_checkpoint(path)

    def _interrupted_checkpoint(self, tmp_path, variant="opt", depth=6):
        path = str(tmp_path / "interrupted.json")
        result = _checker(
            variant, depth, checkpointer=StopAtCheckpointer(path, stop_round=2)
        ).run()
        assert not result.completed
        return load_checkpoint(path)

    def test_checkpointer_refuses_a_cadence_below_one(self, tmp_path):
        with pytest.raises(ValueError, match="every_rounds"):
            Checkpointer(str(tmp_path / "c.json"), every_rounds=0)

    def test_resume_refuses_budget_mismatch(self, tmp_path):
        payload = self._interrupted_checkpoint(tmp_path, depth=6)
        with pytest.raises(CheckpointMismatch, match="checkpointed budget"):
            _checker("opt", 8).resume(payload)

    def test_resume_refuses_config_mismatch(self, tmp_path):
        payload = self._interrupted_checkpoint(tmp_path, variant="opt", depth=6)
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            _checker("opt_faults", 6).resume(payload)

    @pytest.mark.parametrize(
        "overrides",
        [
            {"drop_faults": True},
            {"drop_faults": True, "max_drops": 2},
            {"duplicate_faults": True, "duplicate_limit": 1},
            {"duplicate_limit": 1},
            {"partition_schedules": ((1, 2, (0,), (1,)),)},
            {"partition_schedules": ((1, None, (0,), (1, 2)),)},
        ],
        ids=[
            "drop-faults",
            "max-drops",
            "duplicate-faults",
            "duplicate-limit",
            "partition-window",
            "partition-permanent",
        ],
    )
    def test_resume_and_extend_refuse_differing_fault_knobs(
        self, overrides, tmp_path
    ):
        """Every omission-fault knob is fingerprinted: a checkpoint written
        under one fault configuration must refuse to resume — or extend —
        under any other, instead of silently exploring a different space."""
        mismatched = LocalModelChecker(
            PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
            PaxosAgreement(0),
            SearchBudget(max_depth=6),
            LMCConfig.optimized(**overrides),
        )
        payload = self._interrupted_checkpoint(tmp_path, depth=6)
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            mismatched.resume(payload)

        completed = self._completed_checkpoint(tmp_path, depth=4)
        extender = LocalModelChecker(
            PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
            PaxosAgreement(0),
            SearchBudget(max_depth=8),
            LMCConfig.optimized(**overrides),
        )
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            extender.extend_depth(completed)

    def test_resume_refuses_protocol_mismatch(self, tmp_path):
        payload = self._interrupted_checkpoint(tmp_path, depth=6)
        other = LocalModelChecker(
            PaxosProtocol(num_nodes=4, proposals=((0, 0, "v0"),)),
            PaxosAgreement(0),
            SearchBudget(max_depth=6),
            LMCConfig.optimized(),
        )
        with pytest.raises(CheckpointMismatch, match="fingerprint"):
            other.resume(payload)

    def test_extend_refuses_mid_pass_snapshot(self, tmp_path):
        payload = self._interrupted_checkpoint(tmp_path, depth=6)
        with pytest.raises(CheckpointMismatch, match="completed pass"):
            _checker("opt", 8).extend_depth(payload)

    def test_extend_refuses_non_increasing_depth(self, tmp_path):
        payload = self._completed_checkpoint(tmp_path, depth=4)
        for depth in (3, 4):
            with pytest.raises(CheckpointMismatch, match="must exceed"):
                _checker("opt", depth).extend_depth(payload)

    def test_a_log_that_loads_but_does_not_decode_is_a_checkpoint_error(
        self, tmp_path, capsys
    ):
        """A base line can parse and fold yet name an unknown event kind;
        restoring it fails as a CheckpointError, and the CLI exits 2 with
        the run marked failed instead of printing a traceback."""
        payload = self._completed_checkpoint(tmp_path)
        payload["pass"]["steps"][0][0]["kind"] = "bogus"
        bad = str(tmp_path / "bad.json")
        save_checkpoint(bad, payload)
        with pytest.raises(CheckpointError, match="unknown event kind 'bogus'"):
            _checker("opt", 6).extend_depth(load_checkpoint(bad))

        root = str(tmp_path / "runs")
        assert main(["check", "paxos", "--max-depth", "6", "--extend-from", bad,
                     "--registry-root", root]) == 2
        assert "unknown event kind 'bogus'" in capsys.readouterr().err
        assert RunRegistry(root).latest().status() == "failed"

    def test_load_refuses_foreign_format_and_version(self, tmp_path):
        # Version 2 wrote a base line alone and unterminated: still read.
        base = _lines(LEGACY_LOG)[0]
        path, envelope = _write(tmp_path / "base.json", [base]), json.loads(base)
        envelope["version"] = 2
        legacy = str(tmp_path / "legacy.json")
        with open(legacy, "w") as handle:
            json.dump(envelope, handle)
        assert load_checkpoint(legacy) == load_checkpoint(path)

        envelope["version"] = 999
        tampered = str(tmp_path / "tampered.json")
        with open(tampered, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(tampered)

        envelope["version"] = 1
        envelope["format"] = "bug-corpus"
        with open(tampered, "w") as handle:
            json.dump(envelope, handle)
        with pytest.raises(CheckpointError):
            load_checkpoint(tampered)

    def test_a_path_the_file_system_refuses_is_a_checkpoint_error(self, tmp_path):
        """Neither a missing log nor an unwritable target escapes as an
        OSError: each is a CheckpointError naming its path."""
        missing = str(tmp_path / "missing.json")
        with pytest.raises(CheckpointError, match=f"cannot read checkpoint {missing}"):
            load_checkpoint(missing)
        unwritable = str(tmp_path / "no" / "x.json")
        checker = _checker("opt", 4, checkpointer=Checkpointer(unwritable))
        with pytest.raises(CheckpointError, match=f"cannot write checkpoint {unwritable}"):
            checker.run()


def _lines(path):
    with open(path, "rb") as handle:
        return handle.read().splitlines(keepends=True)


def _write(path, chunks):
    with open(path, "wb") as handle:
        handle.write(b"".join(chunks))
    return str(path)


class TestCheckpointLog:
    """Hostile inputs against the base-line-plus-segments file."""

    DEPTH = 6

    @pytest.fixture(scope="class")
    def log(self, tmp_path_factory):
        """A cadence-1 log, the payload a reader saw after each write, and
        the counters every resumable prefix must finish on."""
        path = str(tmp_path_factory.mktemp("log") / "cadence.json")
        cadence = CaptureCheckpointer(path)
        reference = _checker("opt", self.DEPTH, checkpointer=cadence).run()
        lines = _lines(path)
        assert len(lines) == len(cadence.payloads) == cadence.writes >= 4
        assert cadence.segments == len(lines) - 1
        assert cadence.bytes_written == sum(map(len, lines))
        return lines, cadence.payloads, _observable(reference)

    def _resumes_to_reference(self, path, reference):
        payload = load_checkpoint(path)
        if payload["pass_completed"]:
            return payload
        assert _observable(_checker("opt", self.DEPTH).resume(payload)) == reference
        return payload

    def test_cut_file_loads_as_the_last_complete_boundary(self, log, tmp_path):
        lines, payloads, reference = log
        whole = b"".join(lines)
        last = len(whole) - len(lines[-1])
        cuts = {
            "inside the last line": (last + len(lines[-1]) // 2, -2),
            "at the last line's newline": (len(whole) - 1, -2),
            "after the previous newline": (last, -2),
            "nothing cut": (len(whole), -1),
            "inside a middle line": (len(lines[0]) + len(lines[1]) // 2, 0),
        }
        for where, (size, boundary) in cuts.items():
            path = _write(tmp_path / "cut.json", [whole[:size]])
            assert self._resumes_to_reference(path, reference) == payloads[boundary], where
        for size in (len(lines[0]) // 2, 0):
            with pytest.raises(CheckpointError):
                load_checkpoint(_write(tmp_path / "cut.json", [whole[:size]]))

    def test_damage_before_the_last_line_names_the_line(self, log, tmp_path):
        lines, _payloads, _reference = log
        flipped = bytearray(lines[1])
        flipped[len(flipped) // 2] ^= 0x80
        damaged = {
            "byte flipped": [lines[0], bytes(flipped), *lines[2:]],
            "line cut short": [lines[0], lines[1][: len(lines[1]) // 2] + b"\n", *lines[2:]],
            "not an object": [lines[0], b"[]\n", *lines[2:]],
        }
        for chunks in damaged.values():
            with pytest.raises(CheckpointError, match=r"damaged\.json:2: "):
                load_checkpoint(_write(tmp_path / "damaged.json", chunks))

    def test_misplaced_segments_are_refused_with_their_line(self, log, tmp_path):
        lines, _payloads, _reference = log
        other = str(tmp_path / "other.json")
        _checker("opt_faults", self.DEPTH, checkpointer=Checkpointer(other, 1)).run()
        cases = {
            "duplicated last line": ([*lines, lines[-1]], len(lines) + 1, "a gap"),
            "skipped round": ([lines[0], *lines[2:]], 2, "a gap"),
            "later round first": ([lines[0], lines[2], lines[1]], 2, "a gap"),
            "another run": ([lines[0], _lines(other)[1], *lines[2:]], 2, "another run"),
            "second base": ([lines[0], lines[0]], 2, "one full snapshot"),
            "no base": (lines[1:], 1, "one full snapshot"),
        }
        for chunks, number, reason in cases.values():
            with pytest.raises(CheckpointError, match=rf"spliced\.json:{number}: .*{reason}"):
                load_checkpoint(_write(tmp_path / "spliced.json", chunks))

    def test_new_pass_and_resumed_run_start_a_fresh_base(self, log, tmp_path):
        """First write of a pass replaces the file, later writes append —
        for each widened pass, and for a run resumed onto its own file."""
        _log_lines, payloads, reference = log

        def widening(checkpointer=None):
            return LocalModelChecker(
                PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"),)),
                PaxosAgreement(0),
                SearchBudget(max_depth=self.DEPTH),
                LMCConfig.optimized(local_event_bound=1),
                checkpointer=checkpointer,
            )

        path = str(tmp_path / "widening.json")
        cadence = CaptureCheckpointer(path)
        widened = widening(cadence).run()
        bounds = [payload["run"]["bound"] for payload in cadence.payloads]
        assert len(set(bounds)) > 1, "the run must widen at least once"
        assert len(_lines(path)) == bounds.count(bounds[-1]) < cadence.writes
        assert cadence.bytes_written > os.path.getsize(path)
        for payload in (cadence.payloads[0], cadence.payloads[len(bounds) // 2]):
            assert _observable(widening().resume(payload)) == _observable(widened)

        mid_run = payloads[1]
        path = str(tmp_path / "resumed.json")
        save_checkpoint(path, mid_run)
        onto_itself = Checkpointer(path, every_rounds=1)
        resumed = _checker("opt", self.DEPTH, checkpointer=onto_itself).resume(
            load_checkpoint(path)
        )
        assert _observable(resumed) == reference
        assert len(_lines(path)) == onto_itself.writes == onto_itself.segments + 1
        final = load_checkpoint(path)
        assert final["pass_completed"]
        for family in ("round_number", "stores", "network"):
            assert final["pass"][family] == payloads[-1]["pass"][family]


def _paxos2_checker(depth, checkpointer=None):
    """Two-proposal Paxos under LMC-OPT: the benchmark's checkpoint space."""
    return LocalModelChecker(
        PaxosProtocol(num_nodes=3, proposals=((0, 0, "v0"), (1, 1, "v1"))),
        PaxosAgreement(0),
        SearchBudget(max_depth=depth),
        LMCConfig.optimized(),
        checkpointer=checkpointer,
    )


def _composites(value, found):
    """Every tuple, frozenset and dataclass object reachable from ``value``,
    by ``id``."""
    if id(value) in found:
        return
    if isinstance(value, (tuple, frozenset)):
        children = value
    elif dataclasses.is_dataclass(value) and not isinstance(value, type):
        children = [getattr(value, field.name) for field in dataclasses.fields(value)]
    else:
        return
    found[id(value)] = value
    for child in children:
        _composites(child, found)


class TestValueTable:
    """The log's content-addressed value rows (docs/CHECKPOINTS.md)."""

    @pytest.fixture(scope="class")
    def paxos2(self, tmp_path_factory):
        """The two-proposal d=4 log, one write per round."""
        path = str(tmp_path_factory.mktemp("paxos2") / "cadence.json")
        writer = Checkpointer(path, every_rounds=1)
        _paxos2_checker(4, writer).run()
        assert writer.segments >= 4
        return path

    def test_no_value_is_defined_in_two_lines(self, paxos2):
        defined = [
            [value for value, _row in json.loads(line)["values"]]
            for line in _lines(paxos2)
        ]
        assert defined[0] and sum(1 for values in defined[1:] if values) > 1
        flat = [value for line in defined for value in line]
        assert len(flat) == len(set(flat))

    def test_no_orbit_key_is_listed_in_two_lines(self, tmp_path):
        path = str(tmp_path / "gen_sym.json")
        _checker("gen_sym", 3, checkpointer=Checkpointer(path, every_rounds=1)).run()
        lines = [json.loads(line) for line in _lines(path)]
        assert len(lines) > 2
        listed = [tuple(map(str, line["pass"]["symmetry"]["seen"])) for line in lines]
        flat = [key for keys in listed for key in keys]
        assert len(flat) == len(set(flat))
        assert sum(1 for keys in listed[1:] if keys) > 1
        assert len(load_checkpoint(path)["pass"]["symmetry"]["seen"]) == len(flat)

    def test_restored_records_share_each_distinct_sub_value(self, paxos2):
        _stats, _result, run_pass = _paxos2_checker(4)._restore(load_checkpoint(paxos2))
        found = {}
        for node in run_pass.space.node_ids:
            store = run_pass.space.store(node)
            for record in store.records:
                _composites(record.state, found)
                for _prev, step in store.links_of(record):
                    event = step.event
                    carrier = getattr(event, "message", None) or getattr(event, "action", None)
                    if carrier is not None:
                        _composites(carrier.payload, found)
        objects = {}
        for value in found.values():
            objects.setdefault(content_hash(value), set()).add(id(value))
        assert len(objects) > 100
        assert all(len(ids) == 1 for ids in objects.values())

    def test_a_version_3_log_folds_as_before(self, tmp_path):
        """Version 3 wrote model values inline and the whole seen-orbit set
        in every segment; such a log must fold to the same payload."""
        lines, values, legacy = _lines(LEGACY_LOG), {}, []
        for number, raw in enumerate(lines, 1):
            line = json.loads(raw)
            checkpoint_module._resolve(line, values, legacy=True)
            prefix = _write(tmp_path / "prefix.json", lines[:number])
            seen = load_checkpoint(prefix)["pass"]["symmetry"]["seen"]
            line["pass"]["symmetry"]["seen"] = [list(zip((0, 1, 2), key)) for key in seen]
            line["version"] = 3
            legacy.append(json.dumps(line, sort_keys=True).encode() + b"\n")
        assert len(legacy) > 2
        v3 = _write(tmp_path / "v3.json", legacy)
        assert load_checkpoint(v3) == load_checkpoint(str(LEGACY_LOG))

    def test_a_version_4_log_folds_as_before(self, tmp_path):
        """Version 4 lines also carried the retired byte model's totals,
        which no reader reads (the parent-written version-2 envelopes of
        ``test_event_pipeline_golden.py`` resume and extend with all of
        its fields); its segments list only new orbit keys, like 5's."""
        legacy = []
        for raw in _lines(LEGACY_LOG):
            line = json.loads(raw)
            line["version"], line["pass"]["retained_bytes"] = 4, 0
            legacy.append(json.dumps(line).encode() + b"\n")
        v4 = load_checkpoint(_write(tmp_path / "v4.json", legacy))
        assert len(legacy) > 2 and v4["pass"].pop("retained_bytes") == 0
        assert v4 == load_checkpoint(str(LEGACY_LOG))

    def test_a_reference_no_row_defines_names_its_line(self, paxos2, tmp_path):
        lines = _lines(paxos2)
        number, line = next(
            (number, json.loads(line))
            for number, line in enumerate(lines[1:], 2)
            if json.loads(line)["values"]
        )
        line["values"] = []
        chunks = [*lines[: number - 1], json.dumps(line).encode() + b"\n", *lines[number:]]
        with pytest.raises(
            CheckpointError, match=rf"undefined\.json:{number}: .*no earlier row defines"
        ):
            load_checkpoint(_write(tmp_path / "undefined.json", chunks))

    def test_a_failed_append_leaves_the_next_segment_complete(
        self, paxos2, tmp_path, monkeypatch
    ):
        """The writer commits a segment's value rows to its marks only once
        the append succeeded: the segment after a failed one defines them
        again, so the log still folds to the full snapshot."""
        failed = []

        def append_once_failing(path, text):
            if not failed:
                failed.append(json.loads(text))
                raise OSError("disk full")
            append_text(path, text)

        class Tolerant(Checkpointer):
            def snapshot(self, *args, **kwargs):
                try:
                    super().snapshot(*args, **kwargs)
                except CheckpointError:
                    pass

        monkeypatch.setattr(checkpoint_module, "append_text", append_once_failing)
        path = str(tmp_path / "flaky.json")
        writer = Tolerant(path, every_rounds=1)
        _paxos2_checker(4, writer).run()
        assert failed and failed[0]["values"]
        assert len(_lines(path)) == len(_lines(paxos2)) - 1 == writer.segments + 1
        flaky, reference = load_checkpoint(path), load_checkpoint(paxos2)
        assert flaky["pass_completed"]
        for family in ("round_number", "stores", "network", "symmetry"):
            assert flaky["pass"][family] == reference["pass"][family]


class TestVersion6:
    """Record rows, link rows over the step table, and the older logs
    upgraded to them (docs/CHECKPOINTS.md)."""

    @pytest.fixture(scope="class")
    def current(self, tmp_path_factory):
        """The version-6 log of the run ``LEGACY_LOG`` was written by."""
        path = str(tmp_path_factory.mktemp("v6") / "current.json")
        _legacy_checker(3, Checkpointer(path, every_rounds=1)).run()
        return path

    def test_the_legacy_log_holds_every_appended_family(self):
        lines = [json.loads(line) for line in _lines(LEGACY_LOG)]
        assert len(lines) > 2 and {line["version"] for line in lines} == {5}
        segments = [line["pass"] for line in lines[1:]]
        assert any(store["grown"] for data in segments for _node, store in data["stores"])
        assert sum(1 for line in lines[1:] if line["values"]) > 1
        assert sum(1 for data in segments if data["symmetry"]["seen"]) > 1

    def test_a_version_5_log_loads_as_the_version_6_log_of_its_run(self, current):
        legacy, written = load_checkpoint(str(LEGACY_LOG)), load_checkpoint(current)
        assert legacy["version"] == written["version"] == CHECKPOINT_FORMAT_VERSION
        assert len(_lines(current)) == len(_lines(LEGACY_LOG))
        # Version 5 kept no step ids: the upgrade numbers the steps as the
        # links name them, the run as it met them.
        assert renumber_steps(without_clocks(legacy)) == renumber_steps(
            without_clocks(written)
        )

    def test_a_version_5_log_resumes_and_extends_as_the_version_6_log(
        self, current, tmp_path
    ):
        reference = _observable(_legacy_checker(3).run())
        deeper = _observable(_legacy_checker(4).run())
        for path in (str(LEGACY_LOG), current):
            mid_run = load_checkpoint(_write(tmp_path / "mid.json", _lines(path)[:2]))
            assert not mid_run["pass_completed"]
            assert _observable(_legacy_checker(3).resume(mid_run)) == reference
            extended = _legacy_checker(4).extend_depth(load_checkpoint(path))
            assert _observable(extended) == deeper

    def test_every_line_defines_its_new_steps_once(self, current):
        lines = [json.loads(line) for line in _lines(current)]
        defined = [step[1:] for line in lines for step in line["pass"]["steps"]]
        assert len(defined) == len({json.dumps(step) for step in defined})
        assert sum(1 for line in lines[1:] if line["pass"]["steps"]) > 1
        assert [line["marks"]["steps"] for line in lines[1:]] == [
            sum(len(line["pass"]["steps"]) for line in lines[:number])
            for number in range(1, len(lines))
        ]

    def _refused(self, path, tmp_path, number, edit, reason):
        """Edit line ``number`` of the log at ``path``; loading must fail
        naming that line and ``reason``."""
        lines = _lines(path)
        line = json.loads(lines[number - 1])
        edit(line)
        lines[number - 1] = json.dumps(line).encode() + b"\n"
        with pytest.raises(CheckpointError, match=rf"hostile\.json:{number}: .*{reason}"):
            load_checkpoint(_write(tmp_path / "hostile.json", lines))

    def test_a_link_row_pointing_outside_the_log_names_its_line(self, current, tmp_path):
        lines = [json.loads(line) for line in _lines(current)]
        steps = sum(len(line["pass"]["steps"]) for line in lines)

        def first_linked(line):
            """The line's first record row with links, and the size of its
            store once the line is read; ``None`` if no row has links."""
            held = dict(line.get("marks", {}).get("stores", []))
            for node, store in line["pass"]["stores"]:
                for row in store["records"]:
                    if row[LINKS]:
                        return row, held.get(node, 0) + len(store["records"])
            return None

        def undefined_step(row, _size):
            row[LINKS][1] = steps

        def beyond_the_store(row, size):
            row[LINKS][0] = size

        def odd_length(row, _size):
            row[LINKS].append(0)

        segment = next(number for number, line in enumerate(lines[1:], 2) if first_linked(line))
        for number, edit, reason in (
            (1, undefined_step, f"names step {steps}, but"),
            (segment, undefined_step, f"names step {steps}, but"),
            (segment, beyond_the_store, "beyond its store"),
            (segment, odd_length, "odd length"),
        ):
            self._refused(
                current, tmp_path, number, lambda line: edit(*first_linked(line)), reason
            )

    def test_a_version_6_segment_after_an_older_base_names_its_line(
        self, current, tmp_path
    ):
        mixed = [_lines(LEGACY_LOG)[0], *_lines(current)[1:]]
        with pytest.raises(CheckpointError, match=r"mixed\.json:2: .*one version family"):
            load_checkpoint(_write(tmp_path / "mixed.json", mixed))
        mixed = [_lines(current)[0], *_lines(LEGACY_LOG)[1:]]
        with pytest.raises(CheckpointError, match=r"mixed\.json:2: .*one version family"):
            load_checkpoint(_write(tmp_path / "mixed.json", mixed))

    def test_a_history_mask_past_the_json_int_limit_round_trips(self, tmp_path):
        """A decimal int of more than 4,300 digits makes ``json`` raise; the
        hex mask of a history over 15,000 ``I+`` copies is a string."""
        path = str(tmp_path / "done.json")
        _checker("opt", 3, checkpointer=Checkpointer(path)).run()
        _stats, _result, run_pass = _checker("opt", 3)._restore(load_checkpoint(path))
        record = run_pass.space.store(1).records[-1]
        record.history |= 1 << 15001
        huge = str(tmp_path / "huge.json")
        save_checkpoint(huge, snapshot_pass(run_pass, "huge", pass_completed=True))
        payload = load_checkpoint(huge)
        assert payload["pass"]["stores"][1][1]["records"][-1][HISTORY] == format(
            record.history, "x"
        )
        _stats, _result, restored = _checker("opt", 3)._restore(payload)
        assert restored.space.store(1).records[-1].history == record.history > 2**15000


def _grown_by_full_scan(store, held, links_held, discarded):
    """A segment's ``grown`` rows as format 6 first found them: walk every
    held record's link chain, and keep the records that gained a link row
    at an offset of at least ``links_held`` or were discarded since the
    write (``discarded``: the indexes discarded then)."""
    rows = []
    for record in store.records[:held]:
        links = checkpoint_module._link_row(store, record, links_held)
        if links or (record.discarded and record.index not in discarded):
            rows.append([record.index, links, record.discarded])
    return rows


def _segments_against_the_scan(make_checker, path, monkeypatch):
    """Run ``make_checker`` with a write every round, asserting each
    segment's ``grown`` rows equal :func:`_grown_by_full_scan`'s; counts
    the segments and the grown rows with new links or a new discard."""
    seen = {"segments": 0, "links": 0, "discards": 0}
    discarded_then = {}
    marks_init = checkpoint_module._Marks.__init__
    snapshot = checkpoint_module.snapshot_pass

    def marks_and_discard_sets(marks, pass_, fingerprint, values):
        marks_init(marks, pass_, fingerprint, values)
        discarded_then[marks] = {
            node: {record.index for record in store if record.discarded}
            for node, store in pass_.space.stores.items()
        }

    def snapshot_against_the_scan(pass_, *args, marks=None, **kwargs):
        payload = snapshot(pass_, *args, marks=marks, **kwargs)
        if marks is not None:
            seen["segments"] += 1
            for node, encoded in payload["pass"]["stores"]:
                held, links_held, _discards = marks.stores[node]
                discarded = discarded_then[marks][node]
                expected = _grown_by_full_scan(
                    pass_.space.store(node), held, links_held, discarded
                )
                assert encoded["grown"] == expected
                seen["links"] += sum(1 for row in expected if row[1])
                seen["discards"] += sum(
                    1 for row in expected if row[2] and row[0] not in discarded
                )
        return payload

    monkeypatch.setattr(checkpoint_module._Marks, "__init__", marks_and_discard_sets)
    monkeypatch.setattr(checkpoint_module, "snapshot_pass", snapshot_against_the_scan)
    make_checker(Checkpointer(path, every_rounds=1)).run()
    return seen


class TestSegmentGrowth:
    """A segment visits only the owners of the link rows and the discards
    added since the previous write; its ``grown`` rows must be the ones
    the full scan of every held record wrote."""

    @pytest.mark.parametrize(
        "make_checker",
        [
            pytest.param(partial(_paxos2_checker, 5), id="paxos2_d5"),
            pytest.param(partial(_legacy_checker, 4), id="gen_sym_crashes"),
        ],
    )
    def test_grown_links_match_the_full_scan(self, make_checker, tmp_path, monkeypatch):
        seen = _segments_against_the_scan(
            make_checker, str(tmp_path / "log.json"), monkeypatch
        )
        assert seen["segments"] > 1 and seen["links"]

    def test_newly_discarded_held_records_match_the_full_scan(
        self, tmp_path, monkeypatch
    ):
        seen = _segments_against_the_scan(
            partial(_golden_checker, "relay_assert_discard", 0, 4),
            str(tmp_path / "log.json"),
            monkeypatch,
        )
        assert seen["segments"] > 1 and seen["discards"]

    def test_a_held_record_discarded_without_new_links_is_a_grown_row(self, tmp_path):
        path = str(tmp_path / "done.json")
        _checker("opt", 3, checkpointer=Checkpointer(path)).run()
        _stats, _result, run_pass = _checker("opt", 3)._restore(load_checkpoint(path))
        marks = checkpoint_module._Marks(run_pass, "fingerprint", set())
        store = run_pass.space.store(1)
        held, links_held = len(store.records), len(store.links)
        assert not store.records[2].discarded
        store.mark_discarded(store.records[2])
        payload = snapshot_pass(run_pass, "discarded", pass_completed=True, marks=marks)
        grown = dict(payload["pass"]["stores"])[1]["grown"]
        assert grown == [[2, [], True]]
        assert grown == _grown_by_full_scan(store, held, links_held, set())
