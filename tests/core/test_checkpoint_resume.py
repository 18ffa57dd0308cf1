"""Checkpoint/resume and incremental depth extension (docs/CHECKPOINTS.md).

The durable-snapshot layer's contract, tested from four angles:

* **Round-trip**: serialize → deserialize → serialize must be
  byte-identical, for mid-run and completed-pass snapshots, with faults
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

Equality everywhere excludes phase timers (wall clock) and the cache-hit
counters (``sequence_cache_hits``/``replay_cache_hits``/
``rejected_cache_evictions``): verifier memos are rebuilt cold after a
restore, so hit counts legitimately differ while every soundness verdict
and visit count must not.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.core import checker as checker_module
from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import (
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
from repro.obs.registry import RunRegistry
from repro.protocols.paxos import PaxosAgreement, PaxosAgreementAll, PaxosProtocol
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol

#: Excluded from counter equality: wall-clock phase timers, and the
#: cache-hit counters a restored run rebuilds cold.
EXCLUDED_PREFIXES = ("phase_",)
EXCLUDED_KEYS = frozenset(
    {"sequence_cache_hits", "replay_cache_hits", "rejected_cache_evictions"}
)

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


def _observable(result):
    counts = {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith(EXCLUDED_PREFIXES) and key not in EXCLUDED_KEYS
    }
    return {
        "counts": counts,
        "completed": result.completed,
        "stop_reason": result.stop_reason,
        "bugs": [bug.description for bug in result.bugs],
        "traces": [bug.trace_lines() for bug in result.bugs],
    }


class CaptureCheckpointer(Checkpointer):
    """Keeps every payload written, so tests can pick a mid-run snapshot."""

    def __init__(self, path, every_rounds=1):
        super().__init__(path, every_rounds)
        self.payloads = []

    def write(self, payload):
        super().write(payload)
        self.payloads.append(load_checkpoint(self.path))


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
        payload = cadence.payloads[pick % len(cadence.payloads)]

        first = str(tmp / "first.json")
        second = str(tmp / "second.json")
        save_checkpoint(first, payload)
        reloaded = load_checkpoint(first)

        restorer = _checker(variant, 4)
        total_stats, result, run_pass = restorer._restore(reloaded)
        # _run_loop rebinds the run-level context before executing; a
        # re-snapshot must see the same bindings.
        run_pass.prior_stats = total_stats
        run_pass.prior_bugs = result.bugs
        again = snapshot_pass(
            run_pass,
            reason=reloaded["reason"],
            pass_completed=reloaded["pass_completed"],
            pass_reason=reloaded["pass_reason"],
            elapsed=reloaded["elapsed_s"],
        )
        save_checkpoint(second, again)
        with open(first, "rb") as a, open(second, "rb") as b:
            assert a.read() == b.read()


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
        interrupted = checker(StopAtCheckpointer(path, stop_round=4)).run(
            partial_choice_state()
        )
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
            interrupted = _checker(
                "opt", 10, checkpointer=Checkpointer(path)
            ).run()
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
        records = [row for _node, store in payload["pass"]["stores"] for row in store["records"]]
        linked = next(row for row in records if row["predecessors"])
        linked["predecessors"][0]["event"]["kind"] = "bogus"
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
        path = str(tmp_path / "done.json")
        _checker("opt", 4, checkpointer=Checkpointer(path)).run()
        with open(path) as handle:
            envelope = json.load(handle)

        # Version 2 wrote the same object, alone and unterminated: still read.
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
