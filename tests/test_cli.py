"""Tests for the command-line interface."""

import pytest

import argparse
import dataclasses
import json
import os

from repro.cli import (
    CONFIG_DEFAULTS,
    WORKLOADS,
    add_config_flags,
    build_config,
    build_parser,
    main,
)
from repro.core.config import LMCConfig
from repro.obs.registry import RunRegistry


def _config(*argv, command="check"):
    return build_config(build_parser().parse_args([command, *argv]))


class TestParser:
    def test_list_command(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in WORKLOADS:
            assert name in out
        assert "s55" in out and "s56" in out

    def test_check_requires_known_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["check", "nonexistent"])

    def test_defaults(self):
        args = build_parser().parse_args(["check", "paxos"])
        assert args.algorithm == "lmc-opt"
        assert args.nodes == 3
        assert not args.buggy


class TestCheckCommand:
    def test_clean_tree_exits_zero(self, capsys):
        assert main(["check", "tree"]) == 0
        out = capsys.readouterr().out
        assert "bugs          : 0" in out

    def test_buggy_2pc_exits_one(self, capsys):
        assert main(["check", "2pc", "--buggy"]) == 1
        out = capsys.readouterr().out
        assert "BUG" in out

    def test_bdfs_algorithm(self, capsys):
        assert main(["check", "tree", "--algorithm", "bdfs"]) == 0
        out = capsys.readouterr().out
        assert "global states" in out

    def test_lmc_gen_algorithm(self, capsys):
        assert main(["check", "chain", "--algorithm", "lmc-gen"]) == 0

    def test_parallel_algorithm(self, capsys):
        """Pooled verification is retired: its algorithm and pool flag are
        usage errors."""
        for retired in (["--algorithm", "lmc-parallel"], ["--workers", "2"]):
            with pytest.raises(SystemExit) as exited:
                main(["check", "tree", *retired])
            assert exited.value.code == 2
            assert retired[0] in capsys.readouterr().err

    def test_explore_workers_print_the_serial_report(self, capsys):
        """The exploration front changes no line of the report but its
        phase timings and run id.  Three-node Paxos is large enough for the
        shipped thresholds to fork rounds."""

        def report(*flags):
            assert main(["check", "paxos", *flags]) == 0
            lines = capsys.readouterr().out.splitlines()
            return [line for line in lines if " : " in line and not line.startswith("run id")]

        serial = report()
        assert "transitions   : 4107" in serial
        assert report("--explore-workers", "2") == serial

    def test_depth_bound_flag(self, capsys):
        assert main(["check", "echo", "--max-depth", "2"]) == 0


class TestScenarioCommand:
    def test_s55_buggy_finds_bug(self, capsys):
        assert main(["scenario", "s55"]) == 1
        out = capsys.readouterr().out
        assert "Paxos agreement violated" in out

    def test_s55_correct_is_clean(self, capsys):
        assert main(["scenario", "s55", "--correct"]) == 0

    def test_s56_buggy_finds_bug(self, capsys):
        assert main(["scenario", "s56"]) == 1
        out = capsys.readouterr().out
        assert "1Paxos agreement violated" in out

    def test_s56_correct_is_clean(self, capsys):
        assert main(["scenario", "s56", "--correct"]) == 0


class TestFaultFlags:
    """The omission-fault knobs (docs/FAULTS.md) thread CLI → LMCConfig."""

    def test_fault_flags_parse_round_trip(self):
        config = _config(
            "2pc-timeout",
            "--drop-faults",
            "--max-drops",
            "3",
            "--duplicate-faults",
            "--duplicate-limit",
            "2",
            "--partition",
            "1:2:0:1,2",
            "--partition",
            "3:-:1:0",
        )
        assert config.drop_faults is True
        assert config.max_drops == 3
        assert config.duplicate_faults is True
        assert config.duplicate_limit == 2
        assert config.partition_schedules == (
            (1, 2, (0,), (1, 2)),
            (3, None, (1,), (0,)),
        )

    def test_fault_flags_default_off(self):
        config = _config("2pc-timeout")
        assert config.drop_faults is False
        assert config.max_drops is None
        assert config.duplicate_faults is False
        assert config.duplicate_limit == 0
        assert config.partition_schedules == ()

    @pytest.mark.parametrize(
        "spec", ["nonsense", "1:2:0", "x:2:0:1", "1:2::1", "1:2:0:"]
    )
    def test_malformed_partition_spec_is_rejected(self, spec):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["check", "2pc-timeout", "--partition", spec]
            )

    def test_duplicate_limit_reaches_the_config(self, capsys):
        # --duplicate-faults alone must fail config validation (the default
        # duplicate_limit is 0), proving the limit flag is what feeds the
        # admission budget through to LMCConfig.
        assert main(["check", "tree", "--duplicate-faults", "--no-registry"]) == 2
        assert "duplicate_limit" in capsys.readouterr().err
        assert (
            main(
                [
                    "check",
                    "tree",
                    "--duplicate-faults",
                    "--duplicate-limit",
                    "1",
                    "--no-registry",
                ]
            )
            == 0
        )

    def test_drop_faults_find_the_timeout_atomicity_bug(self, capsys):
        assert main(["check", "2pc-timeout", "--no-registry"]) == 0
        capsys.readouterr()
        assert (
            main(["check", "2pc-timeout", "--drop-faults", "--no-registry"])
            == 1
        )
        out = capsys.readouterr().out
        assert "2PC atomicity violated" in out
        assert "drop Decision" in out

    def test_max_drops_zero_disarms_the_drop_sweep(self, capsys):
        assert (
            main(
                [
                    "check",
                    "2pc-timeout",
                    "--drop-faults",
                    "--max-drops",
                    "0",
                    "--no-registry",
                ]
            )
            == 0
        )

    def test_permanent_partition_suppresses_the_bug(self, capsys):
        assert (
            main(
                [
                    "check",
                    "2pc-timeout",
                    "--drop-faults",
                    "--partition",
                    "1:-:0:1,2",
                    "--no-registry",
                ]
            )
            == 0
        )


#: One setting per config flag: (flags, field, value the field then holds).
CONFIG_FLAG_CASES = [
    (["--explore-workers", "2"], "explore_workers", 2),
    (["--explore-workers", "-1"], "explore_workers", None),
    (["--faults"], "fault_events_enabled", True),
    (["--max-crashes-per-node", "2"], "max_crashes_per_node", 2),
    (["--max-total-crashes", "3"], "max_total_crashes", 3),
    (["--drop-faults"], "drop_faults", True),
    (["--max-drops", "4"], "max_drops", 4),
    (["--duplicate-faults"], "duplicate_faults", True),
    (["--duplicate-limit", "2"], "duplicate_limit", 2),
    (["--partition", "2:-:0:1"], "partition_schedules", ((2, None, (0,), (1,)),)),
    (["--symmetry-reduction"], "symmetry_reduction", True),
    (["--por"], "por_pruning", True),
]


class TestConfigBinding:
    """Each config flag writes its ``LMCConfig`` field by name, and nothing
    else: the CLI keeps no per-flag mapping to drift."""

    def test_no_flags_build_the_library_defaults(self):
        assert _config("tree") == LMCConfig.optimized()
        assert _config("tree", "--algorithm", "lmc-gen") == LMCConfig.general()
        assert _config("s55", command="scenario") == LMCConfig.optimized()

    def test_every_config_flag_has_a_case(self):
        probe = argparse.ArgumentParser()
        add_config_flags(probe)
        declared = {a.dest for a in probe._actions if a.dest in CONFIG_DEFAULTS}
        assert declared == {field for _, field, _ in CONFIG_FLAG_CASES}

    @pytest.mark.parametrize("flags, field, value", CONFIG_FLAG_CASES)
    def test_one_flag_changes_exactly_its_field(self, flags, field, value):
        # Redelivery needs an admission budget, or the config refuses.
        context = ["--duplicate-limit", "1"] if field == "duplicate_faults" else []
        before = _config("tree", *context)
        assert getattr(before, field) != value
        assert _config("tree", *context, *flags) == dataclasses.replace(
            before, **{field: value}
        )

    @pytest.mark.parametrize(
        "flag, field",
        [("--symmetry-reduction", "symmetry_reduction"), ("--por", "por_pruning")],
    )
    def test_scenario_reduction_flags_reach_the_config(self, flag, field):
        assert _config("s55", flag, command="scenario") == LMCConfig.optimized(
            **{field: True}
        )

    def test_bdfs_refuses_lmc_flags_it_would_ignore(self, capsys):
        argv = ["check", "2pc-timeout", "--algorithm", "bdfs", "--no-registry"]
        assert main([*argv, "--drop-faults", "--max-drops", "1"]) == 2
        err = capsys.readouterr().err
        assert "--drop-faults" in err and "--max-drops" in err
        assert main(argv) == 0


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--max-drops", "-2"], "max_drops"),
        (["--duplicate-limit", "-1"], "duplicate_limit"),
        (["--max-depth", "-1"], "max_depth"),
        (["--partition", "3:1:0:1"], "partition_schedules"),
        (["--duplicate-faults"], "duplicate_limit"),
        (["--checkpoint-every", "-1"], "--checkpoint-every"),
        (["--max-seconds", "nan"], "max_seconds"),
        (["paxos", "--nodes", "0"], "two nodes"),
    ],
)
def test_an_out_of_range_value_is_one_error_line(flags, field, tmp_path, capsys):
    """Exit 2 with one line naming the field, before any run registers."""
    root = str(tmp_path / "runs")
    workload = [] if flags[0] == "paxos" else ["tree"]
    assert main(["check", *workload, *flags, "--registry-root", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err and err.count("\n") == 1
    assert RunRegistry(root).list_runs() == []


@pytest.mark.parametrize(
    "flags",
    [["--extend-from", "{}/missing.json", "--max-depth", "3"], ["--checkpoint", "{}/no/x.json"]],
    ids=["missing-extend-from", "unwritable-checkpoint"],
)
def test_an_unusable_checkpoint_path_is_one_error_line(flags, tmp_path, capsys):
    """Exit 2 with one line naming the path, and the run registered failed."""
    root = str(tmp_path / "runs")
    flags = [flag.format(tmp_path) for flag in flags]
    assert main(["check", "tree", *flags, "--registry-root", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot ") and flags[1] in err and err.count("\n") == 1
    (run,) = RunRegistry(root).list_runs()
    assert run.status() == "failed" and flags[1] in run.result["error"]


def _options(command):
    """``[option strings, dest, default, help, metavar]`` per action of one
    subcommand, JSON-shaped."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    actions = commands.choices[command]._actions
    rows = [[a.option_strings, a.dest, a.default, a.help, a.metavar] for a in actions]
    return json.loads(json.dumps(rows))


@pytest.mark.parametrize("command", ["check", "trace", "scenario"])
def test_options_match_the_pinned_table(command):
    """The flags derived from ``LMCConfig`` spell, default and document
    each option as the hand-declared ones did."""
    with open(os.path.join(os.path.dirname(__file__), "golden", "cli_options.json")) as handle:
        assert _options(command) == json.load(handle)[command]


def test_resume_of_arguments_this_version_rejects_exits_two(tmp_path, capsys):
    """A registered argv that no longer parses is one error line, not
    argparse's usage text and ``SystemExit``."""
    root = str(tmp_path / "runs")
    argv = ["check", "tree", "--algorithm", "no-such-algorithm", "--checkpoint-every", "1"]
    run = RunRegistry(root).register(command="check", workload="tree", argv=argv)
    with open(os.path.join(run.directory, "checkpoint.json"), "w") as handle:
        handle.write("{}\n")
    assert main(["resume", run.run_id, "--registry-root", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: run {run.run_id} was recorded with arguments this version "
        "rejects: argument --algorithm: invalid choice: 'no-such-algorithm'"
    )
    assert err.count("\n") == 1 and "usage" not in err


@pytest.mark.parametrize(
    "retired",
    [["--algorithm", "lmc-parallel"], ["--workers", "2"]],
    ids=["algorithm", "workers"],
)
def test_resume_of_a_pooled_verification_run_exits_two(retired, tmp_path, capsys):
    """Runs registered with the retired pooled verification's flags cannot
    resume; each is refused in one line naming the flag."""
    root = str(tmp_path / "runs")
    argv = ["check", "2pc", "--buggy", *retired, "--checkpoint-every", "1"]
    run = RunRegistry(root).register(command="check", workload="2pc", argv=argv)
    with open(os.path.join(run.directory, "checkpoint.json"), "w") as handle:
        handle.write("{}\n")
    assert main(["resume", run.run_id, "--registry-root", root]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        f"error: run {run.run_id} was recorded with arguments this version rejects: "
    )
    assert retired[0] in err
    assert err.count("\n") == 1 and "usage" not in err
