"""Command-line interface: run checkers on named workloads.

Examples::

    python -m repro list
    python -m repro check paxos --algorithm lmc-opt
    python -m repro check paxos --algorithm bdfs --max-seconds 60
    python -m repro check 2pc --buggy --algorithm lmc-gen
    python -m repro scenario s55 --buggy
    python -m repro scenario s56
    python -m repro trace paxos                    # traced run, JSONL out
    python -m repro check paxos --trace-out t.jsonl --metrics-interval 0.5
    python -m repro trace-report t.jsonl           # Fig. 13 / §5.4 tables
    python -m repro check paxos --coverage --metrics-interval 0.5
    python -m repro runs                           # list registered runs
    python -m repro status                         # latest run, live depth/ETA
    python -m repro coverage                       # handler coverage report
    python -m repro serve-status --port 8765       # read-only HTTP endpoint

See docs/OBSERVABILITY.md for the trace record schema and the "Live
operations" section for the run registry.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import Any, Callable, Dict, List, NoReturn, Optional, Tuple, Type

from repro.core.checker import LocalModelChecker
from repro.core.checkpoint import Checkpointer, CheckpointError, load_checkpoint
from repro.core.config import LMCConfig
from repro.core.pool import require_fork
from repro.explore.budget import SearchBudget
from repro.explore.global_checker import GlobalModelChecker
from repro.invariants.base import Invariant
from repro.model.protocol import Protocol
from repro.obs.coverage import CoverageTracker, render_coverage
from repro.obs.emitter import NULL_EMITTER, JsonlEmitter, TraceEmitter
from repro.obs.progress import format_eta
from repro.obs.registry import RunHandle, RunRecord, RunRegistry
from repro.reports import CheckResult
from repro.stats.reporting import format_phase_breakdown, format_table

#: protocol name -> (builder(nodes, buggy) -> (protocol, invariant), doc)
WorkloadBuilder = Callable[[int, bool], Tuple[Protocol, Invariant]]


def _paxos(nodes: int, buggy: bool):
    from repro.protocols.paxos import (
        BuggyPaxosProtocol,
        PaxosAgreement,
        PaxosProtocol,
    )

    cls = BuggyPaxosProtocol if buggy else PaxosProtocol
    return cls(num_nodes=nodes, proposals=((0, 0, "v0"),)), PaxosAgreement(0)


def _tree(nodes: int, buggy: bool):
    from repro.protocols.tree import ReceivedImpliesSent, TreeProtocol

    del nodes, buggy
    return TreeProtocol(), ReceivedImpliesSent()


def _chain(nodes: int, buggy: bool):
    from repro.protocols.chain import ChainOrder, ChainProtocol

    del buggy
    return ChainProtocol(max(nodes, 2)), ChainOrder()


def _echo(nodes: int, buggy: bool):
    from repro.protocols.echo import EchoProtocol, PongsImplyPing

    del buggy
    return EchoProtocol(max(nodes, 2)), PongsImplyPing()


def _twophase(nodes: int, buggy: bool):
    from repro.protocols.twophase import (
        CommitValidity,
        EagerCommitCoordinator,
        TwoPhaseCommit,
    )

    cls = EagerCommitCoordinator if buggy else TwoPhaseCommit
    return cls(max(nodes, 2), no_voters=(max(nodes, 2) - 1,)), CommitValidity()


def _twophase_timeout(nodes: int, buggy: bool):
    from repro.protocols.twophase import Atomicity, TimeoutTwoPhaseCommit

    del buggy
    return TimeoutTwoPhaseCommit(max(nodes, 2)), Atomicity()


def _ring(nodes: int, buggy: bool):
    from repro.protocols.ring import (
        AtMostOneLeader,
        GreedyRingElection,
        RingElection,
    )

    cls = GreedyRingElection if buggy else RingElection
    return cls(max(nodes, 2), initiators=(0,)), AtMostOneLeader()


def _stream(nodes: int, buggy: bool):
    from repro.protocols.stream import InOrderDelivery, StreamProtocol

    del nodes, buggy
    return StreamProtocol(3), InOrderDelivery()


def _randtree(nodes: int, buggy: bool):
    from repro.protocols.randtree import (
        ChildrenSiblingsDisjoint,
        RandTreeProtocol,
        SiblingMixupRandTree,
    )

    cls = SiblingMixupRandTree if buggy else RandTreeProtocol
    return cls(max(nodes, 2)), ChildrenSiblingsDisjoint()


WORKLOADS: Dict[str, Tuple[WorkloadBuilder, str]] = {
    "paxos": (_paxos, "3-role Paxos, one proposal (--buggy: §5.5 bug)"),
    "tree": (_tree, "the §2 forwarding-tree primer"),
    "chain": (_chain, "sequential token chain (§4.3 counter-example)"),
    "echo": (_echo, "all-to-all echo broadcast (maximally chatty)"),
    "2pc": (_twophase, "two-phase commit (--buggy: eager commit)"),
    "2pc-timeout": (
        _twophase_timeout,
        "2PC with presumed-abort timeouts (atomicity breaks under --drop-faults)",
    ),
    "randtree": (_randtree, "RandTree membership (--buggy: sibling mixup)"),
    "ring": (_ring, "ring leader election (--buggy: greedy crowning)"),
    "stream": (_stream, "sequenced datagram stream (in-order invariant fails)"),
}


def parse_partition_spec(spec: str) -> Tuple[int, Optional[int], tuple, tuple]:
    """Parse one ``--partition START:END:SRCS:DESTS`` window.

    ``END`` may be empty or ``-`` for a permanent partition; ``SRCS`` and
    ``DESTS`` are comma-separated node ids.  Example: ``2:4:0:1,2`` blocks
    messages from node 0 to nodes 1 and 2 during rounds 2-4.
    """
    parts = spec.split(":")
    if len(parts) != 4:
        raise argparse.ArgumentTypeError(
            f"partition spec {spec!r} is not START:END:SRCS:DESTS"
        )
    try:
        start = int(parts[0])
        end = None if parts[1] in ("", "-") else int(parts[1])
        srcs = tuple(int(item) for item in parts[2].split(",") if item != "")
        dests = tuple(int(item) for item in parts[3].split(",") if item != "")
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"partition spec {spec!r} contains a non-integer field"
        ) from None
    if not srcs or not dests:
        raise argparse.ArgumentTypeError(
            f"partition spec {spec!r} needs at least one src and one dest"
        )
    return (start, end, srcs, dests)


def worker_count(text: str) -> Optional[int]:
    """Parse ``--explore-workers``: a count, where any negative one means all
    CPUs — ``None``, which repro.core.pool.resolve_workers turns into one."""
    count = int(text)
    return None if count < 0 else count


class _AppendTuple(argparse.Action):
    """``action="append"`` into a tuple, the type ``LMCConfig`` fields hold."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, getattr(namespace, self.dest) + (values,))


#: Every ``LMCConfig`` field with its default.  A config flag's ``dest`` is
#: its field, so :func:`build_config` reads the whole configuration off
#: ``args`` by name.
CONFIG_DEFAULTS = {field.name: field.default for field in dataclasses.fields(LMCConfig)}

#: The ``LMCConfig`` fields that declare a flag, in declaration order.
CONFIG_FLAGS = tuple(field for field in dataclasses.fields(LMCConfig) if field.metadata.get("flag"))

#: Flags the command line parses its own way, beyond the ``store_true`` of a
#: bool field and the ``type=int`` of any other.
_OWN_PARSING: Dict[str, Dict[str, Any]] = {
    "explore_workers": {"type": worker_count},
    "partition_schedules": {
        "action": _AppendTuple,
        "type": parse_partition_spec,
        "metavar": "START:END:SRCS:DESTS",
    },
}


def add_config_flags(
    command: argparse.ArgumentParser, names: Optional[Tuple[str, ...]] = None
) -> None:
    """Declare on ``command`` the flag of every ``LMCConfig`` field that has
    one (of the fields ``names`` lists, when given), writing the field and
    defaulting to its default."""
    for field in CONFIG_FLAGS:
        if names is not None and field.name not in names:
            continue
        if isinstance(field.default, bool):
            parsing: Dict[str, Any] = {"action": "store_true"}
        else:
            parsing = {"type": int, "metavar": "N"}
        parsing.update(_OWN_PARSING.get(field.name, {}), help=field.metadata["help"])
        flag = field.metadata["flag"]
        command.add_argument(flag, dest=field.name, default=field.default, **parsing)


def build_config(args: argparse.Namespace) -> LMCConfig:
    """The configuration the flags spell: every ``args`` attribute named like
    an ``LMCConfig`` field, over LMC-GEN for ``--algorithm lmc-gen`` and
    LMC-OPT otherwise (a scenario has no ``--algorithm``)."""
    factory = LMCConfig.general if vars(args).get("algorithm") == "lmc-gen" else LMCConfig.optimized
    return factory(**{name: value for name, value in vars(args).items() if name in CONFIG_DEFAULTS})


def changed_config_flags(args: argparse.Namespace) -> List[str]:
    """The config flags ``args`` sets away from their defaults, as spelled."""
    return [
        field.metadata["flag"]
        for field in CONFIG_FLAGS
        if vars(args).get(field.name, field.default) != field.default
    ]


class _RaisingParser(argparse.ArgumentParser):
    """Raises :class:`argparse.ArgumentError` where a parser would exit:
    for an argv read back from the run registry, not typed by the user."""

    def error(self, message: str) -> NoReturn:
        raise argparse.ArgumentError(None, message)


def build_parser(
    parser_class: Type[argparse.ArgumentParser] = argparse.ArgumentParser,
) -> argparse.ArgumentParser:
    """The ``repro`` command line; ``parser_class`` builds every subparser too."""
    parser = parser_class(
        prog="repro",
        description="Local model checking without the network (NSDI'11)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available workloads and scenarios")

    def add_trace_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--trace-out",
            metavar="PATH",
            default=None,
            help="stream a structured JSONL trace to PATH "
            "(see docs/OBSERVABILITY.md)",
        )
        command.add_argument(
            "--metrics-interval",
            type=float,
            default=None,
            metavar="SECONDS",
            help="also emit trace metric samples every SECONDS of wall time "
            "(default: only when the explored depth grows)",
        )

    def add_registry_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--no-registry",
            dest="registry",
            action="store_false",
            help="do not register this run under the runs root "
            "(no heartbeats, invisible to `repro runs`)",
        )
        command.add_argument(
            "--registry-root",
            metavar="PATH",
            default=None,
            help="runs root directory (default: $REPRO_RUNS_ROOT or .lmc/runs)",
        )
        command.add_argument(
            "--coverage",
            action="store_true",
            help="record per-handler/per-invariant coverage counters "
            "(reported by `repro coverage`; see docs/OBSERVABILITY.md)",
        )

    def add_reader_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--registry-root",
            metavar="PATH",
            default=None,
            help="runs root directory (default: $REPRO_RUNS_ROOT or .lmc/runs)",
        )

    def add_check_flags(command: argparse.ArgumentParser) -> None:
        command.add_argument("workload", choices=sorted(WORKLOADS))
        command.add_argument(
            "--algorithm",
            choices=("bdfs", "lmc-gen", "lmc-opt"),
            default="lmc-opt",
        )
        command.add_argument("--nodes", type=int, default=3)
        command.add_argument("--buggy", action="store_true")
        command.add_argument("--max-seconds", type=float, default=None)
        command.add_argument("--max-depth", type=int, default=None)
        add_config_flags(command)
        command.add_argument(
            "--checkpoint-every",
            type=int,
            default=None,
            metavar="N",
            help="write a durable checker checkpoint every N exploration "
            "rounds (lmc-gen/lmc-opt only; a final snapshot and a "
            "SIGTERM snapshot are always written once checkpointing is "
            "on — see docs/CHECKPOINTS.md)",
        )
        command.add_argument(
            "--checkpoint",
            metavar="PATH",
            default=None,
            help="checkpoint file path (default: <run dir>/checkpoint.json "
            "when the run is registered; implies checkpointing on)",
        )
        command.add_argument(
            "--extend-from",
            metavar="PATH",
            default=None,
            help="extend a completed depth-bounded run from its checkpoint: "
            "explore only the frontier the new --max-depth unblocks "
            "(see docs/CHECKPOINTS.md)",
        )

    check = sub.add_parser("check", help="model check a named workload")
    add_check_flags(check)
    add_trace_flags(check)
    add_registry_flags(check)

    trace = sub.add_parser(
        "trace",
        help="model check a workload with tracing on (check + default "
        "--trace-out <workload>.trace.jsonl)",
    )
    add_check_flags(trace)
    add_trace_flags(trace)
    add_registry_flags(trace)

    scenario = sub.add_parser(
        "scenario", help="run a paper experiment from its live snapshot"
    )
    scenario.add_argument("name", choices=("s55", "s56"))
    scenario.add_argument("--buggy", action="store_true", default=None)
    scenario.add_argument("--correct", dest="buggy", action="store_false")
    add_config_flags(scenario, ("symmetry_reduction", "por_pruning"))
    add_trace_flags(scenario)
    add_registry_flags(scenario)

    report = sub.add_parser(
        "trace-report",
        help="render a captured trace file into Fig. 13 / §5.4 tables",
    )
    report.add_argument("trace_file", metavar="TRACE.jsonl")

    runs = sub.add_parser(
        "runs", help="list registered runs (live and finished)"
    )
    runs.add_argument(
        "--gc",
        action="store_true",
        help="before listing, delete finished runs' leftover checkpoints "
        "(in-flight and killed runs keep theirs — they are resume points)",
    )
    add_reader_flags(runs)

    resume = sub.add_parser(
        "resume",
        help="continue a checkpointed run where it stopped "
        "(see docs/CHECKPOINTS.md)",
    )
    resume.add_argument(
        "run_id",
        nargs="?",
        default=None,
        help="run id (default: latest run with a checkpoint)",
    )
    resume.add_argument(
        "--from",
        dest="resume_path",
        metavar="PATH",
        default=None,
        help="checkpoint file (default: the run's checkpoint.json)",
    )
    resume.add_argument(
        "--max-seconds",
        type=float,
        default=None,
        help="replace the original wall-clock budget (the other bounds "
        "must match the checkpoint and are taken from the original "
        "command line)",
    )
    add_reader_flags(resume)

    status = sub.add_parser(
        "status",
        help="show one run's latest heartbeat: depth, counters, progress/ETA",
    )
    status.add_argument(
        "run_id", nargs="?", default=None, help="run id (default: latest run)"
    )
    add_reader_flags(status)

    coverage = sub.add_parser(
        "coverage",
        help="report handler/invariant/fault coverage recorded by --coverage",
    )
    coverage.add_argument(
        "run_id", nargs="?", default=None, help="run id (default: latest run)"
    )
    add_reader_flags(coverage)

    serve = sub.add_parser(
        "serve-status",
        help="serve the run registry as read-only JSON over HTTP",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    add_reader_flags(serve)

    return parser


def _make_emitter(args: argparse.Namespace) -> TraceEmitter:
    """Build the trace sink the flags ask for (the null emitter otherwise).

    ``repro trace`` defaults ``--trace-out`` to ``<workload>.trace.jsonl``;
    the chosen path is written back onto ``args`` so ``main`` can report it.
    """
    path = getattr(args, "trace_out", None)
    if path is None and args.command == "trace":
        path = f"{args.workload}.trace.jsonl"
        args.trace_out = path
    return JsonlEmitter(path) if path else NULL_EMITTER


def _make_run_context(
    args: argparse.Namespace, argv: Optional[list]
) -> Tuple[Optional[RunHandle], Optional[CoverageTracker]]:
    """Register the run and build its coverage tracker, per the flags.

    Registration failures (an unwritable runs root) degrade to a warning:
    observability must never take the checker down with it.
    """
    coverage = CoverageTracker() if getattr(args, "coverage", False) else None
    if not getattr(args, "registry", True):
        return None, coverage
    extra: Dict[str, Any] = {}
    if getattr(args, "resumed_from", None):
        extra["resumed_from"] = args.resumed_from
    try:
        handle = RunRegistry(getattr(args, "registry_root", None)).register(
            command=args.command,
            workload=getattr(args, "workload", None) or getattr(args, "name", None),
            algorithm=getattr(args, "algorithm", None),
            argv=list(argv) if argv is not None else sys.argv[1:],
            **extra,
        )
    except OSError as exc:
        print(f"warning: cannot register run: {exc}", file=sys.stderr)
        return None, coverage
    handle.advertise_cadence(getattr(args, "metrics_interval", None))
    return handle, coverage


def run_check(
    args: argparse.Namespace,
    protocol: Protocol,
    invariant: Invariant,
    config: LMCConfig,
    budget: SearchBudget,
    emitter: TraceEmitter = NULL_EMITTER,
    run_handle: Optional[RunHandle] = None,
    coverage: Optional[CoverageTracker] = None,
) -> CheckResult:
    """Run the ``check``/``trace`` subcommands: a named workload, one algorithm.

    ``main`` builds the workload's protocol and invariant, the config and
    the budget, so a usage error exits before a run registers.  The
    emitter and metrics cadence thread into the LMC checkers; the B-DFS
    baseline takes no per-phase instrumentation (its trace still carries
    the final counter snapshot ``main`` emits).
    """
    interval = getattr(args, "metrics_interval", None)
    # Checkpointing (docs/CHECKPOINTS.md): any of the three flags turns the
    # snapshot layer on; the file defaults into the registry run directory
    # so `repro resume <run_id>` finds it without extra bookkeeping.
    checkpoint_path = getattr(args, "checkpoint", None)
    checkpoint_every = getattr(args, "checkpoint_every", None)
    extend_from = getattr(args, "extend_from", None)
    resume_from = getattr(args, "resume_from", None)
    checkpointer = None
    if checkpoint_path or checkpoint_every or extend_from or resume_from:
        if args.algorithm == "bdfs":
            raise CheckpointError(
                "checkpoints require --algorithm lmc-gen or lmc-opt"
            )
        if checkpoint_path is None:
            checkpoint_path = (
                os.path.join(run_handle.directory, "checkpoint.json")
                if run_handle is not None
                else f"{args.workload}.checkpoint.json"
            )
        checkpointer = Checkpointer(checkpoint_path, every_rounds=checkpoint_every)
    if args.algorithm == "bdfs":
        # B-DFS explores the paper's original event vocabulary under no
        # LMCConfig (``main`` refuses LMC flags with it); it registers and
        # finishes in the registry but emits no heartbeats.
        return GlobalModelChecker(protocol, invariant, budget=budget).run()
    lmc_kwargs: Dict[str, Any] = dict(
        budget=budget,
        config=config,
        emitter=emitter,
        metrics_interval=interval,
        run_handle=run_handle,
        coverage=coverage,
        checkpointer=checkpointer,
    )
    checker = LocalModelChecker(protocol, invariant, **lmc_kwargs)
    if resume_from:
        result = checker.resume(load_checkpoint(resume_from))
    elif extend_from:
        result = checker.extend_depth(load_checkpoint(extend_from))
    else:
        result = checker.run()
    if run_handle is not None and coverage is not None:
        run_handle.write_coverage(checker.coverage_report())
    return result


def run_scenario(
    args: argparse.Namespace,
    config: LMCConfig,
    emitter: TraceEmitter = NULL_EMITTER,
    run_handle: Optional[RunHandle] = None,
    coverage: Optional[CoverageTracker] = None,
) -> CheckResult:
    """Run a §5.5/§5.6 scenario from its live snapshot (optionally traced)."""
    buggy = True if args.buggy is None else args.buggy
    interval = getattr(args, "metrics_interval", None)
    if args.name == "s55":
        from repro.protocols.paxos import PaxosAgreement
        from repro.protocols.paxos.scenarios import (
            partial_choice_state,
            scenario_protocol,
        )

        protocol = scenario_protocol(buggy)
        invariant: Invariant = PaxosAgreement(0)
        initial = partial_choice_state()
    else:
        from repro.protocols.onepaxos import OnePaxosAgreement
        from repro.protocols.onepaxos.scenarios import (
            post_leaderchange_state,
            scenario_protocol as onepaxos_scenario,
        )

        protocol = onepaxos_scenario(buggy)
        invariant = OnePaxosAgreement(0)
        initial = post_leaderchange_state(protocol)
    checker = LocalModelChecker(
        protocol,
        invariant,
        config=config,
        emitter=emitter,
        metrics_interval=interval,
        run_handle=run_handle,
        coverage=coverage,
    )
    result = checker.run(initial)
    if run_handle is not None and coverage is not None:
        run_handle.write_coverage(checker.coverage_report())
    return result


def _prepare_resume(
    args: argparse.Namespace,
) -> Optional[Tuple[argparse.Namespace, list]]:
    """Turn ``repro resume <run_id>`` into the original check invocation.

    The registry's ``meta.json`` stores the run's argv; reparsing it
    rebuilds the exact workload, configuration and budget the checkpoint
    fingerprints.  Returns the rebuilt args (with ``resume_from`` set for
    :func:`run_check`) and the original argv (recorded on the new run so
    *it* can be resumed in turn), or None after printing an error.
    """
    registry = RunRegistry(getattr(args, "registry_root", None))
    if args.run_id:
        record = registry.load(args.run_id)
        if record is None:
            print(f"error: no run {args.run_id} under {registry.root}", file=sys.stderr)
            return None
    else:
        record = next(
            (r for r in reversed(registry.list_runs()) if r.has_checkpoint()),
            None,
        )
        if record is None:
            print(
                f"error: no checkpointed runs under {registry.root}",
                file=sys.stderr,
            )
            return None
    path = args.resume_path or record.checkpoint_path
    if not os.path.isfile(path):
        print(
            f"error: run {record.run_id} has no checkpoint at {path} "
            "(was it started with --checkpoint-every / --checkpoint?)",
            file=sys.stderr,
        )
        return None
    saved_argv = record.meta.get("argv")
    if not saved_argv:
        print(
            f"error: run {record.run_id} recorded no argv; "
            "resume it manually with `repro check ... --extend-from`-style flags",
            file=sys.stderr,
        )
        return None
    try:
        saved_args = build_parser(_RaisingParser).parse_args(saved_argv)
    except argparse.ArgumentError as exc:
        print(
            f"error: run {record.run_id} was recorded with arguments this "
            f"version rejects: {exc}",
            file=sys.stderr,
        )
        return None
    if saved_args.command not in ("check", "trace"):
        print(
            f"error: run {record.run_id} ran `{saved_args.command}`, "
            "which is not resumable",
            file=sys.stderr,
        )
        return None
    if args.max_seconds is not None:
        saved_args.max_seconds = args.max_seconds
    if getattr(args, "registry_root", None) is not None:
        saved_args.registry_root = args.registry_root
    saved_args.resume_from = path
    saved_args.resumed_from = record.run_id
    saved_args.extend_from = None
    return saved_args, list(saved_argv)


def _load_run(args: argparse.Namespace) -> Tuple[RunRegistry, Optional[RunRecord]]:
    """Resolve the run a reader command addresses (explicit id or latest)."""
    registry = RunRegistry(getattr(args, "registry_root", None))
    run_id = getattr(args, "run_id", None)
    record = registry.load(run_id) if run_id else registry.latest()
    return registry, record


def run_runs(args: argparse.Namespace) -> int:
    """``repro runs``: one row per registered run, newest last."""
    registry = RunRegistry(args.registry_root)
    if getattr(args, "gc", False):
        pruned = registry.gc_checkpoints()
        for path in pruned:
            print(f"pruned {path}")
        print(f"pruned {len(pruned)} stale checkpoint(s)")
    records = registry.list_runs()
    if not records:
        print(f"no runs registered under {registry.root}")
        return 0
    rows = []
    for record in records:
        heartbeat = record.heartbeat or {}
        progress = heartbeat.get("progress") or {}
        rows.append(
            (
                record.run_id,
                record.meta.get("command") or "-",
                record.meta.get("workload") or "-",
                record.meta.get("algorithm") or heartbeat.get("algorithm") or "-",
                record.status(),
                heartbeat.get("depth", "-"),
                int(heartbeat["transitions"])
                if "transitions" in heartbeat
                else "-",
                # A finished run's last in-flight ETA is no longer meaningful.
                format_eta(progress.get("eta_s")) if record.result is None else "-",
            )
        )
    print(
        format_table(
            [
                "run",
                "command",
                "workload",
                "algorithm",
                "status",
                "depth",
                "transitions",
                "eta",
            ],
            rows,
        )
    )
    return 0


def render_status(record: RunRecord) -> str:
    """The ``repro status`` detail view of one run."""
    heartbeat = record.heartbeat or {}
    meta = record.meta
    lines = [
        f"run           : {record.run_id}",
        f"status        : {record.status()}",
        f"command       : {meta.get('command') or '-'}"
        + (f" {meta.get('workload')}" if meta.get("workload") else ""),
        f"algorithm     : {meta.get('algorithm') or heartbeat.get('algorithm') or '-'}",
        f"started       : {meta.get('started') or '-'} (pid {meta.get('pid')})",
    ]
    age = record.heartbeat_age_s()
    if age is not None:
        lines.append(f"heartbeat     : {age:.1f}s ago")
    if heartbeat:
        lines.append(
            "depth         : "
            f"{heartbeat.get('depth', '-')}"
            f" (round {heartbeat.get('round', '-')},"
            f" frontier {heartbeat.get('frontier', '-')})"
        )
        if "transitions" in heartbeat:
            lines.append(f"transitions   : {int(heartbeat['transitions'])}")
        if "node_states" in heartbeat:
            lines.append(f"node states   : {int(heartbeat['node_states'])}")
        if "rss_bytes" in heartbeat:
            lines.append(
                f"rss           : {heartbeat['rss_bytes'] / (1024 * 1024):.1f} MiB"
            )
        if "elapsed_s" in heartbeat:
            lines.append(f"elapsed       : {heartbeat['elapsed_s']:.1f}s")
        checkpoint = heartbeat.get("checkpoint")
        if isinstance(checkpoint, dict):
            lines.append(
                f"last checkpoint: round {checkpoint.get('round', '-')} "
                f"({checkpoint.get('writes', '-')} writes, "
                f"{checkpoint.get('segments', '-')} segments, "
                f"{checkpoint.get('bytes_written', '-')} bytes written, "
                f"{checkpoint.get('path', '-')})"
            )
    # Progress/ETA describe an in-flight run; once a result exists the
    # estimate is history, not a forecast.
    progress = (heartbeat.get("progress") or {}) if record.result is None else {}
    if progress:
        fraction = progress.get("fraction_done")
        factor = progress.get("growth_factor")
        rate = progress.get("rate_per_s")
        lines.append(
            "progress      : "
            + (f"{fraction * 100.0:.1f}% of est. work" if fraction is not None else "-")
            + (
                f" (depth {progress.get('depth')}/{progress.get('max_depth')})"
                if progress.get("max_depth") is not None
                else " (no depth bound)"
            )
        )
        if factor is not None:
            lines.append(f"growth        : x{factor:.2f} work per depth")
        if rate is not None:
            lines.append(f"rate          : {rate:.0f} transitions/s")
        lines.append(f"eta           : {format_eta(progress.get('eta_s'))}")
    if record.result is not None:
        result = record.result
        lines.append(
            "result        : "
            + " ".join(
                f"{key}={result[key]}"
                for key in sorted(result)
                if key not in ("run_id", "wall_ts")
            )
        )
    return "\n".join(lines)


def run_status(args: argparse.Namespace) -> int:
    """``repro status [RUN_ID]``: the latest heartbeat, cross-process."""
    registry, record = _load_run(args)
    if record is None:
        target = args.run_id or "latest run"
        print(f"error: no {target} under {registry.root}", file=sys.stderr)
        return 2
    print(render_status(record))
    return 0


def run_coverage(args: argparse.Namespace) -> int:
    """``repro coverage [RUN_ID]``: the recorded handler-coverage report."""
    registry, record = _load_run(args)
    if record is None:
        target = args.run_id or "latest run"
        print(f"error: no {target} under {registry.root}", file=sys.stderr)
        return 2
    coverage = record.coverage()
    if coverage is None:
        print(
            f"error: run {record.run_id} recorded no coverage "
            "(re-run with --coverage)",
            file=sys.stderr,
        )
        return 2
    print(f"run           : {record.run_id}")
    print(render_coverage(coverage))
    return 0


def run_serve_status(args: argparse.Namespace) -> int:
    """``repro serve-status``: read-only JSON over HTTP until interrupted."""
    from repro.obs.statusd import serve_forever

    registry = RunRegistry(args.registry_root)

    def announce(address: Tuple[str, int]) -> None:
        print(f"serving run registry {registry.root}")
        print(f"  http://{address[0]}:{address[1]}/runs")

    try:
        serve_forever(registry, host=args.host, port=args.port, ready=announce)
    except OSError as exc:
        print(f"error: cannot serve status: {exc}", file=sys.stderr)
        return 2
    return 0


def run_trace_report(args: argparse.Namespace) -> int:
    """Render a captured trace file back into the paper's tables."""
    from repro.obs.report import TraceSummary

    try:
        summary = TraceSummary.from_file(args.trace_file)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(summary.render())
    return 0


def print_result(result: CheckResult) -> None:
    print(f"algorithm     : {result.algorithm}")
    print(f"completed     : {result.completed} ({result.stop_reason})")
    stats = result.stats
    print(f"transitions   : {stats.transitions}")
    if stats.global_states:
        print(f"global states : {stats.global_states}")
    if stats.node_states:
        print(f"node states   : {stats.node_states}")
        print(f"system states : {stats.system_states_created}")
        print(f"preliminary   : {stats.preliminary_violations}")
        print(f"soundness     : {stats.soundness_calls}")
    breakdown = format_phase_breakdown(stats.phase_seconds)
    if breakdown:
        print()
        print(breakdown)
        print()
    print(f"bugs          : {len(result.bugs)}")
    for bug in result.bugs:
        print()
        print(bug.summary())


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print("workloads:")
        for name, (_builder, doc) in sorted(WORKLOADS.items()):
            print(f"  {name:10s} {doc}")
        print("scenarios:")
        print("  s55        §5.5 injected Paxos bug from the live snapshot")
        print("  s56        §5.6 1Paxos initialization bug from the snapshot")
        return 0
    if args.command == "trace-report":
        return run_trace_report(args)
    if args.command == "runs":
        return run_runs(args)
    if args.command == "status":
        return run_status(args)
    if args.command == "coverage":
        return run_coverage(args)
    if args.command == "serve-status":
        return run_serve_status(args)
    if args.command == "resume":
        prepared = _prepare_resume(args)
        if prepared is None:
            return 2
        args, argv = prepared
    ignored = changed_config_flags(args) if getattr(args, "algorithm", None) == "bdfs" else []
    if ignored:
        print(
            "error: --algorithm bdfs takes no LMC configuration; it would "
            f"ignore {' '.join(ignored)}",
            file=sys.stderr,
        )
        return 2
    try:
        require_fork(getattr(args, "explore_workers", 0))
    except ValueError as exc:
        print(f"error: --explore-workers: {exc}", file=sys.stderr)
        return 2
    # Out-of-range values are usage errors, refused before a run registers.
    try:
        config = build_config(args)
        budget = SearchBudget(
            max_depth=getattr(args, "max_depth", None),
            max_seconds=getattr(args, "max_seconds", None),
        )
        every = getattr(args, "checkpoint_every", None)
        if every is not None and every < 1:
            raise ValueError(f"--checkpoint-every must be >= 1, got {every}")
        if args.command in ("check", "trace"):
            builder, _doc = WORKLOADS[args.workload]
            protocol, invariant = builder(args.nodes, args.buggy)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        emitter = _make_emitter(args)
    except OSError as exc:
        print(f"error: cannot open trace output: {exc}", file=sys.stderr)
        return 2
    run_handle, coverage = _make_run_context(args, argv)
    try:
        emitter.event(
            "run_start",
            command=args.command,
            workload=getattr(args, "workload", None) or getattr(args, "name", None),
            algorithm=getattr(args, "algorithm", None),
            max_depth=getattr(args, "max_depth", None),
            run_id=run_handle.run_id if run_handle is not None else None,
        )
        if args.command in ("check", "trace"):
            result = run_check(
                args, protocol, invariant, config, budget, emitter, run_handle, coverage
            )
        else:
            result = run_scenario(args, config, emitter, run_handle, coverage)
        # End-of-run bookkeeping: the merged final counters and a closing
        # event, so trace-report always has an authoritative last metric
        # record.
        emitter.metric(**result.stats.snapshot())
        emitter.event(
            "run_end",
            algorithm=result.algorithm,
            completed=result.completed,
            stop_reason=result.stop_reason,
            bugs=len(result.bugs),
        )
    except CheckpointError as exc:
        if run_handle is not None:
            run_handle.finish(status="failed", error=str(exc))
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BaseException as exc:
        if run_handle is not None:
            run_handle.finish(status="failed", error=repr(exc))
        raise
    finally:
        emitter.close()
    if run_handle is not None:
        run_handle.finish(
            status="finished",
            algorithm=result.algorithm,
            completed=result.completed,
            stop_reason=result.stop_reason,
            bugs=len(result.bugs),
            transitions=result.stats.transitions,
        )
    print_result(result)
    if getattr(args, "trace_out", None):
        print(f"\ntrace written : {args.trace_out}")
    if run_handle is not None:
        print(f"run id        : {run_handle.run_id}")
    return 1 if result.found_bug else 0


if __name__ == "__main__":
    sys.exit(main())
