"""The eight workloads: what each builds, what it times, what it must answer.

Imported only by the child process (``bench/child.py``).  A builder does the
set-up (protocol, invariant, initial state, temp paths) and returns a
:class:`Prepared` whose ``run`` is the timed region.  Why each workload
exists and how it was sized is in ``bench/README.md``; the one-line
rationales are in ``BENCHMARK.json``.

``--seed S`` picks which nodes propose on the correct-Paxos workloads (the
space is the same size for every S, so seeds are comparable) and the
proposal values plus session order on the online workload.  The live
sessions themselves are pinned: time-to-first-bug varies 400-fold with the
live seed (0.02 s to 8.5 s over seeds 0..13), which no repetition count
would steady.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import JsonlEmitter, LMCConfig, LocalModelChecker, SearchBudget
from repro.core import checkpoint
from repro.obs.coverage import CoverageTracker
from repro.obs.registry import RunRegistry
from repro.online import (
    FreshIndexInjector,
    LiveRun,
    OnlineModelChecker,
    PaxosTestDriver,
    paxos_online_driver,
)
from repro.protocols.paxos import (
    BuggyPaxosProtocol,
    PaxosAgreement,
    PaxosAgreementAll,
    PaxosProtocol,
)
from repro.protocols.paxos.scenarios import partial_choice_state, scenario_protocol
from repro.reports import BugReport, CheckResult

from bench.layers import space_counters

#: name -> (full size, smoke size).  Depth bounds for the Paxos spaces, a
#: transition bound for the §5.5 snapshot (the middle of the 730..785
#: plateau: 8,448 soundness calls on either side of it), leg depths for the
#: checkpoint chain, live-run seeds for the online sessions.
SIZES: Dict[str, Tuple[Any, Any]] = {
    "paxos2_explore": (6, 4),
    "paxos2_explore_par": (6, 4),
    "paxos2_explore_obs": (6, 4),
    "paxos1_gen_enum": (4, 3),
    "paxos1_gen_reduced": (4, 3),
    "s55_soundness": (760, 520),
    "paxos2_ckpt_chain": ((4, 5), (2, 3, 4)),
    "online_paxos_ttfb": ((3, 8, 10), (6, 13)),
}

@dataclass
class Op:
    """One checker run (one live session online, one leg of the chain)."""

    name: str
    bugs: List[BugReport]
    why_failed: str = ""


@dataclass
class Outcome:
    """What one timed run produced."""

    ops: List[Op]
    #: Deterministic counters (no timers); summed over restarts online.
    counters: Dict[str, int]
    phase_seconds: Dict[str, float]
    extra: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Prepared:
    """A built workload: ``run`` is the timed region."""

    protocol: Any
    invariant: Any
    run: Callable[[], Outcome]
    #: Known-answer checks that need more work than ``run`` did (untimed).
    verify: Optional[Callable[[Outcome], None]] = None


def counters_of(result: CheckResult) -> Dict[str, int]:
    return {
        key: value
        for key, value in result.stats.snapshot().items()
        if not key.startswith("phase_")
    }


def _clean(name: str, result: CheckResult) -> Op:
    """Correct Paxos: clean, and completed to its bound."""
    ok = result.completed and not result.bugs
    why = "" if ok else (
        f"expected a clean run completed to its bound, got completed="
        f"{result.completed}, {len(result.bugs)} bugs ({result.stop_reason})"
    )
    return Op(name, list(result.bugs), why)


def _single(result: CheckResult, op: Op, **extra: Any) -> Outcome:
    return Outcome([op], counters_of(result), dict(result.stats.phase_seconds), extra)


def _paxos(seed: int, proposals: int) -> PaxosProtocol:
    chosen = (((seed + 1) % 3, 0, "v0"), ((seed + 2) % 3, 1, "v1"))
    return PaxosProtocol(num_nodes=3, proposals=chosen[:proposals])


# -- correct Paxos: exploration, enumeration ---------------------------------


def _bounded_paxos(
    name: str, seed: int, depth: int, workdir: str, proposals: int, config: LMCConfig
) -> Prepared:
    protocol, invariant = _paxos(seed, proposals), PaxosAgreement(0)
    observed: Dict[str, Any] = {}
    emitter = None
    if name == "paxos2_explore_obs":
        emitter = JsonlEmitter(os.path.join(workdir, "run.trace.jsonl"))
        observed = dict(
            emitter=emitter,
            run_handle=RunRegistry(os.path.join(workdir, "runs")).register(
                command="bench", workload=name
            ),
            coverage=CoverageTracker(),
            metrics_interval=1.0,
        )

    def run() -> Outcome:
        result = LocalModelChecker(
            protocol, invariant, SearchBudget(max_depth=depth), config, **observed
        ).run()
        extra = {}
        if emitter is not None:
            emitter.close()
            extra["trace_bytes"] = os.path.getsize(emitter.path)
        return _single(result, _clean(name, result), **extra)

    return Prepared(protocol, invariant, run)


def paxos2_explore(name: str, seed: int, size: int, workdir: str, tracer: Any) -> Prepared:
    config = LMCConfig.optimized(explore_workers=2 if name.endswith("_par") else 0)
    return _bounded_paxos(name, seed, size, workdir, 2, config)


def paxos1_gen(name: str, seed: int, size: int, workdir: str, tracer: Any) -> Prepared:
    reduced = name.endswith("_reduced")
    config = LMCConfig.general(symmetry_reduction=reduced, por_pruning=reduced)
    return _bounded_paxos(name, seed, size, workdir, 1, config)


# -- §5.5 snapshot: soundness verification -----------------------------------


def s55_soundness(name: str, seed: int, size: int, workdir: str, tracer: Any) -> Prepared:
    protocol, invariant = scenario_protocol(buggy=True), PaxosAgreement(0)
    snapshot = partial_choice_state()

    def run() -> Outcome:
        result = LocalModelChecker(
            protocol,
            invariant,
            SearchBudget(max_transitions=size),
            LMCConfig.optimized(stop_on_first_bug=False),
        ).run(snapshot)
        ok = bool(result.bugs) and result.stop_reason == "transition budget exhausted"
        why = "" if ok else (
            f"expected agreement violations within the transition bound, got "
            f"{len(result.bugs)} bugs ({result.stop_reason})"
        )
        return _single(result, Op(name, list(result.bugs), why))

    return Prepared(protocol, invariant, run)


# -- checkpoint chain ----------------------------------------------------------


def paxos2_ckpt_chain(
    name: str, seed: int, size: Tuple[int, ...], workdir: str, tracer: Any
) -> Prepared:
    protocol, invariant = _paxos(seed, 2), PaxosAgreement(0)

    def checker(depth: int, checkpointer: Optional[checkpoint.Checkpointer] = None):
        return LocalModelChecker(
            protocol,
            invariant,
            SearchBudget(max_depth=depth),
            LMCConfig.optimized(),
            checkpointer=checkpointer,
        )

    def run() -> Outcome:
        # Cold with a snapshot every round, then each deeper leg extends the
        # previous leg's final snapshot; the deepest leg feeds no one, so it
        # writes nothing.
        legs: List[CheckResult] = []
        writers: List[checkpoint.Checkpointer] = []
        for depth in size:
            writer = None
            if depth != size[-1]:
                writer = checkpoint.Checkpointer(
                    os.path.join(workdir, f"d{depth}.checkpoint.json"),
                    every_rounds=None if writers else 1,
                )
            leg = checker(depth, writer)
            # ``load_checkpoint`` is looked up at call time: the traced run
            # wraps the module attribute, not a name bound at import.
            legs.append(
                leg.extend_depth(checkpoint.load_checkpoint(writers[-1].path))
                if writers
                else leg.run()
            )
            if writer is not None:
                writers.append(writer)
        # A restored pass carries the earlier legs' counters and phase
        # timers forward, so the last leg speaks for the whole chain.
        return Outcome(
            [_clean(f"d{depth}", leg) for depth, leg in zip(size, legs)],
            counters_of(legs[-1]),
            dict(legs[-1].stats.phase_seconds),
            {"checkpoint_writes": sum(writer.writes for writer in writers)},
        )

    def verify(outcome: Outcome) -> None:
        cold = counters_of(checker(size[-1]).run())
        if space_counters(cold) != space_counters(outcome.counters):
            outcome.ops[-1].why_failed = (
                f"chained counters differ from a cold d={size[-1]} run: "
                f"{space_counters(outcome.counters)} != {space_counters(cold)}"
            )

    return Prepared(protocol, invariant, run, verify)


# -- §5.5 online loop ------------------------------------------------------------


def online_paxos_ttfb(
    name: str, seed: int, size: Tuple[int, ...], workdir: str, tracer: Any
) -> Prepared:
    protocol = BuggyPaxosProtocol(
        num_nodes=3, proposals=(), require_init=False, retransmit=True
    )
    invariant = PaxosAgreementAll()
    prefix = f"s{seed}v"
    shift = seed % len(size)
    live_seeds = size[shift:] + size[:shift]

    def run() -> Outcome:
        ops: List[Op] = []
        counters: Dict[str, int] = {}
        phases: Dict[str, float] = {}
        restart_ms: List[float] = []
        detection_sim_s = 0.0
        for live_seed in live_seeds:
            live = LiveRun(
                protocol,
                paxos_online_driver(max_sleep=60.0),
                seed=live_seed,
                drop_probability=0.3,
            )
            driver = PaxosTestDriver(prefix)

            def restart(snapshot: Any) -> CheckResult:
                result = LocalModelChecker(
                    protocol,
                    invariant,
                    SearchBudget(max_transitions=300),
                    LMCConfig.optimized(),
                ).run(driver.drive(snapshot))
                for key, value in counters_of(result).items():
                    counters[key] = counters.get(key, 0) + value
                for phase, seconds in result.stats.phase_seconds.items():
                    phases[phase] = phases.get(phase, 0.0) + seconds
                return result

            if tracer is not None:
                restart = tracer.wrap("online", "checker_factory", restart)
            session = OnlineModelChecker(
                live,
                restart,
                check_interval=60.0,
                interval_hook=FreshIndexInjector(prefix),
            ).run(max_sim_seconds=3600.0)
            restart_ms.extend(1000.0 * r.wall_seconds for r in session.history)
            detection_sim_s += session.detection_sim_time or 0.0
            ops.append(
                Op(
                    f"live{live_seed}",
                    [session.bug] if session.bug is not None else [],
                    "" if session.found_bug else (
                        f"no bug within 3600 simulated seconds "
                        f"({session.restarts} restarts)"
                    ),
                )
            )
        counters["restarts"] = len(restart_ms)
        return Outcome(
            ops,
            counters,
            phases,
            {"restart_ms": restart_ms, "detection_sim_s": detection_sim_s},
        )

    return Prepared(protocol, invariant, run)


BUILDERS: Dict[str, Callable[..., Prepared]] = {
    "paxos2_explore": paxos2_explore,
    "paxos2_explore_par": paxos2_explore,
    "paxos2_explore_obs": paxos2_explore,
    "paxos1_gen_enum": paxos1_gen,
    "paxos1_gen_reduced": paxos1_gen,
    "s55_soundness": s55_soundness,
    "paxos2_ckpt_chain": paxos2_ckpt_chain,
    "online_paxos_ttfb": online_paxos_ttfb,
}


def build(name: str, seed: int, smoke: bool, workdir: str, tracer: Any) -> Prepared:
    return BUILDERS[name](name, seed, SIZES[name][smoke], workdir, tracer)
