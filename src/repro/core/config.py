"""Configuration of the local model checker.

The §4.2 pragmatics the paper leaves open are explicit here, so each can
be exercised, tested and ablated individually:

* the duplicate-message limit ("This limit is set to zero for the results
  reported in this paper");
* the starting local-event bound ("in each round we put a bound on the
  number of local events that each node can execute");
* phase toggles used by the Fig. 13 overhead decomposition (disable system
  state creation / disable soundness verification);
* the optional re-verification of cached rejected violations when new
  predecessor pointers appear — the completeness patch §4.2 sketches
  ("we could cache the system states in which an invariant is violated and
  reverify them after the changes into LS that affect them") which the
  paper's prototype leaves out but this library implements.

What the paper fixes is not a knob: a failing local assertion discards
the node state the handler ran on, and "after finishing the round, the
bounds are increased and the model checking is started from scratch" —
by one (both in :mod:`repro.core.checker`).  Nor are the bounds on one
soundness call — sequences per node, combinations per call, cached replay
verdicts: no caller ever turned them, so they are the constants
``MAX_SEQUENCES_PER_NODE``, ``MAX_COMBINATIONS_PER_CHECK`` and
``REPLAY_CACHE_LIMIT`` of :mod:`repro.core.soundness`.

Each knob is declared once, here: a field made with
:func:`~repro.knobs.knob` carries its smallest legal value, which
:meth:`LMCConfig.__post_init__` checks, and, when the command line sets it,
its flag and help text, from which :mod:`repro.cli` derives the flag.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.knobs import check_minimums, knob


@dataclass(frozen=True)
class LMCConfig:
    """Knobs of :class:`~repro.core.checker.LocalModelChecker`."""

    #: Starting bound on local (internal) events per node along any discovery
    #: path; ``None`` disables the bound (single un-widened run).  A bounded
    #: pass that saturates without exhausting the budget restarts from
    #: scratch with the bound one higher.
    local_event_bound: Optional[int] = knob(None, minimum=0)

    #: Use the invariant's decomposition to create only system states whose
    #: local projections can conflict (LMC-OPT, §4.2).  Requires the invariant
    #: to be a :class:`~repro.invariants.base.DecomposableInvariant`; ignored
    #: otherwise.
    invariant_specific_creation: bool = False

    #: Fig. 13 phase toggle: materialise system states and check invariants.
    #: Disabled gives the "LMC-explore" configuration.
    create_system_states: bool = True

    #: Fig. 13 phase toggle: verify preliminary violations.  Disabled gives
    #: the "LMC-system-state" configuration: violations are counted but never
    #: confirmed or reported.  Enabled, each violation is verified inline,
    #: where it is found.
    verify_soundness: bool = True

    #: Extension beyond the paper's prototype: cache preliminary violations
    #: whose soundness check failed and re-verify them when a new predecessor
    #: pointer is added to any node state they contain.  Restores the
    #: completeness the prototype trades away (§4.2 "Implementation
    #: details"); off by default to match the paper.
    reverify_rejected: bool = False

    #: Stop the whole run at the first confirmed bug.
    stop_on_first_bug: bool = True

    #: Memoize soundness machinery: per-record sequence enumerations (keyed
    #: on the store version, so new states or predecessor pointers
    #: invalidate exactly) and replay verdicts (keyed on the event hashes of
    #: the combination, which determine the replay outcome).  Semantics are
    #: unchanged — §5.4 counters (``soundness_calls``/``soundness_sequences``)
    #: count cached combinations exactly as uncached ones.
    memoize_soundness: bool = True

    #: Workers for parallel frontier exploration (docs/PERFORMANCE.md),
    #: the coordinator included: each round, the per-node frontier of
    #: pending deliveries, internal actions and fault steps is split into
    #: one shard per worker; the coordinator works the first shard itself
    #: and children forked for the round precompute the others' handler
    #: results and content hashes, which the coordinator adopts as its
    #: exact serial sweep reaches them, so counters, verdicts and witnesses
    #: are byte-identical to the serial checker.  ``0`` (the default) and
    #: ``1`` keep exploration fully in-process; ``None`` uses
    #: ``os.cpu_count()``.  A count of 2 or more needs ``os.fork`` (checked
    #: when the checker is built).  Which rounds go parallel, and in how
    #: many shards, is fixed by :mod:`repro.core.explore_parallel`'s
    #: ``ROUND_THRESHOLD``/``SHARD_MIN``.
    explore_workers: Optional[int] = knob(
        0, minimum=0, flag="--explore-workers",
        help="shard each exploration round's frontier across N workers: this process and N-1 "
        "forked children (LMC algorithms only; 0 or 1 explores serially, -1 uses all CPUs; results "
        "are identical either way — see docs/PERFORMANCE.md)",
    )

    #: Explore crash/restart fault schedules (docs/FAULTS.md): the checker
    #: additionally mints a :class:`~repro.model.events.CrashEvent` for every
    #: eligible visited node state and a
    #: :class:`~repro.model.events.RestartEvent` for every crashed one.  Off
    #: by default — the paper's event vocabulary, and byte-identical counters,
    #: verdicts and witnesses to a build without the fault scheduler.
    fault_events_enabled: bool = knob(
        False, flag="--faults",
        help="explore crash/restart fault schedules (LMC algorithms only; see docs/FAULTS.md)",
    )

    #: Maximum crashes along any single node's discovery path (the per-record
    #: crash count, mirroring how ``local_depth`` bounds local events).  Only
    #: consulted when ``fault_events_enabled``.
    max_crashes_per_node: int = knob(
        1, minimum=0, flag="--max-crashes-per-node",
        help="crashes allowed on any single node's discovery path (default %(default)s; consulted "
        "only with --faults)",
    )

    #: Global cap on crash events executed across the whole run; ``None``
    #: leaves only the per-node bound.  Only consulted when
    #: ``fault_events_enabled``.
    max_total_crashes: Optional[int] = knob(
        None, minimum=0, flag="--max-total-crashes",
        help="global cap on crash events across the run (default: only the per-node bound; "
        "consulted only with --faults)",
    )

    #: Explore message-drop fault schedules (docs/FAULTS.md): the checker
    #: additionally mints a :class:`~repro.model.events.DropEvent` for every
    #: undelivered stored copy whose destination protocol declares a
    #: ``handle_drop`` hook, consuming the copy (it becomes never-deliverable
    #: along that branch).  Off by default and byte-identical-off.
    drop_faults: bool = knob(
        False, flag="--drop-faults",
        help="explore message-loss schedules against protocols that declare a handle_drop omission "
        "hook (LMC algorithms only; see docs/FAULTS.md)",
    )

    #: Global cap on drop events executed across the whole run; ``None``
    #: leaves drops bounded only by the finite message space.  Only
    #: consulted when ``drop_faults``.
    max_drops: Optional[int] = knob(
        None, minimum=0, flag="--max-drops",
        help="global cap on effective drop events across the run (default: unbounded; consulted "
        "only with --drop-faults)",
    )

    #: Explore message-duplication fault schedules (docs/FAULTS.md): the
    #: checker re-admits each generated message once through the network's
    #: ``duplicate_limit`` path and redelivers the fault-minted copy via a
    #: :class:`~repro.model.events.DuplicateEvent`.  Requires
    #: ``duplicate_limit >= 1`` (the admission budget).  Off by default and
    #: byte-identical-off.
    duplicate_faults: bool = knob(
        False, flag="--duplicate-faults",
        help="explore at-least-once redelivery of every sent message (LMC algorithms only; needs "
        "--duplicate-limit 1 or more; see docs/FAULTS.md)",
    )

    #: Extra copies of an identical message admitted into ``I+`` (§4.2).
    duplicate_limit: int = knob(
        0, minimum=0, flag="--duplicate-limit",
        help="extra copies of one message value the monotonic network admits (default %(default)s; "
        "raise alongside --duplicate-faults to deepen redelivery exploration)",
    )

    #: Timed network-partition schedules (docs/FAULTS.md): each entry is a
    #: ``(start_round, end_round, srcs, dests)`` tuple blocking delivery of
    #: messages from any node in ``srcs`` to any node in ``dests`` while the
    #: checker's round number lies in ``[start_round, end_round]``
    #: (``end_round=None`` = permanent).  Blocked deliveries are counted as
    #: ``partition_blocks`` and retried once the window closes.  Empty (the
    #: default) is byte-identical to a build without partition support.
    partition_schedules: tuple = knob(
        (), flag="--partition",
        help="block deliveries from SRCS to DESTS during rounds START..END (END empty or '-' means "
        "forever; repeatable; see docs/FAULTS.md)",
    )

    #: Symmetry reduction (docs/REDUCTION.md): canonicalise system-state
    #: combinations to orbit representatives under the protocol-declared
    #: node-symmetry group (the optional ``symmetry_classes()`` hook) before
    #: invariant checking, so permutations of interchangeable nodes are
    #: checked once.  Requires a π-invariant system invariant; preserves
    #: verdicts (same bugs, a canonical witness) and reduces
    #: ``system_states_created``.  Off by default — and byte-identical-off:
    #: with the knob off no reducer object exists and every counter, verdict
    #: and witness matches a build without the feature.
    symmetry_reduction: bool = knob(
        False, flag="--symmetry-reduction",
        help="canonicalise system-state combinations to orbit representatives under the "
        "protocol-declared node-symmetry group (LMC algorithms only; a scenario restricts the "
        "group to its snapshot's stabilizer; see docs/REDUCTION.md)",
    )

    #: Commutativity-based pruning (docs/REDUCTION.md): suppress the
    #: non-canonical predecessor pointer of a same-node delivery-order
    #: diamond when the two deliveries provably commute (neither message was
    #: generated by the other's execution).  Thins the predecessor DAG the
    #: soundness verifier enumerates — fewer ``soundness_sequences`` — at
    #: the cost of a documented conservatism (a suppressed ordering can, in
    #: principle, hide the only valid witness of a combination; never a
    #: false positive).  Off by default and byte-identical-off.
    por_pruning: bool = knob(
        False, flag="--por",
        help="prune non-canonical orderings of commuting deliveries from the predecessor DAG (LMC "
        "algorithms only; see docs/REDUCTION.md)",
    )

    #: Selects LMC-OPT's partner scan only: one conflict question per
    #: projection group of the pass's summary index (True), or one per
    #: active record (False) — the record-by-record scan is the reference
    #: the grouped one is tested against.  Enumeration order (and therefore
    #: every count and witness) is the same either way.
    incremental_enumeration: bool = True

    def __post_init__(self) -> None:
        check_minimums(self)
        if self.duplicate_faults and self.duplicate_limit < 1:
            raise ValueError(
                "duplicate_faults requires duplicate_limit >= 1 "
                "(the admission budget for fault-minted copies)"
            )
        for entry in self.partition_schedules:
            if not (isinstance(entry, tuple) and len(entry) == 4):
                raise ValueError(
                    "partition_schedules entries must be "
                    "(start_round, end_round, srcs, dests) tuples"
                )
            start, end, srcs, dests = entry
            if not (isinstance(start, int) and start >= 1):
                raise ValueError("partition_schedules start_round must be an int >= 1")
            if end is not None and not (isinstance(end, int) and end >= start):
                raise ValueError(
                    "partition_schedules end_round must be None or an int >= start_round"
                )
            for side, name in ((srcs, "srcs"), (dests, "dests")):
                if not (
                    isinstance(side, tuple)
                    and side
                    and all(isinstance(node, int) for node in side)
                ):
                    raise ValueError(
                        f"partition_schedules {name} must be a non-empty tuple of node ids"
                    )

    @classmethod
    def general(cls, **overrides: object) -> "LMCConfig":
        """The LMC-GEN configuration of §5: no invariant-specific creation."""
        return cls(invariant_specific_creation=False, **overrides)  # type: ignore[arg-type]

    @classmethod
    def optimized(cls, **overrides: object) -> "LMCConfig":
        """The LMC-OPT configuration of §5: invariant-specific creation on."""
        return cls(invariant_specific_creation=True, **overrides)  # type: ignore[arg-type]
