"""Configuration of the local model checker.

Every pragmatic knob the paper describes in §4.2 is explicit here, so each
can be exercised, tested and ablated individually:

* the duplicate-message limit ("This limit is set to zero for the results
  reported in this paper");
* the per-round local-event bound with iterative widening ("in each round we
  put a bound on the number of local events that each node can execute;
  after finishing the round, the bounds are increased and the model checking
  is started from scratch");
* the local-assertion policy (discard the node state vs. ignore);
* phase toggles used by the Fig. 13 overhead decomposition (disable system
  state creation / disable soundness verification);
* the optional re-verification of cached rejected violations when new
  predecessor pointers appear — the completeness patch §4.2 sketches
  ("we could cache the system states in which an invariant is violated and
  reverify them after the changes into LS that affect them") which the
  paper's prototype leaves out but this library implements.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class LMCConfig:
    """Knobs of :class:`~repro.core.checker.LocalModelChecker`."""

    #: Extra copies of an identical message admitted into ``I+`` (§4.2).
    duplicate_limit: int = 0

    #: Starting bound on local (internal) events per node along any discovery
    #: path; ``None`` disables the bound (single un-widened run).
    local_event_bound: Optional[int] = None

    #: When a local-event bound is set and the bounded run saturates without
    #: exhausting the budget, widen the bound by this factor (≥ 1 adds, the
    #: paper just says "increased") and restart from scratch.  0 disables
    #: widening.
    widen_increment: int = 1

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

    #: Local assertion policy (§4.2): "discard" drops the node state that the
    #: failing handler would have produced (the paper's choice — assertions in
    #: the tested code mostly flag unexpected messages, i.e. invalid states
    #: minted by LMC's conservative delivery); "ignore" keeps exploring as if
    #: the handler were a no-op.
    assertion_policy: str = "discard"

    #: Upper bound on event sequences enumerated per node during one
    #: soundness verification; prevents the §5.2 exponential path blow-up
    #: from hanging a single call.  ``None`` removes the cap.
    max_sequences_per_node: Optional[int] = 256

    #: Upper bound on sequence *combinations* tried per soundness call.
    max_combinations_per_check: Optional[int] = 8192

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

    #: LRU bound on cached replay verdicts; ``None`` removes the bound.
    replay_cache_limit: Optional[int] = 4096

    #: Explore crash/restart fault schedules (docs/FAULTS.md): the checker
    #: additionally mints a :class:`~repro.model.events.CrashEvent` for every
    #: eligible visited node state and a
    #: :class:`~repro.model.events.RestartEvent` for every crashed one.  Off
    #: by default — the paper's event vocabulary, and byte-identical counters,
    #: verdicts and witnesses to a build without the fault scheduler.
    fault_events_enabled: bool = False

    #: Maximum crashes along any single node's discovery path (the per-record
    #: crash count, mirroring how ``local_depth`` bounds local events).  Only
    #: consulted when ``fault_events_enabled``.
    max_crashes_per_node: int = 1

    #: Global cap on crash events executed across the whole run; ``None``
    #: leaves only the per-node bound.  Only consulted when
    #: ``fault_events_enabled``.
    max_total_crashes: Optional[int] = None

    #: Explore message-drop fault schedules (docs/FAULTS.md): the checker
    #: additionally mints a :class:`~repro.model.events.DropEvent` for every
    #: undelivered stored copy whose destination protocol declares a
    #: ``handle_drop`` hook, consuming the copy (it becomes never-deliverable
    #: along that branch).  Off by default and byte-identical-off.
    drop_faults: bool = False

    #: Global cap on drop events executed across the whole run; ``None``
    #: leaves drops bounded only by the finite message space.  Only
    #: consulted when ``drop_faults``.
    max_drops: Optional[int] = None

    #: Explore message-duplication fault schedules (docs/FAULTS.md): the
    #: checker re-admits each generated message once through the network's
    #: ``duplicate_limit`` path and redelivers the fault-minted copy via a
    #: :class:`~repro.model.events.DuplicateEvent`.  Requires
    #: ``duplicate_limit >= 1`` (the admission budget).  Off by default and
    #: byte-identical-off.
    duplicate_faults: bool = False

    #: Timed network-partition schedules (docs/FAULTS.md): each entry is a
    #: ``(start_round, end_round, srcs, dests)`` tuple blocking delivery of
    #: messages from any node in ``srcs`` to any node in ``dests`` while the
    #: checker's round number lies in ``[start_round, end_round]``
    #: (``end_round=None`` = permanent).  Blocked deliveries are counted as
    #: ``partition_blocks`` and retried once the window closes.  Empty (the
    #: default) is byte-identical to a build without partition support.
    partition_schedules: tuple = ()

    #: Worker processes for parallel frontier exploration
    #: (docs/PERFORMANCE.md): each round, the per-node frontier of pending
    #: deliveries, internal actions and fault steps is sharded across
    #: children forked for the round, which precompute handler results and
    #: content hashes; the coordinator then replays the exact serial sweep
    #: adopting those results, so counters, verdicts and witnesses are
    #: byte-identical to the serial checker.  ``0`` (the default) keeps
    #: exploration fully in-process; ``None`` uses ``os.cpu_count()``.  A
    #: count above 0 needs ``os.fork`` (checked when the checker is built).  Which rounds go
    #: parallel, and in how many shards, is fixed by
    #: :mod:`repro.core.explore_parallel`'s ``ROUND_THRESHOLD``/``SHARD_MIN``.
    explore_workers: Optional[int] = 0

    #: Symmetry reduction (docs/REDUCTION.md): canonicalise system-state
    #: combinations to orbit representatives under the protocol-declared
    #: node-symmetry group (the optional ``symmetry_classes()`` hook) before
    #: invariant checking, so permutations of interchangeable nodes are
    #: checked once.  Requires a π-invariant system invariant; preserves
    #: verdicts (same bugs, a canonical witness) and reduces
    #: ``system_states_created``.  Off by default — and byte-identical-off:
    #: with the knob off no reducer object exists and every counter, verdict
    #: and witness matches a build without the feature.
    symmetry_reduction: bool = False

    #: Commutativity-based pruning (docs/REDUCTION.md): suppress the
    #: non-canonical predecessor pointer of a same-node delivery-order
    #: diamond when the two deliveries provably commute (neither message was
    #: generated by the other's execution).  Thins the predecessor DAG the
    #: soundness verifier enumerates — fewer ``soundness_sequences`` — at
    #: the cost of a documented conservatism (a suppressed ordering can, in
    #: principle, hide the only valid witness of a combination; never a
    #: false positive).  Off by default and byte-identical-off.
    por_pruning: bool = False

    #: Reuse incremental per-node structures during system-state creation:
    #: cached active-record lists and — for pairwise LMC-OPT — a per-node
    #: index of records with non-``None`` projections, so each anchored
    #: enumeration stops rescanning every visited state.  Enumeration order
    #: (and therefore every count and witness) is unchanged.
    incremental_enumeration: bool = True

    def __post_init__(self) -> None:
        if self.duplicate_limit < 0:
            raise ValueError("duplicate_limit must be >= 0")
        if self.local_event_bound is not None and self.local_event_bound < 0:
            raise ValueError("local_event_bound must be >= 0")
        if self.widen_increment < 0:
            raise ValueError("widen_increment must be >= 0")
        if self.assertion_policy not in ("discard", "ignore"):
            raise ValueError(
                f"assertion_policy must be 'discard' or 'ignore', "
                f"got {self.assertion_policy!r}"
            )
        for name in (
            "max_sequences_per_node",
            "max_combinations_per_check",
            "replay_cache_limit",
        ):
            value = getattr(self, name)
            if value is not None and value <= 0:
                raise ValueError(f"{name} must be positive or None")
        if self.explore_workers is not None and self.explore_workers < 0:
            raise ValueError("explore_workers must be >= 0 or None")
        if self.max_crashes_per_node < 0:
            raise ValueError("max_crashes_per_node must be >= 0")
        if self.max_total_crashes is not None and self.max_total_crashes < 0:
            raise ValueError("max_total_crashes must be >= 0 or None")
        if self.max_drops is not None and self.max_drops < 0:
            raise ValueError("max_drops must be >= 0 or None")
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
                raise ValueError("partition start_round must be an int >= 1")
            if end is not None and not (isinstance(end, int) and end >= start):
                raise ValueError(
                    "partition end_round must be None or an int >= start_round"
                )
            for side, name in ((srcs, "srcs"), (dests, "dests")):
                if not (
                    isinstance(side, tuple)
                    and side
                    and all(isinstance(node, int) for node in side)
                ):
                    raise ValueError(
                        f"partition {name} must be a non-empty tuple of node ids"
                    )

    @classmethod
    def general(cls, **overrides: object) -> "LMCConfig":
        """The LMC-GEN configuration of §5: no invariant-specific creation."""
        return cls(invariant_specific_creation=False, **overrides)  # type: ignore[arg-type]

    @classmethod
    def optimized(cls, **overrides: object) -> "LMCConfig":
        """The LMC-OPT configuration of §5: invariant-specific creation on."""
        return cls(invariant_specific_creation=True, **overrides)  # type: ignore[arg-type]
