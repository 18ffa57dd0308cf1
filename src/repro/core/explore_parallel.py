"""Parallel frontier exploration: speculate each LMC round in forked children.

The paper's monotonic-network framing makes per-node expansion independent:
given a snapshot of ``I+``, executing a pending delivery, internal action or
fault step on one node state touches nothing another node's execution reads
— messages only accumulate and the ``LS_n`` sets only grow.  This module
exploits that independence **speculatively**:

1. At the top of each round, the coordinator snapshots the round's frontier
   — every ``(record, stored message)`` delivery pair the per-message
   cursors will sweep, every record the local-event cursor will offer its
   internal actions, and (with faults on) every crash/restart candidate —
   and splits it into one shard per worker, the coordinator included.
2. It keeps the first shard, the sweep-order prefix, and forks one child
   per other shard (:func:`repro.core.pool.fork`) without waiting for them.
   A child inherits the coordinator's memory copy-on-write — records,
   ``I+``, the protocol, the warm hash interner — and runs the execution
   kernel (:func:`repro.core.event_kinds.execute`), the very function the
   coordinator's executor runs, on each of its items.  Per item it pipes
   back integers only: the outcome tag, the successor's hash, the event
   hash and each send's hash.  Objects go with them only
   where the coordinator may need them: a successor state whose hash was
   not in the node's store at round start, and a send whose copy count was
   still below ``1 + duplicate_limit`` then.
3. The coordinator meanwhile replays the *exact serial sweep*.  It runs its
   own shard's items through the kernel inline, collects (and reaps) a
   child the first time the sweep meets one of that child's items, adopts
   a child's outcome wherever the table has one, and runs the kernel
   inline on a miss (intra-round cascades: messages and records minted
   mid-round are invisible to the round-start snapshot).  A child the
   sweep never reached is collected at round end; every exit from the pass
   kills and reaps the rest.

Because the merge **is** the serial order, every counter, verdict, witness
trace and dedup decision is byte-identical to the serial checker by
construction — speculation only moves pure-function work (handlers are
functions of immutable values; content hashing is deterministic) onto other
cores.  Frontier results the replay re-discovers through a different path
are dropped; those rediscoveries, folded into predecessor pointers, are
surfaced as ``explore_merge_conflicts_suppressed`` whichever process
computed them.

Failure containment: any child failure — a non-zero exit, a signal, a short
or undecodable result — kills the round's other children, runs the rest of
the round inline, leaves the round out of the ``explore_*`` counters and
turns speculation off for the rest of the pass, with one
``parallel_fallback`` trace event carrying the exit status.  Results are
unchanged either way.
"""

from __future__ import annotations

import time
from functools import partial
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.event_kinds import (
    ASSERT,
    NOOP,
    EventKind,
    Transition,
    event_of,
    execute,
)
from repro.core.pool import ChildFailed, collect, fork, resolve_workers, shutdown_worker_pool
from repro.model.hashing import canonical

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checker imports us)
    from repro.core.checker import _ExplorationPass
    from repro.core.records import NodeStateRecord

#: Rounds with fewer frontier items than this run entirely serially — early
#: rounds are tiny (a handful of seeds and their first messages) and pay
#: fork latency without amortizing it.
ROUND_THRESHOLD = 128

#: Minimum frontier items per shard: below this, fewer (larger) shards are
#: used so dispatch overhead never exceeds the work shipped.
SHARD_MIN = 64


#: What :meth:`RoundSpeculator.lookup` answers for an item of the
#: coordinator's own shard: run the kernel inline and mark the result as
#: speculated.
INLINE = "s"


class RoundSpeculator:
    """Per-pass coordinator: snapshot, fork, and serve the round table.

    Owned by one :class:`~repro.core.checker._ExplorationPass`; the pass
    calls :meth:`begin_round` at the top of every round, consults
    :meth:`lookup` from inside the (otherwise unchanged) serial sweep, calls
    :meth:`end_round` once the sweep is done and :meth:`abort` on every
    exit from the pass.  A ``None`` answer means "run the kernel inline";
    anything else goes through :meth:`adopt`.
    """

    def __init__(self, pass_: "_ExplorationPass", workers: int):
        self._pass = pass_
        self.workers = workers
        #: Cleared after a failed round: the rest of the pass runs serially
        #: (results unchanged — only speed).
        self.enabled = True
        #: Item key → :data:`INLINE`, the pid of the child computing it, or
        #: a collected child's packed outcome.  ``None`` outside a
        #: speculated round.
        self._table: Optional[Dict[Tuple, Any]] = None
        #: The round's uncollected children: pid → (shard number, keys).
        self._pending: Dict[int, Tuple[int, List[Tuple]]] = {}
        #: The round's shipped successor states and send messages, by hash.
        self._states: Dict[int, Any] = {}
        self._messages: Dict[int, Any] = {}
        self._round_no = 0
        #: The live round's ``parallel_round`` fields, and the merge-conflict
        #: count it started from (restored if a child fails).
        self._round: Dict[str, Any] = {}
        self._conflicts_before = 0

    @classmethod
    def for_pass(cls, pass_: "_ExplorationPass") -> Optional["RoundSpeculator"]:
        """A speculator when the config asks for more than one worker (the
        coordinator counts as one), else ``None``."""
        workers = resolve_workers(pass_.config.explore_workers)
        return cls(pass_, workers) if workers > 1 else None

    # -- round lifecycle ---------------------------------------------------

    def begin_round(self) -> None:
        """Snapshot this round's frontier, keep its first shard and fork one
        child per other shard; returns without waiting for them.

        Small rounds (below :data:`ROUND_THRESHOLD` items) fork nothing; a
        failed fork leaves the round to the inline kernel — in every case
        the subsequent sweep produces byte-identical results.
        """
        p = self._pass
        self._table = None
        self._states = {}
        self._messages = {}
        if not self.enabled:
            return
        started = time.perf_counter()
        items = self._snapshot()
        if len(items) < ROUND_THRESHOLD:
            return
        shard_size = max(SHARD_MIN, -(-len(items) // self.workers))
        shards = [
            items[start : start + shard_size]
            for start in range(0, len(items), shard_size)
        ]
        key = self._key
        table = dict.fromkeys([key(*item) for item in shards[0]], INLINE)
        try:
            for number, shard in enumerate(shards[1:], 1):
                pid = fork(partial(self._speculate, shard))
                keys = [key(*item) for item in shard]
                self._pending[pid] = (number, keys)
                table.update(dict.fromkeys(keys, pid))
        except OSError as failure:
            self._fall_back(failure)
            return
        self._table = table
        self._round_no += 1
        p.stats.explore_rounds_parallel += 1
        p.stats.explore_shards += len(shards)
        self._conflicts_before = p.stats.explore_merge_conflicts_suppressed
        self._round = dict(
            number=self._round_no, items=len(items), inline_items=len(shards[0]),
            shards=len(shards), workers=self.workers, wait_s=0.0, killed=0,
            dispatch_s=round(time.perf_counter() - started, 6),
        )

    def end_round(self) -> None:
        """Collect every child the sweep did not reach, then trace the round."""
        while self._pending:
            self._collect(next(iter(self._pending)))
        emitter = self._pass.emitter
        if self._table is not None and emitter.enabled:
            self._round["wait_s"] = round(self._round["wait_s"], 6)
            emitter.event("parallel_round", **self._round)
        self._table = None

    def abort(self) -> None:
        """The pass stops (a bug, a budget, an interrupt, an exception, a
        failed child): kill and reap every child still running.  A round
        cut this way still emits its ``parallel_round``, whose ``killed``
        counts the children it never collected (they have no
        ``worker_explore`` span)."""
        if self._table is not None:
            self._round["killed"] = len(self._pending)
        shutdown_worker_pool()
        self._pending.clear()
        self.end_round()

    def _collect(self, pid: int) -> None:
        """Wait for child ``pid`` and file its outcomes in the round table."""
        number, keys = self._pending.pop(pid)
        started = time.perf_counter()
        try:
            (outcomes, states, messages), wall_s = collect(pid)
        except ChildFailed as failure:
            self._fall_back(failure)
            return
        self._round["wait_s"] += time.perf_counter() - started
        self._states.update(states)
        self._messages.update(messages)
        self._table.update(zip(keys, outcomes))
        if self._pass.emitter.enabled:
            fields = {"shard": number, "items": len(keys)}
            self._pass.emitter.emit_span("worker_explore", wall_s, fields=fields, pid=pid)

    def _fall_back(self, failure: Exception) -> None:
        """A child failed, or could not be forked: kill the round's others,
        leave the round out of the ``explore_*`` counters, and run the rest
        of the pass inline."""
        p = self._pass
        self.enabled = False
        if self._table is not None:
            self._table = None
            p.stats.explore_rounds_parallel -= 1
            p.stats.explore_shards -= self._round["shards"]
            p.stats.explore_merge_conflicts_suppressed = self._conflicts_before
        self.abort()
        if p.emitter.enabled:
            status = getattr(failure, "status", None)
            p.emitter.event(
                "parallel_fallback", round=p.round_number, status=status, reason=str(failure)
            )

    def _speculate(self, shard: List[Tuple]) -> Tuple[List[Any], Dict, Dict]:
        """A child's whole job: the kernel on every item of ``shard``.

        Returns the packed outcome per item — for a fan-out item, a tuple of
        them over the record's ``enabled_actions`` — and the successor
        states and messages the coordinator may need, by hash.
        """
        p = self._pass
        protocol = p.protocol
        admits = p.network.admits
        states: Dict[int, Any] = {}
        messages: Dict[int, Any] = {}

        def pack(outcome: Any, store: Any) -> Any:
            if outcome is ASSERT or outcome is NOOP:
                return outcome
            state_hash = outcome.state_hash
            if state_hash not in states and store.lookup(state_hash) is None:
                states[state_hash] = outcome.state
            for message, msg_hash in zip(outcome.sends, outcome.send_hashes):
                if msg_hash not in messages and admits(msg_hash):
                    messages[msg_hash] = message
            return (state_hash, outcome.event_hash, outcome.send_hashes)

        outcomes: List[Any] = []
        for row, record, subject in shard:
            store = p.space.store(record.node)
            if row.fan_out:
                outcomes.append(
                    tuple(
                        pack(execute(protocol, row, record, action), store)
                        for action in protocol.enabled_actions(record.state)
                    )
                )
            else:
                outcomes.append(pack(execute(protocol, row, record, subject), store))
        return outcomes, states, messages

    # -- frontier snapshot -------------------------------------------------

    def _snapshot(self) -> List[Tuple]:
        """The round-start frontier: ``(row, record, subject)`` per offer.

        Peeks every active sweep's cursor range through the sweep's own
        gate and keeps the offers whose family is speculated.  Gates are
        pure and cursors are *not* advanced — the serial sweep owns them
        and re-evaluates every gate in serial order anyway (``discarded``
        and the crash cap can flip mid-round), so over- or under-shipping
        here affects only how much speculative work the children get, never
        the results.  Partition holds and depth-extension re-offers are not
        anticipated for the same reason.
        """
        p = self._pass
        items: List[Tuple] = []
        for sweep in p.sweeps:
            gate = sweep.gate
            for cursor, store, subject in sweep.lanes(p):
                records = store.records
                for index in range(cursor.cursor, len(records)):
                    row = gate(p, records[index], subject)
                    if row.__class__ is EventKind and row.speculated:
                        items.append((row, records[index], subject))
        return items

    @staticmethod
    def _key(row: EventKind, record: "NodeStateRecord", subject: Any) -> Tuple:
        return (
            row.tag,
            record.node,
            record.index,
            subject.seq if row.on_message else None,
        )

    def lookup(
        self, row: EventKind, record: "NodeStateRecord", subject: Any
    ) -> Optional[Any]:
        """How to run offering ``row`` to ``record``: ``None`` (inline, as
        serial), :data:`INLINE` (inline, an item of the coordinator's own
        shard) or a child's packed outcome — for a fan-out row, one per
        enabled action.  The first lookup of a child's item collects it."""
        table = self._table
        if table is None:
            return None
        packed = table.get(self._key(row, record, subject))
        if packed.__class__ is int:
            self._collect(packed)
            return self.lookup(row, record, subject)
        return packed

    def adopt(
        self, row: EventKind, record: "NodeStateRecord", subject: Any, packed: Any
    ) -> Any:
        """``packed`` as the kernel would have returned it inline:
        :data:`ASSERT`, :data:`NOOP` or a speculated :class:`Transition`."""
        if packed == INLINE:
            outcome = execute(self._pass.protocol, row, record, subject)
            if outcome.__class__ is Transition:
                outcome.speculated = True
            return outcome
        if packed == ASSERT:
            return ASSERT
        if packed == NOOP:
            return NOOP
        state_hash, ehash, send_hashes = packed
        # A shipped value arrives as a fresh copy: keep the interner's
        # canonical object instead, as the inline kernel does.  The merge
        # reads a state only when it is new to the store and a message only
        # when ``I+`` still admits its hash, so only those are looked up.
        state = self._states.get(state_hash)
        store = self._pass.space.store(record.node)
        if state is not None and store.lookup(state_hash) is None:
            state = canonical(state)
        admits = self._pass.network.admits
        sends = []
        for msg_hash in send_hashes:
            message = self._messages.get(msg_hash)
            if message is not None and admits(msg_hash):
                message = canonical(message)
            sends.append(message)
        return Transition(
            event_of(row, record, subject)[0],
            ehash,
            state,
            state_hash,
            tuple(sends),
            send_hashes,
            speculated=True,
        )
