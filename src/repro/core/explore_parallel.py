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
   and splits it into shards.
2. It forks one child per shard (:func:`repro.core.pool.fork_map`).  A
   child inherits the coordinator's memory copy-on-write — records, ``I+``,
   the protocol, the warm hash interner — and runs the execution kernel
   (:func:`repro.core.event_kinds.execute`), the very function the
   coordinator's executor runs, on each of its items.  Per item it pipes
   back integers only: the outcome tag, the successor's hash and size, the
   event hash and each send's ``(hash, size)``.  Objects go with them only
   where the coordinator may need them: a successor state whose hash was
   not in the node's store at round start, and a send whose copy count was
   still below ``1 + duplicate_limit`` then.
3. The coordinator then replays the *exact serial sweep*, adopting a
   child's outcome wherever the table has one and running the kernel
   inline on a miss (intra-round cascades: messages and records minted
   mid-round are invisible to the round-start snapshot).

Because the merge **is** the serial order, every counter, verdict, witness
trace and dedup decision is byte-identical to the serial checker by
construction — speculation only moves pure-function work (handlers are
functions of immutable values; content hashing is deterministic) onto other
cores.  Child results the replay re-discovers through a different path are
dropped; cross-shard rediscoveries the merge folds into predecessor
pointers are surfaced as ``explore_merge_conflicts_suppressed``.

Failure containment: any child failure — a non-zero exit, a signal, a short
or undecodable result — runs that round inline and turns speculation off
for the rest of the pass, with one ``parallel_fallback`` trace event
carrying the exit status.  Results are unchanged either way.
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
from repro.core.pool import ChildFailed, fork_map, resolve_workers

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


class RoundSpeculator:
    """Per-pass coordinator: snapshot, fork, and serve the round table.

    Owned by one :class:`~repro.core.checker._ExplorationPass`; the pass
    calls :meth:`begin_round` at the top of every round and then consults
    :meth:`lookup` from inside the (otherwise unchanged) serial sweep.  A
    ``None`` answer means "run the kernel inline"; anything else goes
    through :meth:`adopt`.
    """

    def __init__(self, pass_: "_ExplorationPass", workers: int):
        self._pass = pass_
        self.workers = workers
        #: Cleared after a failed round: the rest of the pass runs serially
        #: (results unchanged — only speed).
        self.enabled = True
        self._table: Optional[Dict[Tuple, Any]] = None
        #: The round's shipped successor states and send messages, by hash.
        self._states: Dict[int, Any] = {}
        self._messages: Dict[int, Any] = {}
        self._round_no = 0

    @classmethod
    def for_pass(cls, pass_: "_ExplorationPass") -> Optional["RoundSpeculator"]:
        """A speculator when the config enables one, else ``None``."""
        workers = resolve_workers(pass_.config.explore_workers)
        return cls(pass_, workers) if workers > 0 else None

    # -- round lifecycle ---------------------------------------------------

    def begin_round(self) -> None:
        """Snapshot this round's frontier and precompute it in forked children.

        Small rounds (below :data:`ROUND_THRESHOLD` items) fork nothing; a
        failed child leaves the round to the inline kernel — in every case
        the subsequent sweep produces byte-identical results.
        """
        p = self._pass
        self._table = None
        self._states = {}
        self._messages = {}
        if not self.enabled:
            return
        items = self._snapshot()
        if len(items) < ROUND_THRESHOLD:
            return
        shard_size = max(SHARD_MIN, -(-len(items) // self.workers))
        shards = [
            items[start : start + shard_size]
            for start in range(0, len(items), shard_size)
        ]
        started = time.perf_counter()
        try:
            reports = self._dispatch(shards)
        except (ChildFailed, OSError) as failure:
            self.enabled = False
            if p.emitter.enabled:
                p.emitter.event(
                    "parallel_fallback",
                    round=p.round_number,
                    status=getattr(failure, "status", None),
                    reason=str(failure),
                )
            return
        self._round_no += 1
        p.stats.explore_rounds_parallel += 1
        p.stats.explore_shards += len(shards)
        if p.emitter.enabled:
            p.emitter.event(
                "parallel_round",
                number=self._round_no,
                items=len(items),
                shards=len(shards),
                workers=self.workers,
                dispatch_s=round(time.perf_counter() - started, 6),
            )
            for index, (_result, wall_s, pid) in enumerate(reports):
                p.emitter.emit_span(
                    "worker_explore",
                    wall_s,
                    fields={"shard": index, "items": len(shards[index])},
                    pid=pid,
                )

    def _dispatch(self, shards: List[List[Tuple]]) -> List[Tuple[Any, float, int]]:
        """Fork one child per shard and file what they piped back as the
        round table; returns :func:`~repro.core.pool.fork_map`'s reports."""
        reports = fork_map([partial(self._speculate, shard) for shard in shards])
        table: Dict[Tuple, Any] = {}
        for shard, ((outcomes, states, messages), _wall_s, _pid) in zip(shards, reports):
            self._states.update(states)
            self._messages.update(messages)
            for item, packed in zip(shard, outcomes):
                table[self._key(*item)] = packed
        self._table = table
        return reports

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
            for message, (msg_hash, _size) in zip(outcome.sends, outcome.send_info):
                if msg_hash not in messages and admits(msg_hash):
                    messages[msg_hash] = message
            return (state_hash, outcome.state_size, outcome.event_hash, outcome.send_info)

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
        """A child's packed outcome of offering ``row`` to ``record``, if any
        (for a fan-out row, one per enabled action); ``None`` means "run the
        kernel inline"."""
        table = self._table
        if table is None:
            return None
        return table.get(self._key(row, record, subject))

    def adopt(
        self, row: EventKind, record: "NodeStateRecord", subject: Any, packed: Any
    ) -> Any:
        """``packed`` as the kernel would have returned it inline:
        :data:`ASSERT`, :data:`NOOP` or a speculated :class:`Transition`."""
        if packed == ASSERT:
            return ASSERT
        if packed == NOOP:
            return NOOP
        state_hash, state_size, ehash, send_info = packed
        messages = self._messages
        return Transition(
            event_of(row, record, subject)[0],
            ehash,
            self._states.get(state_hash),
            state_hash,
            state_size,
            tuple([messages.get(msg_hash) for msg_hash, _size in send_info]),
            send_info,
            speculated=True,
        )
