"""Parallel frontier exploration: shard the LMC round loop across the pool.

The paper's monotonic-network framing makes per-node expansion independent:
given a snapshot of ``I+``, executing a pending delivery, internal action or
fault step on one node state touches nothing another node's execution reads
— messages only accumulate and the ``LS_n`` sets only grow.  This module
exploits that independence **speculatively**:

1. At the top of each round, the coordinator snapshots the round's frontier
   — every ``(record, stored message)`` delivery pair the per-message
   cursors will sweep, every record the local-event cursor will offer its
   internal actions, and (with faults on) every crash/restart candidate —
   and shards it across the persistent worker pool
   (:func:`repro.core.pool.map_ordered`).
2. Workers run the expensive node-local half of the execute loop — handler
   execution plus content hashing of successor states and sends (the
   dominant cost of the explore phase) — against a per-run **replica** of
   the protocol and message store, kept current by monotone ``I+`` deltas
   (:meth:`~repro.network.monotonic.MonotonicNetwork.messages_since`).
3. The coordinator then replays the *exact serial sweep*, consuming a
   worker's precomputed result wherever the table has one and executing
   inline on a miss (intra-round cascades: messages and records minted
   mid-round are invisible to the round-start snapshot).

Because the merge **is** the serial order, every counter, verdict, witness
trace and dedup decision is byte-identical to the serial checker by
construction — speculation only moves pure-function work (handlers are
functions of immutable values; content hashing is deterministic across
processes) onto other cores.  Worker results that the replay re-discovers
through a different path are simply dropped; cross-shard rediscoveries the
merge folds into predecessor pointers are surfaced as
``explore_merge_conflicts_suppressed``.

Failure containment: :func:`~repro.core.pool.map_ordered` rebuilds a broken
pool and retries the round once; the second :class:`BrokenProcessPool`
reaches :meth:`RoundSpeculator.begin_round`, which disables speculation for
the rest of the pass — the checker continues serially with identical
results.  A worker that has not seen earlier deltas (fresh pool, or a pool
peer that was idle in prior rounds) answers with a sync-miss carrying its
high-water mark; the coordinator re-dispatches that shard with the full
message log.
"""

from __future__ import annotations

import itertools
import os
import pickle
import time
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.core.event_kinds import (
    ASSERT,
    KIND_BY_TAG,
    NOOP,
    EventKind,
    attempt,
)
from repro.core.pool import BrokenProcessPool, map_ordered, resolve_workers
from repro.model.events import event_hash
from repro.model.hashing import content_hash_and_size
from repro.model.types import HandlerResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (checker imports us)
    from repro.core.checker import _ExplorationPass
    from repro.core.records import NodeStateRecord

#: Rounds with fewer frontier items than this run entirely serially — early
#: rounds are tiny (a handful of seeds and their first messages) and pay
#: pool latency without amortizing it.
ROUND_THRESHOLD = 128

#: Minimum frontier items per shard: below this, fewer (larger) shards are
#: used so dispatch overhead never exceeds the work shipped.
SHARD_MIN = 64


class SpecExec:
    """A precomputed handler execution: successor, sends, and their hashes.

    Everything ``_integrate`` would otherwise compute on the hot path — the
    successor's content hash and canonical size, the event hash, and each
    send's ``(hash, size)`` — shipped back from the worker so the
    coordinator's replay only does the bookkeeping.
    """

    __slots__ = ("result", "new_hash", "new_size", "ehash", "generated", "send_info")

    def __init__(
        self,
        result: HandlerResult,
        new_hash: int,
        new_size: int,
        ehash: int,
        generated: Tuple[int, ...],
        send_info: Tuple[Tuple[int, int], ...],
    ):
        self.result = result
        self.new_hash = new_hash
        self.new_size = new_size
        self.ehash = ehash
        #: Send hashes in emission order (the link's ``generated_hashes``).
        self.generated = generated
        #: ``(hash, size)`` per send, for no-re-encode network admission.
        self.send_info = send_info


# -- worker side ---------------------------------------------------------------


class _Replica:
    """One run's worker-local view: the protocol and the message store."""

    __slots__ = ("protocol", "messages", "high")

    def __init__(self, protocol: Any):
        self.protocol = protocol
        #: seq -> message, grown monotonically by shipped deltas.
        self.messages: Dict[int, Any] = {}
        #: Messages below this seq are all present (the synced prefix).
        self.high = 0


#: Per-run replicas, keyed by run token; a small LRU — workers persist
#: across checker runs, so stale runs' replicas must not accumulate.
_REPLICAS: "OrderedDict[str, _Replica]" = OrderedDict()
_REPLICA_CAP = 4

_TOKENS = itertools.count()


def _replica_for(token: str, protocol_blob: bytes) -> _Replica:
    replica = _REPLICAS.get(token)
    if replica is None:
        replica = _Replica(pickle.loads(protocol_blob))
        _REPLICAS[token] = replica
        while len(_REPLICAS) > _REPLICA_CAP:
            _REPLICAS.popitem(last=False)
    else:
        _REPLICAS.move_to_end(token)
    return replica


def explore_shard_task(
    token: str,
    protocol_blob: bytes,
    base_seq: int,
    high_seq: int,
    delta_blob: bytes,
    states: List[Any],
    items: List[Tuple],
) -> Tuple:
    """Worker entry point: precompute one frontier shard's executions.

    ``items`` are ``(tag, state index, node, seq)`` rows: the event family
    (:data:`repro.core.event_kinds.KIND_BY_TAG`), the node state by its
    index into ``states`` (a per-shard dedup table) and, for message
    families, the message by its ``I+`` sequence number; the delta in
    ``delta_blob`` covers ``[base_seq, high_seq)``.  Returns
    ``("sync", high)`` when this worker's replica has not seen ``base_seq``
    yet (the coordinator re-dispatches with the full log), else
    ``("ok", outcomes, state_table, message_table)`` with one outcome per
    item — ``("a",)``, ``("n",)``, an executed
    ``("x", state_idx, hash, size, event_hash, sends)`` or, for fan-out
    (internal) items, ``("i", actions, per_action_outcomes)``.
    """
    replica = _replica_for(token, protocol_blob)
    if replica.high < base_seq:
        return ("sync", replica.high)
    for seq, message in pickle.loads(delta_blob):
        replica.messages[seq] = message
    if high_seq > replica.high:
        replica.high = high_seq
    protocol = replica.protocol

    out_states: List[Any] = []
    state_pos: Dict[int, int] = {}
    out_msgs: List[Any] = []
    msg_pos: Dict[int, int] = {}

    def run(row: EventKind, state: Any, node: Any, payload: Any) -> Tuple:
        """The same :func:`attempt` the coordinator's miss path runs, plus
        the content hashing ``_integrate`` would otherwise do."""
        event = row.make_event(node, payload)
        result = attempt(protocol, state, event)
        if result is ASSERT or result is NOOP:
            return (result,)
        new_hash, new_size = content_hash_and_size(result.state, by_value=True)
        pos = state_pos.get(new_hash)
        if pos is None:
            pos = len(out_states)
            state_pos[new_hash] = pos
            out_states.append(result.state)
        sends = []
        for message in result.sends:
            msg_hash, msg_size = content_hash_and_size(message, by_value=True)
            mpos = msg_pos.get(msg_hash)
            if mpos is None:
                mpos = len(out_msgs)
                msg_pos[msg_hash] = mpos
                out_msgs.append(message)
            sends.append((mpos, msg_hash, msg_size))
        return ("x", pos, new_hash, new_size, event_hash(event), tuple(sends))

    outcomes: List[Optional[Tuple]] = []
    for tag, state_index, node, seq in items:
        row = KIND_BY_TAG[tag]
        state = states[state_index]
        if row.fan_out:
            actions = tuple(protocol.enabled_actions(state))
            outcomes.append(
                ("i", actions, tuple(run(row, state, node, a) for a in actions))
            )
            continue
        payload = None
        if row.on_message:
            payload = replica.messages.get(seq)
            if payload is None:
                # Only reachable through a protocol bug in the sync
                # handshake; a None outcome is just a table miss upstream.
                outcomes.append(None)
                continue
        outcomes.append(run(row, state, node, payload))
    return ("ok", outcomes, out_states, out_msgs)


# -- coordinator side ----------------------------------------------------------


def _decode(enc: Tuple, states: List[Any], msgs: List[Any]) -> Any:
    """A worker outcome as the executor consumes it: the :data:`ASSERT` /
    :data:`NOOP` constants (by identity), a :class:`SpecExec`, or — for a
    fan-out item — ``(actions, per-action outcomes)``."""
    tag = enc[0]
    if tag == ASSERT:
        return ASSERT
    if tag == NOOP:
        return NOOP
    if tag == "i":
        return enc[1], tuple(_decode(o, states, msgs) for o in enc[2])
    sends_enc = enc[5]
    return SpecExec(
        result=HandlerResult(
            states[enc[1]], tuple(msgs[pos] for pos, _h, _s in sends_enc)
        ),
        new_hash=enc[2],
        new_size=enc[3],
        ehash=enc[4],
        generated=tuple(h for _pos, h, _s in sends_enc),
        send_info=tuple((h, s) for _pos, h, s in sends_enc),
    )


class RoundSpeculator:
    """Per-pass coordinator: snapshot, dispatch, and serve the round table.

    Owned by one :class:`~repro.core.checker._ExplorationPass`; the pass
    calls :meth:`begin_round` at the top of every round and then consults
    :meth:`lookup` from inside the (otherwise unchanged) serial sweep.  A
    ``None`` answer means "compute inline, exactly as before".
    """

    def __init__(self, pass_: "_ExplorationPass", workers: int):
        self._pass = pass_
        self.workers = workers
        #: Cleared after an unrecoverable pool failure: the rest of the pass
        #: runs serially (results unchanged — only speed).
        self.enabled = True
        self._table: Optional[Dict[Tuple, Any]] = None
        self._proto_blob: Optional[bytes] = None
        #: High-water ``I+`` seq already shipped to the pool.
        self._shipped = 0
        self._round_no = 0
        self._token = f"{os.getpid()}:{next(_TOKENS)}"

    @classmethod
    def for_pass(cls, pass_: "_ExplorationPass") -> Optional["RoundSpeculator"]:
        """A speculator when the config enables one, else ``None``."""
        workers = resolve_workers(pass_.config.explore_workers)
        return cls(pass_, workers) if workers > 0 else None

    # -- round lifecycle ---------------------------------------------------

    def begin_round(self) -> None:
        """Snapshot this round's frontier and precompute it across the pool.

        Small rounds (below :data:`ROUND_THRESHOLD` items) skip the pool
        entirely; dispatch failures fall back to serial execution — in every
        case the subsequent sweep produces byte-identical results.
        """
        p = self._pass
        self._table = None
        if not self.enabled:
            return
        if self._proto_blob is None:
            try:
                self._proto_blob = pickle.dumps(p.protocol)
            except (pickle.PicklingError, TypeError, AttributeError):
                self.enabled = False
                return
        items = self._snapshot()
        if len(items) < ROUND_THRESHOLD:
            return
        shard_size = max(SHARD_MIN, -(-len(items) // self.workers))
        shards = [
            items[start : start + shard_size]
            for start in range(0, len(items), shard_size)
        ]
        encoded = [self._encode_shard(shard) for shard in shards]
        base = self._shipped
        high = p.network.high_water
        delta_blob = pickle.dumps(
            tuple((s.seq, s.message) for s in p.network.messages_since(base))
        )
        started = time.perf_counter()
        try:
            reports, misses = self._dispatch(encoded, base, high, delta_blob)
        except (BrokenProcessPool, pickle.PicklingError):
            # The pool broke twice in a row, or the model's values cannot
            # be shipped: stay serial for the rest of the pass.
            self.enabled = False
            return
        self._shipped = high
        self._round_no += 1
        table: Dict[Tuple, Any] = {}
        for shard, (result, _wall_s, _pid) in zip(shards, reports):
            if result[0] != "ok":
                continue
            _, outcomes, rstates, rmsgs = result
            for item, enc in zip(shard, outcomes):
                if enc is not None:
                    table[self._key(*item)] = _decode(enc, rstates, rmsgs)
        self._table = table
        p.stats.explore_rounds_parallel += 1
        p.stats.explore_shards += len(shards)
        if p.emitter.enabled:
            p.emitter.event(
                "parallel_round",
                number=self._round_no,
                items=len(items),
                shards=len(shards),
                workers=self.workers,
                sync_misses=misses,
                dispatch_s=round(time.perf_counter() - started, 6),
            )
            for index, (result, wall_s, pid) in enumerate(reports):
                if result[0] == "ok":
                    p.emitter.emit_span(
                        "worker_explore",
                        wall_s,
                        fields={"shard": index, "items": len(shards[index])},
                        pid=pid,
                    )

    def _dispatch(
        self,
        encoded: List[Tuple[List[Any], List[Tuple]]],
        base: int,
        high: int,
        delta_blob: bytes,
    ) -> Tuple[List[Tuple[Tuple, float, int]], int]:
        """One generation over the pool; sync-misses resent with the full log.

        Returns :func:`~repro.core.pool.map_ordered`'s ``(result, wall_s,
        pid)`` triples, one per shard, and the sync-miss count.
        """
        run = (self._token, self._proto_blob)
        reports = map_ordered(
            self.workers,
            explore_shard_task,
            [run + (base, high, delta_blob) + shard for shard in encoded],
        )
        missed = [
            index for index, report in enumerate(reports) if report[0][0] == "sync"
        ]
        if missed:
            full_blob = pickle.dumps(
                tuple(
                    (s.seq, s.message) for s in self._pass.network.messages_since(0)
                )
            )
            resent = map_ordered(
                self.workers,
                explore_shard_task,
                [run + (0, high, full_blob) + encoded[index] for index in missed],
            )
            for index, report in zip(missed, resent):
                reports[index] = report
        return reports, len(missed)

    # -- frontier snapshot -------------------------------------------------

    def _snapshot(self) -> List[Tuple]:
        """The round-start frontier: ``(row, record, subject)`` per offer.

        Peeks every active sweep's cursor range through the sweep's own
        gate and keeps the offers whose family the pool speculates on.
        Gates are pure and cursors are *not* advanced — the serial sweep
        owns them and re-evaluates every gate in serial order anyway
        (``discarded`` and the crash cap can flip mid-round), so over- or
        under-shipping here affects only how much speculative work the pool
        gets, never the results.  Partition holds and depth-extension
        re-offers are not anticipated for the same reason.
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
    def _encode_shard(shard: List[Tuple]) -> Tuple[List[Any], List[Tuple]]:
        """Ship each distinct record state once per shard, items by index."""
        states: List[Any] = []
        positions: Dict[Tuple[Any, int], int] = {}
        items: List[Tuple] = []
        for row, record, subject in shard:
            key = (record.node, record.index)
            sidx = positions.get(key)
            if sidx is None:
                sidx = len(states)
                positions[key] = sidx
                states.append(record.state)
            items.append(
                (row.tag, sidx, record.node, subject.seq if row.on_message else None)
            )
        return states, items

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
        """Precomputed outcome of offering ``row`` to ``record``, if any.

        :data:`ASSERT`, :data:`NOOP` or a :class:`SpecExec`; for a fan-out
        row ``(actions, outcomes)`` over the worker's ``enabled_actions``
        enumeration.  ``None`` means "compute inline".
        """
        table = self._table
        if table is None:
            return None
        return table.get(self._key(row, record, subject))
