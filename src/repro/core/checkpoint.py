"""Durable checkpoints of the local model checker (docs/CHECKPOINTS.md).

The monotonic abstraction makes LMC's state *worth* saving: ``LS`` and
``I+`` only ever grow, so everything a run has paid for — node-state
records with their predecessor DAG, the shared message log with per-message
cursors, the counters — remains valid input for more exploration.  This
module serializes that state into a versioned JSON envelope and restores it
into a fresh :class:`~repro.core.checker._ExplorationPass`, which enables
two features:

* **resume** — a run killed (or stopped by SIGTERM/budget) at a round
  boundary continues exactly where it stopped; because the serial sweep is
  deterministic and checkpoints are only written at round boundaries, the
  resumed run's final counters are byte-identical to an uninterrupted
  run's (modulo the rebuildable caches listed below);
* **depth extension** — a *completed* depth-``d`` run re-seeds a new run
  to depth ``d' > d`` that explores only the newly unblocked frontier (the
  depth-deferred pairs the sweeps recorded), instead of the whole prefix.

What is serialized: every ``LS_n`` record (state value, hashes, depth
metadata, history, predecessor links, seed/discard/crash flags) with the
step table its links name, the full ``I+`` log (message values, hashes, cursors, deferred
pairs, fault-minted duplicate flags), all exploration counters and phase
timers, the per-node sweep and fault cursors (including the drop sweep's
cursor/deferred pairs and the duplication cursor), a depth extension's
lanes not re-offered yet, the depth series,
confirmed bugs and the rejected-combination cache, symmetry-reduction orbit
keys, and the widening/prior-pass context of the enclosing run.  Every
preliminary violation is verified inline, so ``unverified`` is always
written empty; a non-empty one was written mid-buffer by a retired checker
that deferred verification, and :func:`load_checkpoint` refuses it.

What is deliberately *not* serialized, because it is derived state rebuilt
on demand: the soundness verifier's sequence/replay memos (cold memos only
change ``*_cache_hits`` counters, never verdicts — the same contract the
bench's cached-vs-uncached legs rely on), the projection cache and index
(recomputed from the restored records in discovery order), the symmetry
renamed-hash cache, the stored messages' event memos, and the
parallel-exploration speculator (its children read the restored pass
directly).

Model values round-trip through :mod:`repro.persistence`'s structural
codec — the same closed class registry and versioned-envelope discipline as
the bug corpus, so deserialization never executes arbitrary content — and
are content-addressed: each distinct value is one row of a ``values``
table keyed by its content hash, written once per log, parsed once and
decoded once, so restored records share sub-values as the original run's
did.

On disk a checkpoint is a *log*: because everything above only grows, a
:class:`Checkpointer` writes one full snapshot per pass (the base line) and
then appends, per write, one segment line holding what the pass gained since
— :func:`snapshot_pass` given the writer's :class:`_Marks`.
:func:`load_checkpoint` folds the lines back into the payload a full
snapshot of the last round would have been, so nothing downstream of it
knows the difference.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import signal
from array import array
from typing import Any, Dict, List, Optional

from repro.core.event_kinds import CURSOR_SWEEPS, DELIVERY_SWEEP, Cursor
from repro.core.records import LINK_WIDTH
from repro.fsio import append_text, atomic_write_text
from repro.model.hashing import content_hash
from repro.persistence import (
    ClassRegistry,
    ValueTable,
    bug_from_dict,
    bug_to_dict,
    decode_event,
    decode_system_state,
    decode_value,
    encode_event,
    encode_system_state,
    registry_for_protocol,
    resolve_ref,
    resolve_rows,
)
from repro.stats.counters import COUNTERS, ExplorationStats
from repro.stats.series import DepthSample

#: On-disk format version; bump on any incompatible payload change.
#: Version 2 added the fault-scheduler extensions of docs/FAULTS.md: the
#: drop-sweep cursor/deferred state, the duplication cursor, the per-message
#: fault-minted ``duplicate`` flag, and drop/duplicate predecessor events.
#: Version 3 made the file a log — a base line plus appended segments; its
#: base line is a version-2 file, which is why the reader still takes those.
#: Version 4 made the log content-addressed: each line's ``values`` table
#: defines the composite model values the log did not hold yet, and records,
#: link events and ``I+`` messages refer to them by hash; a line without the
#: table is a version-3 line and reads as one.
#: Version 5 dropped the fields of the retired Fig. 12 byte model (each
#: record's state size, the pass's and ``I+``'s byte totals); restoring
#: never reads them, so an older line still loads.
#: Version 6 writes each record as one row whose predecessor links are
#: ``[predecessor index, step id]`` pairs into a ``steps`` table each line
#: extends, each history as its hex mask and each orbit key as its bare
#: hashes; :func:`load_checkpoint` upgrades a log of older lines to it.
CHECKPOINT_FORMAT_VERSION = 6
#: The ``format`` tag of every checkpoint log line (see :func:`save_checkpoint`).
CHECKPOINT_KIND = "lmc-checkpoint"

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointError",
    "CheckpointMismatch",
    "Checkpointer",
    "apply_stats",
    "decode_initial_system",
    "fingerprint",
    "fingerprint_fields",
    "load_checkpoint",
    "registry_for_protocol",
    "restore_pass",
    "save_checkpoint",
    "snapshot_pass",
    "verify_fingerprint",
]


class CheckpointError(ValueError):
    """A checkpoint payload is unreadable or structurally invalid."""


class CheckpointMismatch(CheckpointError):
    """The checkpoint was written under an incompatible configuration.

    Raised loudly instead of resuming: restoring a snapshot under a
    different protocol, invariant, initial state or checker configuration
    would silently produce counters and verdicts that belong to neither
    run.
    """


# -- configuration fingerprint ---------------------------------------------------

#: ``LMCConfig`` fields that no longer exist, at the only values a checkpoint
#: was ever written with (their defaults: the one checker that set the first
#: two otherwise took no checkpointer, no caller set the next three, the
#: next two — now ``repro.core.explore_parallel`` constants — were only ever
#: set by a benchmark harness that wrote no checkpoint, the next three —
#: now ``repro.core.soundness`` constants — only by tests, and the last two
#: are the paper's fixed choices in ``repro.core.checker``: an envelope
#: written under another assertion policy or widening step no longer
#: verifies, since this checker would explore a different space).
#: Still fingerprinted so that envelopes written before their removal keep
#: verifying — the digest is a hash of every key, so dropping these would
#: orphan every existing checkpoint.
_RETIRED_CONFIG_FIELDS = {
    "collect_preliminary": "False",
    "max_collected_preliminary": "2048",
    "max_completions_per_local_violation": "64",
    "max_completions_per_conflict": "128",
    "rejected_cache_limit": "4096",
    "explore_shard_min": "64",
    "explore_round_threshold": "128",
    "max_sequences_per_node": "256",
    "max_combinations_per_check": "8192",
    "replay_cache_limit": "4096",
    "assertion_policy": "'discard'",
    "widen_increment": "1",
}


def _instance_config(obj: Any) -> Dict[str, str]:
    """Stable view of an object's constructor-derived attributes."""
    return {name: repr(value) for name, value in sorted(vars(obj).items())}


def fingerprint_fields(
    protocol: Any, invariant: Any, config: Any, initial_system: Any
) -> Dict[str, Any]:
    """The facts a resume must agree on, as a JSON-ready dictionary.

    Protocols and invariants are regular classes, not dataclasses, so they
    contribute their class identity plus a ``repr`` of every instance
    attribute (plain configuration values by construction).  The initial
    system contributes per-node content hashes — a pass seeded with a
    crafted live snapshot (the §5.5 scenarios) must not resume a run
    seeded from the protocol boot states.  Every :class:`LMCConfig` field
    participates.
    """
    return {
        "protocol": f"{type(protocol).__module__}.{type(protocol).__qualname__}",
        "protocol_config": _instance_config(protocol),
        "invariant": f"{type(invariant).__module__}.{type(invariant).__qualname__}",
        "invariant_config": _instance_config(invariant),
        "initial_system": sorted(
            (repr(node), content_hash(state))
            for node, state in initial_system.items()
        ),
        "config": {
            **_RETIRED_CONFIG_FIELDS,
            **{
                field.name: repr(getattr(config, field.name))
                for field in dataclasses.fields(config)
            },
        },
    }


def fingerprint(
    protocol: Any, invariant: Any, config: Any, initial_system: Any
) -> str:
    """SHA-256 digest of :func:`fingerprint_fields` (canonical JSON)."""
    canonical = json.dumps(
        fingerprint_fields(protocol, invariant, config, initial_system),
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# -- counters --------------------------------------------------------------------


def _encode_stats(stats: ExplorationStats) -> Dict[str, Any]:
    """All counter fields plus the phase timers, as plain JSON."""
    return dataclasses.asdict(stats)


def apply_stats(stats: ExplorationStats, encoded: Dict[str, Any]) -> None:
    """Restore counters *in place* — the block is shared with the verifier
    and metrics objects already bound to it."""
    for name in COUNTERS:
        setattr(stats, name, encoded[name])
    stats.phase_seconds = dict(encoded["phase_seconds"])


# -- pass snapshot ---------------------------------------------------------------


class _Marks:
    """What a checkpoint log already holds of one pass.

    The starting point of the pass's next segment: per store the records,
    link rows and discards written — links and the discard flag are the
    only two things a record changes after it is stored, a record's later
    links sit at higher offsets and a store lists its discards in order —
    plus the ``I+`` high-water mark, the steps of the step table written,
    the round of the write, the hashes of the value rows the log defines
    and the seen orbit keys it lists.  The pass fingerprint rides along
    because its inputs are fixed for the pass.
    """

    __slots__ = (
        "pass_", "fingerprint", "round", "stores", "messages", "steps", "values",
        "seen",
    )

    def __init__(self, pass_: Any, fingerprint: str, values: set):
        self.pass_ = pass_
        self.fingerprint = fingerprint
        self.values = values
        self.seen = None if pass_._symmetry is None else set(pass_._symmetry._seen)
        self.round = pass_.round_number
        self.stores = {
            node: (len(store.records), len(store.links), len(store.discards))
            for node, store in pass_.space.stores.items()
        }
        self.messages = pass_.network.high_water
        self.steps = len(pass_.space.steps.steps)


#: Columns of a record row; ``LINKS`` is the flat ``[prev, step id, …]``
#: list of its predecessor links (``prev`` -1: none).
STATE, HASH, DEPTH, LOCAL_DEPTH, HISTORY, CRASHES, CRASHED, SEED, DISCARDED, LINKS = (
    range(10)
)


def _link_row(store: Any, record: Any, since: int = 0) -> List[int]:
    """``record``'s links in the order they were added, flat: the
    predecessor index and step id of each, skipping the rows at offsets
    below ``since``."""
    links = store.links
    row: List[int] = []
    link = record.first_link
    while link >= 0:
        if link >= since:
            row += links[link : link + 2]
        link = links[link + 2]
    return row


def _record_row(store: Any, record: Any, table: ValueTable) -> List[Any]:
    """One record as a row of the ``STATE`` … ``LINKS`` columns; the
    history mask is hex, since ``json`` refuses to write an int of more
    than 4,300 digits."""
    return [
        table.ref(record.state, record.hash),
        record.hash,
        record.depth,
        record.local_depth,
        format(record.history, "x"),
        record.crashes,
        record.crashed,
        record.seed,
        record.discarded,
        _link_row(store, record),
    ]


def _encode_store(store: Any, written: Optional[tuple], table: ValueTable) -> Dict[str, Any]:
    """One ``LS_n``: the records the log lacks and, for a segment, what the
    ``written`` ones gained — ``[index, new links, discarded]`` rows, in
    index order.  Only the owners of the link rows and the discards since
    ``written`` are visited, so a segment costs what changed."""
    held, links_held, discards_held = written or (0, 0, 0)
    encoded = {
        "version": store.version,
        "records": [_record_row(store, record, table) for record in store.records[held:]],
    }
    if written is not None:
        changed = {
            index
            for index in store.owners[links_held // LINK_WIDTH :]
            if index < held
        }
        changed.update(index for index in store.discards[discards_held:] if index < held)
        records = store.records
        encoded["grown"] = [
            [index, _link_row(store, records[index], links_held), records[index].discarded]
            for index in sorted(changed)
        ]
    return encoded


def _combo_rows(combo: Dict[Any, Any]) -> List[List[Any]]:
    """A combination as sorted ``[node, record index]`` rows."""
    return [[node, record.index] for node, record in sorted(combo.items())]


def snapshot_pass(
    pass_: Any,
    reason: str,
    pass_completed: bool = False,
    pass_reason: str = "",
    elapsed: Optional[float] = None,
    marks: Optional[_Marks] = None,
) -> Dict[str, Any]:
    """Serialize one exploration pass — plus its run context — to JSON.

    Must be called at a round boundary (or after the pass completed): the
    byte-identical-resume contract holds because the next round replays
    from exactly this state.  ``elapsed`` overrides the clock reading, for
    round-trip tests that need two snapshots of the same state to compare
    equal.

    Without ``marks`` the result is the full snapshot.  With them it is the
    segment since the write they describe: the append-only families — store
    records, their predecessor links, the step table, ``I+`` messages, seen
    orbit keys — carry only what lies beyond the marks, older records'
    gains go to per-store ``grown`` rows and older messages' ``[cursor,
    deferred]`` pairs to a ``cursors`` table, and a ``marks`` key records
    what the segment was built against.  All else is small and mutable, and
    is rewritten whole either way.

    A link is a ``[predecessor index, step id]`` pair of its record row's
    ``LINKS`` column; the ``steps`` list defines each step id once, as
    ``[event, event hash, consumed hash, generated hashes]`` in id order.
    Record states, step event payloads and ``I+`` messages are written as
    references into the ``values`` table (:class:`ValueTable`), which holds
    the composite values the marks' log does not define yet.
    """
    checker = pass_.checker
    if marks is None:
        written, sent, held, seen, stepped = {}, 0, frozenset(), frozenset(), 0
        digest = fingerprint(
            checker.protocol, checker.invariant, checker.config, pass_.initial_system
        )
    else:
        written, sent, digest = marks.stores, marks.messages, marks.fingerprint
        held, seen, stepped = marks.values, marks.seen, marks.steps
    table = ValueTable(held)
    log = pass_.network.messages_since(0)
    symmetry = None
    reducer = pass_._symmetry
    if reducer is not None:
        # Orbit keys are tuples of hashes, one per node of the reducer's
        # ascending node set, which is written once.
        symmetry = {
            "orbit_hits": reducer.orbit_hits,
            "nodes": list(reducer.nodes),
            "seen": sorted(reducer._seen - seen),
        }
    nodes = pass_.space.node_ids
    payload = {
        "fingerprint": digest,
        "algorithm": checker.algorithm,
        "reason": reason,
        "pass_completed": pass_completed,
        "pass_reason": pass_reason,
        "budget": dataclasses.asdict(pass_.budget),
        "elapsed_s": pass_.clock.elapsed() if elapsed is None else elapsed,
        "initial_system": encode_system_state(pass_.initial_system),
        "run": {
            "bound": pass_.local_event_bound,
            "prior_stats": _encode_stats(pass_.prior_stats),
            "prior_bugs": [bug_to_dict(bug) for bug in pass_.prior_bugs],
        },
        "pass": {
            "round_number": pass_.round_number,
            "blocked_by_bound": pass_.blocked_by_bound,
            "blocked_by_depth": pass_._blocked_by_depth,
            "dup_seq_cursor": pass_._dup_seq_cursor,
            "stats": _encode_stats(pass_.stats),
            "steps": [
                [
                    encode_event(step.event, table.ref),
                    step.event_hash,
                    step.consumed_hash,
                    list(step.generated_hashes),
                ]
                for step in pass_.space.steps.steps[stepped:]
            ],
            "stores": [
                [node, _encode_store(pass_.space.store(node), written.get(node), table)]
                for node in nodes
            ],
            "network": {
                "suppressed_duplicates": pass_.network.suppressed_duplicates,
                "messages": [
                    {
                        "message": table.ref(stored.message, stored.hash),
                        "hash": stored.hash,
                        "cursor": stored.cursor,
                        "deferred": stored.deferred.tolist(),
                        "duplicate": stored.duplicate,
                    }
                    for stored in log[sent:]
                ],
            },
            "node_max_depth": [
                [node, pass_._node_max_depth[node]]
                for node in nodes
                if node in pass_._node_max_depth
            ],
            "series": [
                [sample.depth, sample.elapsed_s, sample.metrics]
                for sample in pass_.series.samples
            ],
            "bugs": [bug_to_dict(bug) for bug in pass_.bugs],
            "unverified": [],
            "rejected": {
                "next": pass_._rejected_next,
                "entries": [
                    [entry_index, _combo_rows(combo)]
                    for entry_index, combo in pass_._rejected_entries.items()
                ],
            },
            "symmetry": symmetry,
        },
    }
    # Sweep cursor families (the delivery sweep's ride on the messages
    # above).  Per-node families list every node; a per-message family
    # lists only the cursors a sweep has moved — one still at 0 with
    # nothing deferred means the same as none.
    for sweep in CURSOR_SWEEPS:
        cursors = sorted(pass_.cursors[sweep.name].items())
        payload["pass"][f"{sweep.name}_cursor"] = [
            [key, cursor.cursor]
            for key, cursor in cursors
            if sweep.per_node or cursor.cursor
        ]
        payload["pass"][f"{sweep.name}_deferred"] = [
            [key, cursor.deferred.tolist()]
            for key, cursor in cursors
            if sweep.per_node or cursor.deferred
        ]
    if pass_._extended:
        # A depth extension's lanes whose deferred pairs no sweep has
        # re-offered yet, by family: stored ``seq`` for the delivery sweep,
        # the cursor's key for the others.  Absent from any other pass, so
        # its checkpoints keep their bytes.
        reoffer = pass_._reoffer
        extension = {
            DELIVERY_SWEEP.name: [stored.seq for stored in log if stored in reoffer]
        }
        for sweep in CURSOR_SWEEPS:
            extension[sweep.name] = [
                key
                for key, cursor in sorted(pass_.cursors[sweep.name].items())
                if cursor in reoffer
            ]
        payload["pass"]["extension"] = extension
    if marks is not None:
        payload["marks"] = {
            "round": marks.round,
            "stores": [[node, written[node][0]] for node in nodes],
            "messages": sent,
            "steps": stepped,
        }
        payload["pass"]["network"]["cursors"] = [
            [stored.cursor, stored.deferred.tolist()] for stored in log[:sent]
        ]
    payload["values"] = [[value, row] for value, row in table.rows.items()]
    return payload


def restore_pass(
    pass_: Any, payload: Dict[str, Any], registry: Optional[ClassRegistry] = None
) -> None:
    """Populate a freshly constructed pass from a checkpoint payload.

    The pass must be newly built (empty stores/network) against the same
    protocol, invariant and config the payload fingerprints — callers go
    through :meth:`LocalModelChecker.resume` / ``extend_depth``, which
    enforce that.  Restores in place: the verifier, metrics and reducer
    objects already bound to the pass's stats/space keep working on the
    reinstated state.  Each JSON object of the payload decodes once, to the
    interner's canonical object, so the shared rows :func:`load_checkpoint`
    resolves become shared values and every restored state and message is
    canonical, as the execution kernel leaves them.
    """
    if registry is None:
        registry = registry_for_protocol(pass_.checker.protocol)
    data = payload["pass"]
    # Shared value rows decode once, to canonical objects.
    memo: Dict[int, Any] = {}

    network = data["network"]
    pass_.network.restore(
        (
            (
                decode_value(row["message"], registry, memo),
                row["hash"],
                row["cursor"],
                row["deferred"],
                row["duplicate"],
            )
            for row in network["messages"]
        ),
        suppressed_duplicates=network["suppressed_duplicates"],
    )
    # Steps are interned in id order before any link names one, so each
    # keeps its id.
    steps = pass_.space.steps
    for step, (event, event_hash, consumed_hash, generated) in enumerate(data["steps"]):
        interned = steps.intern(
            decode_event(event, registry, memo), event_hash, consumed_hash, tuple(generated)
        )
        if interned != step:
            raise CheckpointError(f"step {step} repeats step {interned}")

    for node, store_data in data["stores"]:
        store = pass_.space.store(node)
        rows = store_data["records"]
        for row in rows:
            record = store.add(
                decode_value(row[STATE], registry, memo),
                row[HASH],
                depth=row[DEPTH],
                local_depth=row[LOCAL_DEPTH],
                history=int(row[HISTORY], 16),
                crashes=row[CRASHES],
                crashed=row[CRASHED],
            )
            # The flags ``add`` leaves to the checker.
            record.seed = row[SEED]
            record.discarded = row[DISCARDED]
        # Links go in once every record is: a link's predecessor may be a
        # record discovered after the one it leads to.
        for record, row in zip(store.records, rows):
            links = row[LINKS]
            for at in range(0, len(links), 2):
                record.add_predecessor(store, links[at], links[at + 1])
        store.finalize_restore(store_data["version"])

    apply_stats(pass_.stats, data["stats"])
    pass_.round_number = data["round_number"]
    pass_.blocked_by_bound = data["blocked_by_bound"]
    pass_._blocked_by_depth = data["blocked_by_depth"]
    pass_._dup_seq_cursor = data["dup_seq_cursor"]
    for sweep in CURSOR_SWEEPS:
        cursors = pass_.cursors[sweep.name]
        for key, position in data[f"{sweep.name}_cursor"]:
            cursors[key] = Cursor(position)
        for key, indexes in data[f"{sweep.name}_deferred"]:
            cursors[key].deferred = array("q", indexes)
    extension = data.get("extension")
    if extension is not None:
        log = pass_.network.messages_since(0)
        pass_._extended = True
        pass_._reoffer = {log[seq] for seq in extension[DELIVERY_SWEEP.name]}
        for sweep in CURSOR_SWEEPS:
            cursors = pass_.cursors[sweep.name]
            pass_._reoffer.update(cursors[key] for key in extension[sweep.name])
    pass_._node_max_depth = {node: depth for node, depth in data["node_max_depth"]}

    for depth, elapsed_s, metrics in data["series"]:
        pass_.series.samples.append(DepthSample(depth, elapsed_s, dict(metrics)))
    if pass_.series.samples:
        # Resumed sampling must behave as if the restored samples were its
        # own: only genuinely new depths append rows.
        pass_.metrics._last_depth = pass_.series.samples[-1].depth

    pass_.bugs.extend(bug_from_dict(item, registry) for item in data["bugs"])

    rejected = data["rejected"]
    pass_._rejected_next = rejected["next"]
    for entry_index, combo_rows in rejected["entries"]:
        pass_._rejected_entries[entry_index] = {
            node: pass_.space.store(node).records[index]
            for node, index in combo_rows
        }
    # Index lists are kept in insertion (entry-number) order — the order the
    # lazily-pruned live lists of the original run preserve.
    for entry_index, combo_rows in sorted(rejected["entries"]):
        for node, index in combo_rows:
            pass_._rejected_index.setdefault((node, index), []).append(entry_index)

    symmetry = data["symmetry"]
    if (symmetry is not None) != (pass_._symmetry is not None):
        raise CheckpointMismatch(
            "symmetry reducer presence differs between the checkpoint and "
            "this configuration"
        )
    if symmetry is not None:
        reducer = pass_._symmetry
        if symmetry["nodes"] != list(reducer.nodes):
            raise CheckpointMismatch(
                "the checkpoint's orbit keys do not list this pass's nodes"
            )
        reducer.orbit_hits = symmetry["orbit_hits"]
        reducer._seen = {tuple(key) for key in symmetry["seen"]}

    # Derived caches are rebuilt, not restored: the summary index in
    # discovery order (exactly the order seeding + integration noted it),
    # verifier memos cold (cache-hit counters only), speculator fresh.
    if pass_._index is not None:
        for node in pass_.space.node_ids:
            for record in pass_.space.store(node).records:
                if not record.crashed:
                    pass_._index.note(record)

    pass_._restored = True


# -- files -----------------------------------------------------------------------

#: What a parsed line of the wrong shape raises while it is folded.
_MALFORMED = (AttributeError, IndexError, KeyError, TypeError, ValueError)


def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Write one line of the checkpoint log at ``path``.

    A full snapshot replaces the file atomically (see
    :func:`repro.fsio.atomic_write_text`): readers observe either the
    previous complete log or the new base, never a truncated one.  A segment
    — a payload carrying ``marks`` — is appended and fsynced; a kill
    mid-append leaves a torn last line, which :func:`load_checkpoint` drops,
    so the file then reads as the previous round boundary.  A write the
    file system refuses is a :class:`CheckpointError` naming ``path``.

    Lines are compact JSON (``indent=None``): checkpoints are machine
    artifacts, and on the Fig. 10 d=6 snapshot that is ~3x smaller and a
    tenth of the encode time of the bug corpus's indented form.  Key order
    stays sorted, keeping the bytes canonical for the round-trip property
    test.
    """
    envelope = dict(payload, format=CHECKPOINT_KIND, version=CHECKPOINT_FORMAT_VERSION)
    line = json.dumps(envelope, sort_keys=True, default=str) + "\n"
    try:
        if "marks" in payload:
            append_text(path, line)
        else:
            atomic_write_text(path, line)
    except OSError as exc:
        raise CheckpointError(
            f"cannot write checkpoint {path}: {exc.strerror or exc}"
        ) from None


def _fold(
    folded: Optional[Dict[str, Any]], line: Dict[str, Any], values: Dict[int, Any]
) -> Dict[str, Any]:
    """The payload read so far with one more parsed log line applied.

    The result is what a full :func:`snapshot_pass` of the line's round
    holds: a segment's own dictionary, with the append-only lists it
    continues spliced in front of what it adds, and every value reference
    replaced by the shared row ``values`` — the log's value table so far,
    which the line's own rows join — holds for it.  A log of version-2 to
    -5 lines folds in their shape, which :func:`_upgrade` turns into this
    version's once the log is read; its ``version`` stays the base line's
    until then.
    """
    if line.get("format") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"expected a {CHECKPOINT_KIND!r} payload, found {line.get('format')!r}"
        )
    version = line.get("version")
    # A version-2 file is a version-3 base line with nothing after it, a
    # version-3 line is a version-4 line without a value table, and a
    # version-4 line is a version-5 line with the byte-model fields.
    if version not in (3, 4, 5, CHECKPOINT_FORMAT_VERSION) and (
        version != 2 or folded is not None
    ):
        raise CheckpointError(
            f"unsupported {CHECKPOINT_KIND} version {version!r} (this reader "
            f"understands version {CHECKPOINT_FORMAT_VERSION}, version-3 to "
            "version-5 logs and version-2 files)"
        )
    inherited = len(line["pass"]["unverified"])
    if inherited:
        raise CheckpointError(
            f"the pass carries {inherited} unverified preliminary violation(s), "
            "written by a checker that deferred verification; this version "
            "verifies every violation inline and cannot resume them"
        )
    marks = line.pop("marks", None)
    if (marks is None) != (folded is None):
        raise CheckpointError("a log is one full snapshot, then segments only")
    legacy = version < CHECKPOINT_FORMAT_VERSION
    delta = line["pass"]
    if folded is None:
        if not legacy:
            _check_links(delta["stores"], [0] * len(delta["stores"]), len(delta["steps"]))
        _resolve(line, values, legacy)
        return line
    if legacy != (folded["version"] < CHECKPOINT_FORMAT_VERSION):
        raise CheckpointError(
            f"a version-{version} segment cannot continue a version-"
            f"{folded['version']} log: a log is one version family"
        )
    line["version"] = folded["version"]
    if line["fingerprint"] != folded["fingerprint"]:
        raise CheckpointError("segment of another run (its fingerprint differs)")
    data = folded["pass"]
    messages = data["network"]["messages"]
    held = {
        "round": data["round_number"],
        "stores": [[node, len(store["records"])] for node, store in data["stores"]],
        "messages": len(messages),
    }
    if not legacy:
        held["steps"] = len(data["steps"])
    cursors = delta["network"].pop("cursors")
    if marks != held or len(cursors) != len(messages):
        raise CheckpointError(
            f"segment built against {marks} but the log holds {held}: "
            "a gap, a duplicate or another writer"
        )
    if legacy:
        links_key, discarded_key = "predecessors", "discarded"
    else:
        links_key, discarded_key = LINKS, DISCARDED
        steps = data["steps"]
        _check_links(
            delta["stores"],
            [size for _node, size in held["stores"]],
            len(steps) + len(delta["steps"]),
        )
        steps += delta["steps"]
        delta["steps"] = steps
    _resolve(line, values, legacy)
    for (_, store), (_, gained) in zip(data["stores"], delta["stores"]):
        records = store["records"]
        for index, links, discarded in gained.pop("grown"):
            records[index][links_key] += links
            records[index][discarded_key] = discarded
        records += gained["records"]
        gained["records"] = records
    for row, (cursor, deferred) in zip(messages, cursors):
        row["cursor"], row["deferred"] = cursor, deferred
    messages += delta["network"]["messages"]
    delta["network"]["messages"] = messages
    if delta["symmetry"] is not None and version != 3:
        # A version-3 segment lists every key; from version 4 on it lists
        # the new ones, and the sort merges the two sorted runs.
        seen = data["symmetry"]["seen"]
        seen += delta["symmetry"]["seen"]
        seen.sort()
        delta["symmetry"]["seen"] = seen
    return line


def _check_links(stores: List[Any], held: List[int], steps: int) -> None:
    """Refuse a line whose link rows do not point into the log: per store,
    the line's new records and ``grown`` rows (which only older records
    get) against the ``held`` records before it and the ``steps`` the log
    defines with it."""
    for (node, store), size in zip(stores, held):
        lists = [row[LINKS] for row in store["records"]]
        for index, links, _discarded in store.get("grown", ()):
            if not 0 <= index < size:
                raise CheckpointError(
                    f"node {node}: a grown row names record {index}, but the "
                    f"log holds {size}"
                )
            lists.append(links)
        size += len(store["records"])
        for links in lists:
            if len(links) % 2:
                raise CheckpointError(
                    f"node {node}: a link list of odd length {len(links)}"
                )
        pairs = [item for links in lists for item in links]
        if not pairs:
            continue
        prevs, ids = pairs[::2], pairs[1::2]
        if min(prevs) < -1 or max(prevs) >= size:
            raise CheckpointError(
                f"node {node}: a link names predecessor {max(prevs)} beyond "
                f"its store of {size} records"
            )
        if min(ids) < 0 or max(ids) >= steps:
            raise CheckpointError(
                f"node {node}: a link names step {max(ids)}, but the log "
                f"defines {steps} steps"
            )


def _resolve(line: Dict[str, Any], values: Dict[int, Any], legacy: bool) -> None:
    """Define the line's value rows, then replace its references — record
    states, step event payloads (a ``legacy`` line's link event payloads),
    ``I+`` messages — by the rows, in place."""
    rows = line.pop("values", None)
    if rows is None:
        return
    resolve_rows(rows, values)
    data = line["pass"]
    state = "state" if legacy else STATE
    events = [step[0] for step in data.get("steps", ())]
    for _, store in data["stores"]:
        for record in store["records"]:
            record[state] = resolve_ref(record[state], values)
            if legacy:
                events += [link["event"] for link in record["predecessors"]]
        if legacy:
            for _, gained, _ in store.get("grown", ()):
                events += [link["event"] for link in gained]
    for event in events:
        if "payload" in event:
            event["payload"] = resolve_ref(event["payload"], values)
    for row in data["network"]["messages"]:
        row["message"] = resolve_ref(row["message"], values)


def _history_mask(rows: List[int], bits: Dict[int, int]) -> int:
    """A version-5 history — the sorted hash of each first-copy bit and
    token ``-(seq + 1)`` of each other copy's — as a mask, through the
    ``I+`` log's hash to bit map; a hash ``I+`` does not hold raises
    ``KeyError``."""
    mask = 0
    for entry in rows:
        mask |= 1 << (-entry - 1 if entry < 0 else bits[entry])
    return mask


def _upgrade(payload: Dict[str, Any]) -> None:
    """A payload folded from version-2 to -5 lines, in this version's shape.

    Those versions wrote each link as a dict naming its predecessor by hash
    and carrying its step's event and hashes, each history as the sorted
    entries of :func:`_history_mask`, and each orbit key as ``[node, hash]``
    rows.  Steps are numbered in the order the stores' links first name
    them — the order restoring such a log always interned them — and the
    histories become masks through the folded ``I+`` log.
    """
    data = payload["pass"]
    bits: Dict[int, int] = {}
    for seq, row in enumerate(data["network"]["messages"]):
        bits.setdefault(row["hash"], seq)
    steps: List[List[Any]] = []
    ids: Dict[tuple, int] = {}
    for _node, store in data["stores"]:
        index = {record["hash"]: at for at, record in enumerate(store["records"])}
        rows = []
        for record in store["records"]:
            links: List[int] = []
            for link in record["predecessors"]:
                generated = link["generated_hashes"]
                key = (link["event_hash"], link["consumed_hash"], tuple(generated))
                if key not in ids:
                    ids[key] = len(steps)
                    steps.append([link["event"], key[0], key[1], generated])
                prev = link["prev_hash"]
                links += (-1 if prev is None else index[prev], ids[key])
            rows.append(
                [
                    record["state"],
                    record["hash"],
                    record["depth"],
                    record["local_depth"],
                    format(_history_mask(record["history"], bits), "x"),
                    record["crashes"],
                    record["crashed"],
                    record["seed"],
                    record["discarded"],
                    links,
                ]
            )
        store["records"] = rows
    data["steps"] = steps
    symmetry = data["symmetry"]
    if symmetry is not None:
        nodes = sorted(node for node, _state in payload["initial_system"])
        if any([node for node, _hash in key] != nodes for key in symmetry["seen"]):
            raise CheckpointError("an orbit key does not list the pass's nodes")
        symmetry["nodes"] = nodes
        symmetry["seen"] = [[digest for _node, digest in key] for key in symmetry["seen"]]
    payload["version"] = CHECKPOINT_FORMAT_VERSION


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read the checkpoint log at ``path`` into one snapshot payload, strictly.

    Streams the file line by line through :func:`_fold`.  Only the *final*
    line may be unterminated or unparseable — the kill-mid-append case,
    dropped — anything wrong earlier, or wrong in a line that did parse, is
    a :class:`CheckpointError` naming the line, and a path that cannot be
    opened one naming the path.  An older version's log is upgraded to this
    version's shape once it is folded (:func:`_upgrade`).

    The payload's model values are resolved value-table rows: one JSON
    object per distinct value, shared wherever the value recurs, so callers
    must treat them as read-only.
    """
    folded: Optional[Dict[str, Any]] = None
    values: Dict[int, Any] = {}
    torn: Optional[str] = None
    # Bytes, not text: a damaged byte must fail inside the loop, on its line.
    try:
        handle = open(path, "rb")
    except OSError as exc:
        raise CheckpointError(
            f"cannot read checkpoint {path}: {exc.strerror or exc}"
        ) from None
    with handle:
        for number, raw in enumerate(handle, 1):
            if torn is not None:
                raise CheckpointError(torn)
            try:
                if folded is not None and not raw.endswith(b"\n"):
                    raise ValueError("unterminated line")
                line = json.loads(raw)
            except ValueError as exc:
                torn = f"{path}:{number}: {exc}"
                continue
            try:
                folded = _fold(folded, line, values)
            except CheckpointError as exc:
                raise CheckpointError(f"{path}:{number}: {exc}") from None
            except _MALFORMED as exc:
                raise CheckpointError(
                    f"{path}:{number}: malformed line ({exc!r})"
                ) from None
    if folded is None:
        raise CheckpointError(torn or f"{path}: empty file")
    if folded["version"] != CHECKPOINT_FORMAT_VERSION:
        try:
            _upgrade(folded)
        except CheckpointError as exc:
            raise CheckpointError(f"{path}: {exc}") from None
        except _MALFORMED as exc:
            raise CheckpointError(f"{path}: malformed log ({exc!r})") from None
    return folded


def verify_fingerprint(
    payload: Dict[str, Any], protocol: Any, invariant: Any, config: Any, initial_system: Any
) -> None:
    """Refuse loudly when the payload belongs to a different configuration."""
    expected = fingerprint(protocol, invariant, config, initial_system)
    found = payload.get("fingerprint")
    if found != expected:
        raise CheckpointMismatch(
            "checkpoint fingerprint mismatch: the snapshot was written under "
            "a different protocol/invariant/config/initial-state combination "
            f"(checkpoint {str(found)[:12]}…, this run {expected[:12]}…); "
            "refusing to resume"
        )


def decode_initial_system(payload: Dict[str, Any], protocol: Any):
    """The checkpointed initial system state, decoded through the protocol's
    registry."""
    registry = registry_for_protocol(protocol)
    return decode_system_state(payload["initial_system"], registry), registry


# -- write policy ----------------------------------------------------------------


class Checkpointer:
    """When and where a run writes checkpoints.

    Attach one to a :class:`~repro.core.checker.LocalModelChecker`; the
    pass consults :meth:`due` at every round boundary and always writes a
    final snapshot when a pass completes.  ``every_rounds`` is the round
    cadence; ``None`` writes only those final snapshots (and SIGTERM ones).
    Checkpoints are bookkeeping outside the explored state, so the cadence
    is no part of the fingerprint: a run may resume under another one.

    SIGTERM handling is cooperative: the handler only sets a flag, the
    sweep finishes its current round, the boundary snapshot is written,
    and the run stops with ``"interrupted (checkpoint written)"``.  The
    handler is installed around :meth:`LocalModelChecker.run` only in the
    main thread (``signal`` refuses elsewhere; the checkpointer then
    simply never sees a SIGTERM flag).
    """

    def __init__(self, path: str, every_rounds: Optional[int] = None):
        if every_rounds is not None and every_rounds < 1:
            raise ValueError("every_rounds must be >= 1 or None")
        self.path = path
        self.every_rounds = every_rounds
        #: Set by the SIGTERM handler; checked at round boundaries.
        self.stop_requested = False
        #: Round number of the last snapshot written, for heartbeats/status.
        self.last_round: Optional[int] = None
        self.writes = 0
        #: Bytes this writer put on disk, over every base and segment; the
        #: file is smaller whenever a new base replaced an older log.
        self.bytes_written = 0
        #: Segment lines after the current file's base line.
        self.segments = 0
        #: What the file holds of the pass being written; ``None`` before
        #: the first write, and stale — hence a fresh base — for any other
        #: pass (a widened one, or the next run's).
        self._marks: Optional[_Marks] = None
        self._previous_handler: Any = None
        self._installed = False

    # -- signal plumbing ---------------------------------------------------

    def install(self) -> None:
        """Install the cooperative SIGTERM handler (main thread only)."""
        def _handle(signum: int, frame: Any) -> None:
            del signum, frame
            self.stop_requested = True

        try:
            self._previous_handler = signal.signal(signal.SIGTERM, _handle)
            self._installed = True
        except ValueError:
            # Not the main thread: cadence and final checkpoints still work.
            self._installed = False

    def uninstall(self) -> None:
        """Undo :meth:`install` once the run is over, and let go of its pass
        (the marks would keep every record alive): whatever is written next
        starts a fresh base."""
        self._marks = None
        if self._installed:
            signal.signal(signal.SIGTERM, self._previous_handler)
            self._installed = False

    # -- policy ------------------------------------------------------------

    def due(self, round_number: int) -> bool:
        """Should the pass write a snapshot at this round boundary?"""
        if self.stop_requested:
            return True
        return self.every_rounds is not None and round_number % self.every_rounds == 0

    def snapshot(
        self, pass_: Any, reason: str, pass_completed: bool = False, pass_reason: str = ""
    ) -> None:
        """Persist ``pass_`` as it stands at this round boundary.

        The first snapshot of a pass is the full one and starts the file
        over (which also compacts the log a resumed or extended run came
        from); each later one appends the segment since the previous.
        The marks move only once the write succeeded: after a failed one
        the next segment again carries everything since the last line on
        disk, value rows included.
        """
        marks = self._marks
        if marks is not None and marks.pass_ is not pass_:
            marks = None
        payload = snapshot_pass(pass_, reason, pass_completed, pass_reason, marks=marks)
        self.write(payload)
        values = set() if marks is None else marks.values
        values.update(value for value, _row in payload["values"])
        self._marks = _Marks(pass_, payload["fingerprint"], values)

    def write(self, payload: Dict[str, Any]) -> None:
        """Persist one snapshot and record it for heartbeat reporting."""
        appended = "marks" in payload
        before = os.path.getsize(self.path) if appended else 0
        save_checkpoint(self.path, payload)
        self.bytes_written += os.path.getsize(self.path) - before
        self.segments = self.segments + 1 if appended else 0
        self.writes += 1
        self.last_round = payload["pass"]["round_number"]
