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
metadata, history, predecessor links with their events, seed/discard/crash
flags), the full ``I+`` log (message values, hashes, cursors, deferred
pairs, fault-minted duplicate flags), all exploration counters and phase
timers, the per-node sweep and fault cursors (including the drop sweep's
cursor/deferred pairs and the duplication cursor), the depth series,
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
the bug corpus, so deserialization never executes arbitrary content.

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
from typing import Any, Dict, List, Optional

from repro.core.event_kinds import CURSOR_SWEEPS, Cursor
from repro.core.records import PredecessorLink
from repro.fsio import append_text, atomic_write_text
from repro.model.hashing import content_hash
from repro.persistence import (
    ClassRegistry,
    bug_from_dict,
    bug_to_dict,
    decode_event,
    decode_system_state,
    decode_value,
    encode_event,
    encode_system_state,
    encode_value,
    registry_for_protocol,
)
from repro.stats.counters import COUNTERS, ExplorationStats
from repro.stats.series import DepthSample

#: On-disk format version; bump on any incompatible payload change.
#: Version 2 added the fault-scheduler extensions of docs/FAULTS.md: the
#: drop-sweep cursor/deferred state, the duplication cursor, the per-message
#: fault-minted ``duplicate`` flag, and drop/duplicate predecessor events.
#: Version 3 made the file a log — a base line plus appended segments; its
#: base line is a version-2 file, which is why the reader still takes those.
CHECKPOINT_FORMAT_VERSION = 3
#: Envelope kind tag (see :func:`repro.persistence.save_envelope`).
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
#: two otherwise took no checkpointer, no caller set the next three, and the
#: last two — now ``repro.core.explore_parallel`` constants — were only ever
#: set by a benchmark harness that wrote no checkpoint).
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

    The starting point of the pass's next segment: per store one ``(link
    count, discarded)`` pair per record written — the only two things a
    record changes after it is stored — plus the ``I+`` high-water mark and
    the round of the write.  The pass fingerprint rides along because its
    inputs are fixed for the pass.
    """

    __slots__ = ("pass_", "fingerprint", "round", "stores", "messages")

    def __init__(self, pass_: Any, fingerprint: str):
        self.pass_ = pass_
        self.fingerprint = fingerprint
        self.round = pass_.round_number
        self.stores = {
            node: [
                (len(record.predecessors), record.discarded)
                for record in pass_.space.store(node).records
            ]
            for node in pass_.space.node_ids
        }
        self.messages = pass_.network.high_water


def _encode_links(links: List[PredecessorLink]) -> List[Dict[str, Any]]:
    return [
        {
            "prev_hash": link.prev_hash,
            "event": encode_event(link.event),
            "event_hash": link.event_hash,
            "consumed_hash": link.consumed_hash,
            "generated_hashes": list(link.generated_hashes),
        }
        for link in links
    ]


def _encode_record(record: Any) -> Dict[str, Any]:
    return {
        "state": encode_value(record.state),
        "hash": record.hash,
        "depth": record.depth,
        "local_depth": record.local_depth,
        "history": sorted(record.history),
        "crashes": record.crashes,
        "crashed": record.crashed,
        "seed": record.seed,
        "discarded": record.discarded,
        "state_size": record.state_size,
        "predecessors": _encode_links(record.predecessors),
    }


def _encode_store(store: Any, written: Optional[List[Any]]) -> Dict[str, Any]:
    """One ``LS_n``: the records the log lacks and, for a segment, what the
    ``written`` ones gained — ``[index, new links, discarded]`` rows."""
    records = store.records
    encoded = {
        "version": store.version,
        "records": [
            _encode_record(record) for record in records[len(written or ()) :]
        ],
    }
    if written is not None:
        encoded["grown"] = [
            [index, _encode_links(record.predecessors[links:]), record.discarded]
            for index, (record, (links, discarded)) in enumerate(zip(records, written))
            if len(record.predecessors) != links or record.discarded != discarded
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
    records, their predecessor links, ``I+`` messages — carry only what lies
    beyond the marks, older records' gains go to per-store ``grown`` rows
    and older messages' ``[cursor, deferred]`` pairs to a ``cursors`` table,
    and a ``marks`` key records what the segment was built against.  All
    else is small and mutable, and is rewritten whole either way.
    """
    checker = pass_.checker
    budget = pass_.budget
    if marks is None:
        written, sent = {}, 0
        digest = fingerprint(
            checker.protocol, checker.invariant, checker.config, pass_.initial_system
        )
    else:
        written, sent, digest = marks.stores, marks.messages, marks.fingerprint
    log = pass_.network.messages_since(0)
    symmetry = None
    if pass_._symmetry is not None:
        symmetry = {
            "orbit_hits": pass_._symmetry.orbit_hits,
            "seen": sorted(
                [list(pair) for pair in key] for key in pass_._symmetry._seen
            ),
        }
    nodes = pass_.space.node_ids
    payload = {
        "fingerprint": digest,
        "algorithm": checker.algorithm,
        "reason": reason,
        "pass_completed": pass_completed,
        "pass_reason": pass_reason,
        "budget": {
            "max_depth": budget.max_depth,
            "max_seconds": budget.max_seconds,
            "max_transitions": budget.max_transitions,
            "max_states": budget.max_states,
        },
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
            "retained_bytes": pass_._retained_bytes,
            "stats": _encode_stats(pass_.stats),
            "stores": [
                [node, _encode_store(pass_.space.store(node), written.get(node))]
                for node in nodes
            ],
            "network": {
                "suppressed_duplicates": pass_.network.suppressed_duplicates,
                "retained_bytes": pass_.network.retained_bytes(),
                "messages": [
                    {
                        "message": encode_value(stored.message),
                        "hash": stored.hash,
                        "cursor": stored.cursor,
                        "deferred": sorted(stored.deferred),
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
            [key, sorted(cursor.deferred)]
            for key, cursor in cursors
            if sweep.per_node or cursor.deferred
        ]
    if marks is not None:
        payload["marks"] = {
            "round": marks.round,
            "stores": [[node, len(written[node])] for node in nodes],
            "messages": sent,
        }
        payload["pass"]["network"]["cursors"] = [
            [stored.cursor, sorted(stored.deferred)] for stored in log[:sent]
        ]
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
    reinstated state.
    """
    if registry is None:
        registry = registry_for_protocol(pass_.checker.protocol)
    data = payload["pass"]

    for node, store_data in data["stores"]:
        store = pass_.space.store(node)
        for row in store_data["records"]:
            record = store.restore_record(
                state=decode_value(row["state"], registry),
                state_hash=row["hash"],
                depth=row["depth"],
                local_depth=row["local_depth"],
                history=frozenset(row["history"]),
                crashes=row["crashes"],
                crashed=row["crashed"],
                seed=row["seed"],
                discarded=row["discarded"],
                state_size=row["state_size"],
            )
            for link_row in row["predecessors"]:
                record.add_predecessor(
                    PredecessorLink(
                        prev_hash=link_row["prev_hash"],
                        event=decode_event(link_row["event"], registry),
                        event_hash=link_row["event_hash"],
                        consumed_hash=link_row["consumed_hash"],
                        generated_hashes=tuple(link_row["generated_hashes"]),
                    )
                )
        store.finalize_restore(store_data["version"])

    network = data["network"]
    pass_.network.restore(
        (
            (
                decode_value(row["message"], registry),
                row["hash"],
                row["cursor"],
                row["deferred"],
                row["duplicate"],
            )
            for row in network["messages"]
        ),
        suppressed_duplicates=network["suppressed_duplicates"],
        retained_bytes=network["retained_bytes"],
    )

    apply_stats(pass_.stats, data["stats"])
    pass_.round_number = data["round_number"]
    pass_.blocked_by_bound = data["blocked_by_bound"]
    pass_._blocked_by_depth = data["blocked_by_depth"]
    pass_._dup_seq_cursor = data["dup_seq_cursor"]
    pass_._retained_bytes = data["retained_bytes"]
    for sweep in CURSOR_SWEEPS:
        cursors = pass_.cursors[sweep.name]
        for key, position in data[f"{sweep.name}_cursor"]:
            cursors[key] = Cursor(position)
        for key, indexes in data[f"{sweep.name}_deferred"]:
            cursors[key].deferred = set(indexes)
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
        pass_._symmetry.orbit_hits = symmetry["orbit_hits"]
        pass_._symmetry._seen = {
            tuple(tuple(pair) for pair in key) for key in symmetry["seen"]
        }

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


def save_checkpoint(path: str, payload: Dict[str, Any]) -> None:
    """Write one line of the checkpoint log at ``path``.

    A full snapshot replaces the file atomically (see
    :func:`repro.fsio.atomic_write_text`): readers observe either the
    previous complete log or the new base, never a truncated one.  A segment
    — a payload carrying ``marks`` — is appended and fsynced; a kill
    mid-append leaves a torn last line, which :func:`load_checkpoint` drops,
    so the file then reads as the previous round boundary.

    Lines are compact JSON (``indent=None``): checkpoints are machine
    artifacts, and on the Fig. 10 d=6 snapshot that is ~3x smaller and a
    tenth of the encode time of the bug corpus's indented form.  Key order
    stays sorted, keeping the bytes canonical for the round-trip property
    test.
    """
    envelope = dict(payload, format=CHECKPOINT_KIND, version=CHECKPOINT_FORMAT_VERSION)
    line = json.dumps(envelope, sort_keys=True, default=str) + "\n"
    if "marks" in payload:
        append_text(path, line)
    else:
        atomic_write_text(path, line)


def _fold(folded: Optional[Dict[str, Any]], line: Dict[str, Any]) -> Dict[str, Any]:
    """The payload read so far with one more parsed log line applied.

    The result is what a full :func:`snapshot_pass` of the line's round
    holds: a segment's own dictionary, with the append-only lists it
    continues spliced in front of what it adds.
    """
    if line.get("format") != CHECKPOINT_KIND:
        raise CheckpointError(
            f"expected a {CHECKPOINT_KIND!r} payload, found {line.get('format')!r}"
        )
    version = line.get("version")
    # A version-2 file is a version-3 base line with nothing after it.
    if version != CHECKPOINT_FORMAT_VERSION and (version != 2 or folded is not None):
        raise CheckpointError(
            f"unsupported {CHECKPOINT_KIND} version {version!r} (this reader "
            f"understands version {CHECKPOINT_FORMAT_VERSION} and version-2 files)"
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
    if folded is None:
        line["version"] = CHECKPOINT_FORMAT_VERSION
        return line
    if line["fingerprint"] != folded["fingerprint"]:
        raise CheckpointError("segment of another run (its fingerprint differs)")
    data, delta = folded["pass"], line["pass"]
    messages = data["network"]["messages"]
    held = {
        "round": data["round_number"],
        "stores": [[node, len(store["records"])] for node, store in data["stores"]],
        "messages": len(messages),
    }
    cursors = delta["network"].pop("cursors")
    if marks != held or len(cursors) != len(messages):
        raise CheckpointError(
            f"segment built against {marks} but the log holds {held}: "
            "a gap, a duplicate or another writer"
        )
    for (_, store), (_, gained) in zip(data["stores"], delta["stores"]):
        records = store["records"]
        for index, links, discarded in gained.pop("grown"):
            records[index]["predecessors"] += links
            records[index]["discarded"] = discarded
        records += gained["records"]
        gained["records"] = records
    for row, (cursor, deferred) in zip(messages, cursors):
        row["cursor"], row["deferred"] = cursor, deferred
    messages += delta["network"]["messages"]
    delta["network"]["messages"] = messages
    return line


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Read the checkpoint log at ``path`` into one snapshot payload, strictly.

    Streams the file line by line through :func:`_fold`.  Only the *final*
    line may be unterminated or unparseable — the kill-mid-append case,
    dropped — anything wrong earlier, or wrong in a line that did parse, is
    a :class:`CheckpointError` naming the line.
    """
    folded: Optional[Dict[str, Any]] = None
    torn: Optional[str] = None
    # Bytes, not text: a damaged byte must fail inside the loop, on its line.
    with open(path, "rb") as handle:
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
                folded = _fold(folded, line)
            except CheckpointError as exc:
                raise CheckpointError(f"{path}:{number}: {exc}") from None
            except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
                raise CheckpointError(
                    f"{path}:{number}: malformed line ({exc!r})"
                ) from None
    if folded is None:
        raise CheckpointError(torn or f"{path}: empty file")
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
        """
        marks = self._marks
        if marks is not None and marks.pass_ is not pass_:
            marks = None
        payload = snapshot_pass(pass_, reason, pass_completed, pass_reason, marks=marks)
        self.write(payload)
        self._marks = _Marks(pass_, payload["fingerprint"])

    def write(self, payload: Dict[str, Any]) -> None:
        """Persist one snapshot and record it for heartbeat reporting."""
        appended = "marks" in payload
        before = os.path.getsize(self.path) if appended else 0
        save_checkpoint(self.path, payload)
        self.bytes_written += os.path.getsize(self.path) - before
        self.segments = self.segments + 1 if appended else 0
        self.writes += 1
        self.last_round = payload["pass"]["round_number"]
