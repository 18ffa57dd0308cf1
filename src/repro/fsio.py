"""Crash-safe file writes shared by every durable artifact in the library.

The bug corpus (:mod:`repro.persistence`), the run registry's heartbeat and
result snapshots (:mod:`repro.obs.registry`), and the coverage reports all
share one durability requirement: a reader — possibly in another process,
possibly after this one was SIGKILLed — must see either the complete old
file or the complete new one, never a prefix.

:func:`atomic_write_text` implements the standard POSIX recipe once: write
to a same-directory temporary file, flush, fsync, then rename over the
destination with :func:`os.replace` (atomic within one filesystem).
:func:`atomic_write_json` layers JSON encoding on top.  Both clean up the
temporary file on any failure, so an aborted write leaves no debris next to
the artifact it failed to replace.

:func:`append_text` is the log-structured counterpart (the checkpoint log of
docs/CHECKPOINTS.md): bytes are added to the end of an existing file and
fsynced.  A kill mid-append leaves a torn *tail*, never a damaged prefix, so
the writer must frame its appends (one newline-terminated line each) and the
reader must drop an incomplete last frame.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Any, Optional


def atomic_write_text(path: str, text: str) -> None:
    """Replace ``path``'s contents with ``text`` atomically.

    The payload lands in a same-directory temporary file first (``os.replace``
    is only atomic within one filesystem), is flushed and fsynced so the
    rename never outruns the data, and then renamed over ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
    )
    try:
        with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(temp_path, path)
    except BaseException:
        try:
            os.unlink(temp_path)
        except OSError:
            pass
        raise


def append_text(path: str, text: str) -> None:
    """Append ``text`` to ``path`` and fsync it before returning."""
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(text)
        handle.flush()
        os.fsync(handle.fileno())


def atomic_write_json(
    path: str,
    payload: Any,
    indent: Optional[int] = None,
    sort_keys: bool = True,
) -> None:
    """Serialize ``payload`` as JSON and write it atomically to ``path``."""
    atomic_write_text(
        path, json.dumps(payload, indent=indent, sort_keys=sort_keys, default=str)
    )


def read_json(path: str) -> Optional[Any]:
    """Load a JSON file, returning ``None`` when missing or unparseable.

    Registry readers poll files another process is actively replacing;
    with :func:`atomic_write_json` writers a torn read is impossible, but a
    crashed *first* write (no previous version to fall back to) or a hand-
    edited file still must not take the whole status surface down.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError):
        return None
