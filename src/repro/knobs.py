"""Declared settings: dataclass fields that carry their own range.

:class:`~repro.core.config.LMCConfig` and
:class:`~repro.explore.budget.SearchBudget` declare each bounded field with
:func:`knob` and check every declared minimum with :func:`check_minimums`.
The module imports nothing of :mod:`repro`, so both can use it without an
import cycle.
"""

from __future__ import annotations

from dataclasses import field, fields
from typing import Any, Optional


def knob(
    default: Any,
    minimum: Optional[int] = None,
    flag: Optional[str] = None,
    help: Optional[str] = None,
) -> Any:
    """A field with its declaration: ``minimum`` is the smallest value it
    takes (``None`` stays legal where the field is ``Optional``); ``flag``
    and ``help`` are its command-line option."""
    return field(default=default, metadata={"minimum": minimum, "flag": flag, "help": help})


def check_minimums(settings: Any) -> None:
    """Raise ``ValueError`` naming the first field of the dataclass
    ``settings`` whose value is below its declared minimum; NaN is below
    every minimum."""
    for declared in fields(settings):
        minimum = declared.metadata.get("minimum")
        value = getattr(settings, declared.name)
        if minimum is None or (value is None and declared.type.startswith("Optional")):
            continue
        if not value >= minimum:
            raise ValueError(f"{declared.name} must be >= {minimum}, got {value!r}")
