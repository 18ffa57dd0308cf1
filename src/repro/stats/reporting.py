"""Plain-text rendering of figures and tables for the benchmark harness.

The benches do not plot; they *print* the same rows/series the paper's
figures plot, in aligned monospace tables, and the EXPERIMENTS.md entries
paste these verbatim.  Keeping the renderer tiny and dependency-free means
bench output is stable across environments.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.stats.series import DepthSeries

#: Canonical phase order for Fig. 13-style tables.
PHASE_ORDER = ("explore", "system_states", "soundness")


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Render an aligned monospace table.

    Numbers are right-aligned and floats shortened; everything else is
    left-aligned.  Returns the table as a single string (no trailing
    newline).
    """
    rendered_rows: List[List[str]] = []
    for row in rows:
        rendered_rows.append([_render_cell(cell) for cell in row])
    widths = [len(header) for header in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(header.ljust(widths[i]) for i, header in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        line = []
        for i, cell in enumerate(row):
            if _looks_numeric(cell):
                line.append(cell.rjust(widths[i]))
            else:
                line.append(cell.ljust(widths[i]))
        lines.append("  ".join(line))
    return "\n".join(lines)


def format_depth_series(
    series_list: Sequence[DepthSeries], metric: str, title: str
) -> str:
    """Render several algorithms' per-depth series as one table.

    One row per depth appearing in any series; one column per algorithm;
    missing cells (an algorithm that never completed that depth) render as
    ``-``, exactly as a truncated curve reads on the paper's log-scale plots.
    """
    depths = sorted({d for series in series_list for d in series.depths()})
    headers = ["depth"] + [series.label for series in series_list]
    rows = []
    for depth in depths:
        row: List[object] = [depth]
        for series in series_list:
            sample = series.at_depth(depth)
            if sample is None:
                row.append("-")
            elif metric == "elapsed_s":
                row.append(sample.elapsed_s)
            else:
                row.append(sample.get(metric))
        rows.append(row)
    return f"{title}\n{format_table(headers, rows)}"


def overhead_breakdown(
    phase_seconds: Dict[str, float]
) -> List[Tuple[str, float, float]]:
    """Fig. 13 shares: ``(phase, seconds, fraction-of-total)`` rows.

    Phases appear in canonical order first, then any extra buckets
    alphabetically; fractions are of the summed phase time (0.0 when the
    total is zero).  Negative residue from the checker's compensation
    arithmetic is clamped at zero seconds.
    """
    ordered = [name for name in PHASE_ORDER if name in phase_seconds]
    ordered += sorted(set(phase_seconds) - set(PHASE_ORDER))
    rows = [(name, max(0.0, phase_seconds[name])) for name in ordered]
    total = sum(seconds for _name, seconds in rows)
    return [
        (name, seconds, (seconds / total) if total > 0 else 0.0)
        for name, seconds in rows
    ]


def format_phase_breakdown(phase_seconds: Dict[str, float]) -> str:
    """The Fig. 13 overhead decomposition as a table.

    One row per phase bucket (exploration, system-state creation, soundness
    verification, plus any extra buckets a caller accumulated), with wall
    seconds and the share of the summed phase time.  Returns ``""`` when no
    phase was timed, so callers can print it unconditionally.
    """
    rows = [
        (name, seconds, f"{share * 100:.1f}%")
        for name, seconds, share in overhead_breakdown(phase_seconds)
    ]
    if not rows:
        return ""
    return format_table(["phase", "seconds", "share"], rows)


def _render_cell(cell: object) -> str:
    if isinstance(cell, bool):
        return "yes" if cell else "no"
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 1:
            return f"{cell:.3g}"
        return f"{cell:.4g}"
    if isinstance(cell, int):
        return f"{cell:,}"
    return str(cell)


def _looks_numeric(cell: str) -> bool:
    stripped = cell.replace(",", "").replace(".", "").replace("-", "")
    stripped = stripped.replace("e", "").replace("+", "")
    return stripped.isdigit() and cell not in ("-",)
