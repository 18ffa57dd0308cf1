"""``bench/run.py --compare OLD.json NEW.json``: how does this run compare.

One row per (workload, end-to-end metric) with both medians, their min..max,
the ratio with its base, the bound from ``BENCHMARK.json`` and a verdict:

* ``worse``       NEW's median is worse than OLD's by more than the bound;
* ``better``      every NEW repetition reads better than every OLD one, and
                  the medians differ by more than OLD's own min..max range;
* ``unresolved``  the run-to-run spread of either side exceeds the bound and
                  the two ranges overlap — the runs cannot tell;
* ``within``      anything else.

Per-layer deltas follow: counts that moved at all, times and ratios that
moved by 10% or more (each is one traced repetition, so smaller moves are
this box's noise; ten alternating pairs, not this table, support a claim).
"""

from __future__ import annotations

from typing import Any, Dict, List

#: Per-layer times and ratios are single traced runs: a smaller relative
#: change, or a time under ``LAYER_FLOOR_S`` on both sides, is noise.
LAYER_NOISE = 0.10
LAYER_FLOOR_S = 0.01


def verdict(old: Dict[str, float], new: Dict[str, float], bound: float, better: str) -> str:
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (new["median"] - old["median"]) / abs(old["median"])
    spread = max(
        (side["max"] - side["min"]) / abs(side["median"]) for side in (old, new)
    )
    if better == "lower":
        apart_better, apart_worse = new["max"] < old["min"], new["min"] > old["max"]
    else:
        apart_better, apart_worse = new["min"] > old["max"], new["max"] < old["min"]
    if spread > bound and not (apart_better or apart_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if apart_better and abs(new["median"] - old["median"]) > old["max"] - old["min"]:
        return "better"
    return "within"


def _side(summary: Dict[str, float]) -> str:
    return (
        f"{summary['median']:.4g} [{summary['min']:.4g}..{summary['max']:.4g}] "
        f"n={summary['n']}"
    )


def compare(old: Dict[str, Any], new: Dict[str, Any], spec: Dict[str, Any]) -> int:
    """Print the comparison; return how many rows read ``worse``."""
    worse = 0
    rows: List[List[str]] = [
        ["workload", "metric", "old", "new", "new/old (base)", "bound", "verdict"]
    ]
    shared = [name for name in old["workloads"] if name in new["workloads"]]
    for name in shared:
        before, after = old["workloads"][name], new["workloads"][name]
        for metric in spec["end_to_end"]:
            a, b = before["end_to_end"][metric["name"]], after["end_to_end"][metric["name"]]
            outcome = verdict(a, b, metric["bound"], metric["better"])
            worse += outcome == "worse"
            rows.append(
                [
                    name,
                    metric["name"],
                    _side(a),
                    _side(b),
                    f"{b['median'] / a['median']:.3f} ({a['median']:.4g} {metric['unit']})",
                    f"+{metric['bound']:.0%}",
                    outcome,
                ]
            )
        # Failed ops over attempted ops: any increase is a regression.
        outcome = "worse" if after["fail_share"] > before["fail_share"] else "within"
        worse += outcome == "worse"
        rows.append(
            [
                name,
                "fail_share",
                f"{before['failed']}/{before['attempted']}",
                f"{after['failed']}/{after['attempted']}",
                "-",
                "any increase",
                outcome,
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())

    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    for name in shared:
        before = old["workloads"][name]["per_layer"]
        after = new["workloads"][name]["per_layer"]
        if not before or not after:
            continue
        moved = []
        for metric, unit in units.items():
            a, b = before[metric], after[metric]
            if a == b:
                continue
            change = (b - a) / abs(a) if a else float("inf")
            if unit == "s" and max(a, b) < LAYER_FLOOR_S:
                continue
            if unit == "count" or abs(change) >= LAYER_NOISE:
                moved.append(f"  {metric:<48} {a:>14.6g} -> {b:<14.6g} {unit:<6} {change:+.1%}")
        print(f"\n{name}: per-layer, {len(units) - len(moved)} of {len(units)} unchanged")
        print("\n".join(moved))
    return worse
