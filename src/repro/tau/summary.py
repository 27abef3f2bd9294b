"""FUNCTION SUMMARY rendering (paper Figure 3).

Averages per-rank timer snapshots ("Timings have been averaged over all the
processors") and renders the TAU-style mean summary table with the same
columns: %Time, exclusive msec, inclusive total msec, #Call, inclusive
usec/call, name.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.tau.timer import TimerStats
from repro.util.tabular import format_table


def merge_snapshots(snapshots: Sequence[Mapping[str, TimerStats]]) -> dict[str, TimerStats]:
    """Mean-over-ranks merge of per-rank timer snapshots.

    Times are means; timers absent on a rank contribute zero (divisor is
    always the number of ranks, as TAU's mean profile does).  ``calls``
    stays the total across ranks.
    """
    if not snapshots:
        raise ValueError("no snapshots to merge")
    n = len(snapshots)
    merged: dict[str, TimerStats] = {}
    for snap in snapshots:
        for name, stats in snap.items():
            acc = merged.get(name)
            if acc is None:
                merged[name] = acc = TimerStats(name=name, group=stats.group)
            acc.add(stats)
    for stats in merged.values():
        stats.inclusive_us /= n
        stats.exclusive_us /= n
    return merged


def summary_rows(
    merged: Mapping[str, TimerStats],
    nranks: int = 1,
    total_name: str | None = None,
) -> list[tuple[float, float, float, float, float, str]]:
    """Figure 3 rows sorted by inclusive time, descending.

    Returns ``(pct_time, excl_msec, incl_msec, mean_calls, usec_per_call,
    name)`` tuples.  ``total_name`` selects the 100% reference timer; by
    default the largest inclusive time is used (the ``main`` timer in the
    paper's profile).
    """
    if not merged:
        return []
    if total_name is not None:
        if total_name not in merged:
            raise KeyError(f"total timer {total_name!r} not present in profile")
        total_us = merged[total_name].inclusive_us
    else:
        total_us = max(t.inclusive_us for t in merged.values())
    rows = []
    for t in sorted(merged.values(), key=lambda s: -s.inclusive_us):
        mean_calls = t.calls / nranks
        usec_per_call = t.inclusive_us / mean_calls if mean_calls else 0.0
        pct = 100.0 * t.inclusive_us / total_us if total_us > 0 else 0.0
        rows.append((pct, t.exclusive_us / 1000.0, t.inclusive_us / 1000.0,
                     mean_calls, usec_per_call, t.name))
    return rows


def function_summary(
    snapshots: Sequence[Mapping[str, TimerStats]],
    total_name: str | None = None,
) -> str:
    """Render the mean FUNCTION SUMMARY table across ranks."""
    merged = merge_snapshots(snapshots)
    rows = summary_rows(merged, nranks=len(snapshots), total_name=total_name)
    table_rows = [
        (f"{pct:5.1f}", f"{excl:,.0f}", f"{incl:,.0f}", f"{calls:g}", f"{upc:,.0f}", name)
        for pct, excl, incl, calls, upc, name in rows
    ]
    return format_table(
        ["%Time", "Exclusive msec", "Inclusive total msec", "#Call", "usec/call", "Name"],
        table_rows,
        title="FUNCTION SUMMARY (mean):",
    )
