"""Judge two result files: one row per workload and end-to-end metric.

Each file holds a list of run records (``bench.py run --json`` appends
one per run).  A side with several records is compared on its per-run
values; a side with one record on that run's raw repetition samples.

Verdicts follow the choosing-metrics rule: ``regressed`` when B's median
is worse than A's by more than the metric's bound; ``unresolved`` when
the spread between runs is wider than the bound and the two sides
overlap, so the data cannot tell; ``ok`` otherwise.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Callable


def _samples(records: list[dict[str, Any]], workload: str,
             name: str) -> list[float]:
    runs = [r["results"][workload]["metrics"][name] for r in records
            if not r["trace"] and workload in r["results"]]
    if len(runs) == 1:
        return runs[0]["samples"]
    return [m["value"] for m in runs]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return (values[0],) * 3
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _failed_share(records: list[dict[str, Any]], workload: str) -> float:
    runs = [r["results"][workload] for r in records
            if workload in r["results"]]
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def verdict(a: list[float], b: list[float], bound: float,
            lower_is_better: bool) -> tuple[str, float, float]:
    """``(verdict, worsening, spread)``; worsening and spread are shares
    of A's median, worsening positive when B is worse."""
    qa1, med_a, qa3 = quartiles(a)
    qb1, med_b, qb3 = quartiles(b)
    sign = 1.0 if lower_is_better else -1.0
    worse = sign * (med_b - med_a) / med_a
    spread = max(qa3 - qa1, qb3 - qb1) / med_a
    overlap = min(a) <= max(b) and min(b) <= max(a)
    if spread > bound and overlap:
        return "unresolved", worse, spread
    return ("regressed" if worse > bound else "ok"), worse, spread


def main(path_a: str, path_b: str, spec: dict[str, Any],
         emit: Callable[[str], None]) -> int:
    with open(path_a, encoding="utf-8") as fh:
        rec_a = json.load(fh)
    with open(path_b, encoding="utf-8") as fh:
        rec_b = json.load(fh)
    few_cores = min(r["host"]["nproc"] for r in rec_a + rec_b) < 2
    bad = False
    emit(f"A = {path_a} ({len(rec_a)} run(s))   B = {path_b} "
         f"({len(rec_b)} run(s))   delta and spread are shares of A's median")
    emit(f"{'workload':<15} {'metric':<12} {'A median [q1, q3]':>34} "
         f"{'B median [q1, q3]':>34} {'delta':>8} {'spread':>7} "
         f"{'bound':>6}  verdict")
    for w in spec["workloads"]:
        name = w["name"]
        if not any(name in r["results"] for r in rec_a) or \
                not any(name in r["results"] for r in rec_b):
            continue
        for m in spec["end_to_end"]:
            a = _samples(rec_a, name, m["name"])
            b = _samples(rec_b, name, m["name"])
            v, worse, spread = verdict(a, b, m["bound"], m["better"] == "lower")
            if name == "mpshm_bare" and few_cores and m["name"] == "run_wall_s":
                v = "unresolved"  # forked ranks shared one core
            bad |= v == "regressed"
            qa, qb = quartiles(a), quartiles(b)
            emit(f"{name:<15} {m['name']:<12} "
                 f"{qa[1]:>12.5g} [{qa[0]:>8.5g}, {qa[2]:>8.5g}] "
                 f"{qb[1]:>12.5g} [{qb[0]:>8.5g}, {qb[2]:>8.5g}] "
                 f"{worse:>+8.1%} {spread:>7.1%} {m['bound']:>6.0%}  {v}")
        fa, fb = _failed_share(rec_a, name), _failed_share(rec_b, name)
        if fa or fb:
            emit(f"{name:<15} failed_share A {fa:.4f}  B {fb:.4f}")
        bad |= fb > fa
    return 1 if bad else 0
