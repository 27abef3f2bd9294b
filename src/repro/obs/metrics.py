"""Typed metrics: counters, gauges and log-bucketed histograms.

A per-rank :class:`MetricsRegistry` is the always-on, constant-memory
side of the observability layer (the ScALPEL argument: aggregates stay
cheap when event streams would not).  Instruments are keyed by
``(name, sorted labels)``; registries from all ranks merge into one
cross-rank view; both JSON and Prometheus text exposition are provided
so snapshots drop straight into CI artifacts or a scrape endpoint.

Histogram buckets are **fixed at creation** (default: log-spaced, three
per decade across 1 us .. 10 s) so merging across ranks is exact — two
histograms merge bucket-by-bucket only because they share bounds.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from typing import Any, Iterable, Mapping

LabelKey = tuple[tuple[str, str], ...]


def log_buckets(lo: float = 1.0, hi: float = 1e7, per_decade: int = 3) -> tuple[float, ...]:
    """Fixed log-spaced bucket upper bounds covering [lo, hi]."""
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got lo={lo}, hi={hi}")
    if per_decade < 1:
        raise ValueError(f"per_decade must be >= 1, got {per_decade}")
    n = int(math.ceil(math.log10(hi / lo) * per_decade))
    return tuple(lo * 10 ** (k / per_decade) for k in range(n + 1))


def _label_key(labels: Mapping[str, Any]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing count (calls, bytes, faults...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount


class Gauge:
    """Point-in-time value (queue depth, buffer occupancy...)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-bucket histogram with sum and count.

    ``bucket_counts[i]`` counts observations ``<= bounds[i]`` (non-
    cumulative storage; exposition cumulates); the implicit final bucket
    is +Inf.
    """

    __slots__ = ("bounds", "bucket_counts", "inf_count", "total", "count")

    def __init__(self, bounds: Iterable[float] | None = None) -> None:
        b = tuple(bounds) if bounds is not None else log_buckets()
        if not b or any(b[i] >= b[i + 1] for i in range(len(b) - 1)):
            raise ValueError(f"bucket bounds must be strictly increasing, got {b}")
        self.bounds = b
        self.bucket_counts = [0] * len(b)
        self.inf_count = 0
        self.total = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        # First bound >= value; NaN compares false everywhere, so bisect
        # would file it under bucket 0 - it belongs in +Inf.
        i = bisect_left(self.bounds, value)
        if i == len(self.bounds) or value != value:
            self.inf_count += 1
        else:
            self.bucket_counts[i] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Approximate quantile from bucket upper bounds (+Inf -> last bound)."""
        if not (0.0 <= q <= 1.0):
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for bound, c in zip(self.bounds, self.bucket_counts):
            seen += c
            if seen >= target:
                return bound
        return self.bounds[-1]


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """All instruments of one rank (or of a cross-rank merge).

    Instruments are created on first use and looked up by
    ``(name, labels)`` afterwards; a name is bound to one kind (asking
    for a counter named like an existing gauge raises).
    """

    def __init__(self, rank: int | None = None) -> None:
        self.rank = rank
        self._instruments: dict[tuple[str, LabelKey], Any] = {}
        self._kinds: dict[str, str] = {}
        self._help: dict[str, str] = {}
        self._bounds: dict[str, tuple[float, ...]] = {}

    # ------------------------------------------------------------ access
    def _get(self, kind: str, name: str, labels: Mapping[str, Any],
             help: str = "", bounds: Iterable[float] | None = None) -> Any:
        known = self._kinds.get(name)
        if known is None:
            self._kinds[name] = kind
            if help:
                self._help[name] = help
        elif known != kind:
            raise ValueError(f"metric {name!r} already registered as {known}, not {kind}")
        key = (name, _label_key(labels))
        inst = self._instruments.get(key)
        if inst is None:
            if kind == "histogram":
                b = tuple(bounds) if bounds is not None else self._bounds.get(name)
                if b is None:
                    b = log_buckets()
                self._bounds.setdefault(name, b)
                inst = Histogram(self._bounds[name])
            else:
                inst = _KINDS[kind]()
            self._instruments[key] = inst
        return inst

    def counter(self, name: str, help: str = "", **labels: Any) -> Counter:
        return self._get("counter", name, labels, help)

    def gauge(self, name: str, help: str = "", **labels: Any) -> Gauge:
        return self._get("gauge", name, labels, help)

    def histogram(self, name: str, help: str = "",
                  bounds: Iterable[float] | None = None, **labels: Any) -> Histogram:
        return self._get("histogram", name, labels, help, bounds)

    def series(self) -> list[tuple[str, LabelKey, Any]]:
        """All (name, labels, instrument) triples, sorted for stable output."""
        return [(n, lk, inst) for (n, lk), inst in sorted(self._instruments.items())]

    # ------------------------------------------------------- exposition
    def snapshot(self) -> dict[str, Any]:
        """JSON-able snapshot of every instrument."""
        out: dict[str, Any] = {"rank": self.rank, "metrics": []}
        for name, lk, inst in self.series():
            entry: dict[str, Any] = {
                "name": name,
                "kind": self._kinds[name],
                "labels": dict(lk),
            }
            if isinstance(inst, Histogram):
                entry.update(
                    bounds=list(inst.bounds),
                    bucket_counts=list(inst.bucket_counts),
                    inf_count=inst.inf_count,
                    sum=inst.total,
                    count=inst.count,
                )
            else:
                entry["value"] = inst.value
            out["metrics"].append(entry)
        return out

    def to_json(self, indent: int | None = 1) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def state(self) -> dict[str, Any]:
        """:meth:`snapshot` plus the help texts: what :meth:`from_state`
        rebuilds the registry from."""
        return {**self.snapshot(), "help": dict(self._help)}

    @classmethod
    def from_state(cls, state: Mapping[str, Any]) -> "MetricsRegistry":
        reg = cls(rank=state["rank"])
        for e in state["metrics"]:
            help = state["help"].get(e["name"], "")
            if e["kind"] == "histogram":
                h = reg.histogram(e["name"], help, e["bounds"], **e["labels"])
                h.bucket_counts = list(e["bucket_counts"])
                h.inf_count, h.total, h.count = e["inf_count"], e["sum"], e["count"]
            else:
                reg._get(e["kind"], e["name"], e["labels"], help).value = e["value"]
        return reg

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (v0.0.4)."""
        lines: list[str] = []
        by_name: dict[str, list[tuple[LabelKey, Any]]] = {}
        for name, lk, inst in self.series():
            by_name.setdefault(name, []).append((lk, inst))
        for name in sorted(by_name):
            if name in self._help:
                lines.append(f"# HELP {name} {self._help[name]}")
            lines.append(f"# TYPE {name} {self._kinds[name]}")
            # A name's histograms share bounds: format them once per name.
            les: list[str] | None = None
            for lk, inst in by_name[name]:
                labels = dict(lk)
                if self.rank is not None:
                    labels.setdefault("rank", str(self.rank))
                text = _fmt_labels(labels)
                if isinstance(inst, Histogram):
                    if les is None:
                        les = [_fmt_num(b) for b in inst.bounds] + ["+Inf"]
                    head, tail = _le_split(labels)
                    counts = [*inst.bucket_counts, inst.inf_count]
                    cum = 0
                    for le, c in zip(les, counts):
                        cum += c
                        lines.append(f"{name}_bucket{head}{le}{tail} {cum}")
                    lines.append(f"{name}_sum{text} {_fmt_num(inst.total)}")
                    lines.append(f"{name}_count{text} {inst.count}")
                else:
                    lines.append(f"{name}{text} {_fmt_num(inst.value)}")
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------- merge
    def merge_from(self, other: "MetricsRegistry") -> None:
        """Accumulate another registry into this one.

        Counters and histograms add (histograms must share bounds);
        gauges take the maximum — a merged gauge answers "what was the
        largest per-rank value", the only aggregate that is meaningful
        without per-rank context.
        """
        for name, kind in other._kinds.items():
            known = self._kinds.get(name)
            if known is not None and known != kind:
                raise ValueError(
                    f"cannot merge metric {name!r}: kind {kind} vs {known}")
        for (name, lk), inst in other._instruments.items():
            kind = other._kinds[name]
            mine = self._get(kind, name, dict(lk),
                             other._help.get(name, ""),
                             other._bounds.get(name))
            if kind == "counter":
                mine.value += inst.value
            elif kind == "gauge":
                mine.value = max(mine.value, inst.value)
            else:
                if mine.bounds != inst.bounds:
                    raise ValueError(
                        f"cannot merge histogram {name!r}: bucket bounds differ")
                for i, c in enumerate(inst.bucket_counts):
                    mine.bucket_counts[i] += c
                mine.inf_count += inst.inf_count
                mine.total += inst.total
                mine.count += inst.count


def merge_registries(registries: Iterable[MetricsRegistry]) -> MetricsRegistry:
    """Cross-rank merge: one registry with summed counters/histograms."""
    merged = MetricsRegistry(rank=None)
    for reg in registries:
        merged.merge_from(reg)
    return merged


def _fmt_num(v: float) -> str:
    return str(int(v)) if float(v).is_integer() and abs(v) < 1e15 else repr(float(v))


def _fmt_labels(labels: Mapping[str, str], **extra: str) -> str:
    all_labels = {**labels, **extra}
    if not all_labels:
        return ""
    body = ",".join(f'{k}="{v}"' for k, v in sorted(all_labels.items()))
    return "{" + body + "}"


def _le_split(labels: Mapping[str, str]) -> tuple[str, str]:
    """A bucket line's label text before and after its ``le`` value."""
    pairs = [(k, f'{k}="{v}"') for k, v in sorted(labels.items()) if k != "le"]
    head = "".join(f"{p}," for k, p in pairs if k < "le")
    tail = "".join(f",{p}" for k, p in pairs if k > "le")
    return "{" + head + 'le="', '"' + tail + "}"
