"""Views of run records: the Chrome trace, the metrics, the validator.

:func:`write_trace` / :func:`write_metrics` render the CI artifacts
(Perfetto JSON, metrics JSON + Prometheus text) from
:class:`~repro.obs.record.RunRecord` lists, every metrics view folded by
:func:`rank_metrics`; :func:`validate_chrome_payload` is the schema gate
CI fails on (monotone timestamps, balanced B/E per track, resolvable
flow ids).

This is the only module that knows the Chrome/Perfetto trace-event
format: :func:`chrome_trace_from_spans` / :func:`dump_chrome_trace_spans`
render any span list (a run's merged trace, a flight-recorder window,
one rank's trace with its fault marks) and the validator reads the same
format back.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.obs.critical_path import flow_edges
from repro.obs.metrics import MetricsRegistry, merge_registries
from repro.obs.record import RunRecord, rank_record
from repro.obs.runtime import RankObs
from repro.obs.span import FlowPoint, Span
from repro.util.atomicio import atomic_write_text


# ----------------------------------------------------------------- exporter
def _truncation_events(dropped_counts: Mapping[int, int] | None) -> list[dict]:
    """Loud per-rank instant events announcing dropped history."""
    events: list[dict] = []
    for rank, n in sorted((dropped_counts or {}).items()):
        if n:
            events.append({
                "name": f"TRACE TRUNCATED: rank {rank} dropped {n} record(s)",
                "ph": "i", "s": "g", "pid": 0, "tid": rank, "ts": 0.0,
                "args": {"dropped": n},
            })
    return events


def _span_depth(span: Span, by_id: Mapping[int, Span]) -> int:
    depth, pid = 0, span.parent_id
    while pid is not None and depth < 64:
        anc = by_id.get(pid)
        if anc is None:
            break
        depth, pid = depth + 1, anc.parent_id
    return depth


def chrome_trace_from_spans(spans: Sequence[Span],
                            flows: Sequence[FlowPoint] = (),
                            process_name: str = "repro",
                            dropped_counts: Mapping[int, int] | None = None,
                            ) -> list[dict]:
    """Render spans + causal flow edges as Chrome/Perfetto trace events.

    The produced JSON loads directly into ``chrome://tracing`` or Perfetto
    (https://ui.perfetto.dev); timestamps are microseconds, Chrome's
    native trace unit.  Spans become balanced ``"B"``/``"E"`` duration
    pairs on their rank's thread track (an instant mark — an injected
    fault, a recovery, a checkpoint — is a zero-length span and renders
    as a 1 ns slice with its attributes in ``args``).  Flow points become
    Perfetto flow events: each matched p2p pair is an ``"s"``(send span)
    → ``"f"``(recv span) arrow, and each collective draws arrows from the
    last-arriving participant (the rank whose arrival unblocked the
    collective) to every other participant.  Events are sorted so
    timestamps are globally monotone and same-timestamp events close
    inner-before-outer and open outer-before-inner, keeping every
    track's B/E stream balanced.
    """
    by_id = {s.span_id: s for s in spans}
    meta: list[dict] = [{
        "name": "process_name", "ph": "M", "pid": 0, "tid": 0,
        "args": {"name": process_name},
    }]
    meta.extend(_truncation_events(dropped_counts))
    for rank in sorted({s.rank for s in spans}):
        meta.append({"name": "thread_name", "ph": "M", "pid": 0, "tid": rank,
                     "args": {"name": f"rank {rank}"}})

    # Sort keys: (ts, kind) with kind ordering E(0) < s/f flows(1) < B(2);
    # among E's, deeper spans close first; among B's, shallower open first.
    keyed: list[tuple[float, int, int, dict]] = []
    for s in spans:
        depth = _span_depth(s, by_id)
        t_end = s.t_end_us if s.t_end_us > s.t_start_us else s.t_start_us + 1e-3
        args = {"span_id": s.span_id, "category": s.category}
        if s.attrs:
            args.update(s.attrs)
        base = {"name": s.name, "cat": s.category, "pid": 0, "tid": s.rank}
        keyed.append((s.t_start_us, 2, depth, {**base, "ph": "B",
                                               "ts": s.t_start_us, "args": args}))
        keyed.append((t_end, 0, -depth, {**base, "ph": "E", "ts": t_end}))

    # Causal edges, derived exactly as the critical-path analyzer sees them.
    edge_seq = 0
    for sink_id, srcs in sorted(flow_edges(flows).items()):
        sink = by_id.get(sink_id)
        if sink is None:
            continue
        for src_id in srcs:
            src = by_id.get(src_id)
            if src is None:
                continue  # dropped by the bounded buffer
            edge_seq += 1
            fid = f"flow{edge_seq}"
            ts_out = max(src.t_start_us,
                         (src.t_end_us or src.t_start_us + 1e-3) - 1e-3)
            ts_in = max(sink.t_start_us,
                        (sink.t_end_us or sink.t_start_us + 1e-3) - 1e-3)
            keyed.append((ts_out, 1, 0, {
                "name": "dep", "cat": "flow", "ph": "s", "id": fid,
                "pid": 0, "tid": src.rank, "ts": ts_out}))
            keyed.append((ts_in, 1, 1, {
                "name": "dep", "cat": "flow", "ph": "f", "bp": "e", "id": fid,
                "pid": 0, "tid": sink.rank, "ts": ts_in}))
    keyed.sort(key=lambda kv: (kv[0], kv[1], kv[2]))
    return meta + [ev for _, _, _, ev in keyed]


def dump_chrome_trace_spans(spans: Sequence[Span],
                            flows: Sequence[FlowPoint],
                            path: str,
                            process_name: str = "repro",
                            dropped_counts: Mapping[int, int] | None = None,
                            sampled_out: Mapping[int, int] | None = None) -> str:
    """Atomically write a span trace (with flows) as Chrome/Perfetto JSON."""
    payload: dict = {
        "traceEvents": chrome_trace_from_spans(
            spans, flows, process_name=process_name,
            dropped_counts=dropped_counts),
        "displayTimeUnit": "ms",
        "otherData": {},
    }
    if dropped_counts and any(dropped_counts.values()):
        payload["otherData"]["dropped_spans"] = {
            str(r): n for r, n in sorted(dropped_counts.items()) if n}
    if sampled_out and any(sampled_out.values()):
        payload["otherData"]["sampled_out_spans"] = {
            str(r): n for r, n in sorted(sampled_out.items()) if n}
    return atomic_write_text(path, json.dumps(payload, indent=1))


# ------------------------------------------------------------------ views
def timeline(records: Sequence[RunRecord]) -> tuple[list[Span], list[FlowPoint]]:
    """All ranks' spans, time-ordered, and their flow points."""
    spans = sorted((s for r in records for s in r.spans),
                   key=lambda s: (s.t_start_us, s.rank, s.span_id))
    return spans, [f for r in records for f in r.flows]


def write_trace(records: Sequence[RunRecord], path: str,
                process_name: str = "repro") -> str:
    """Write the records' merged Perfetto trace."""
    spans, flows = timeline(records)
    return dump_chrome_trace_spans(
        spans, flows, path, process_name=process_name,
        dropped_counts={r.rank: int(r.overhead["dropped"]) for r in records},
        sampled_out={r.rank: int(r.overhead["sampled_out"]) for r in records})


def rank_metrics(rec: RunRecord) -> MetricsRegistry:
    """One rank's metrics view, the one fold behind every metrics view.

    The rank's registry holds only what no other store holds; the rest is
    read from the record: the tracer's self-accounting, the ledger's rows
    and the Mastermind's invocations, whose wall times are observed in
    stored order, so the ``invocation_wall_us`` buckets are exact.
    """
    from repro.perf.records import MethodRecord  # repro.perf imports repro.obs

    view = MetricsRegistry.from_state(rec.metrics)
    rep = rec.overhead
    view.counter("tracer_spans_total",
                 "spans recorded by the tracer").inc(rep["spans"])
    view.counter("tracer_dropped_total",
                 "spans dropped by the bounded buffer").inc(rep["dropped"])
    view.counter("tracer_sampled_out_total",
                 "spans skipped by 1-in-N sampling").inc(rep["sampled_out"])
    view.counter("tracer_self_overhead_us_total",
                 "tracer-measured cost of tracing itself").inc(
                     rep["self_overhead_us"])
    if rep["dropped"]:
        view.gauge("tracer_dropped_spans",
                   "spans lost to buffer overflow on one rank",
                   dropped_rank=str(rec.rank)).set(rep["dropped"])
    for routine, row in rec.ledger.items():
        view.counter("mpi_calls_total", "MPI calls by routine",
                     routine=routine).inc(row["calls"])
        view.counter("mpi_cost_us_total", "modeled MPI cost by routine",
                     routine=routine).inc(row["total_us"])
    for state in rec.records:
        mrec = MethodRecord.from_dict(state)
        view.counter("invocations_total", "proxied invocations recorded",
                     routine=mrec.timer_name).inc(len(mrec))
        wall = view.histogram("invocation_wall_us", "per-invocation wall time",
                              routine=mrec.timer_name)
        for inv in mrec.invocations:
            wall.observe(inv.wall_us)
    return view


def merged_metrics(records: Sequence[RunRecord]) -> MetricsRegistry:
    """The cross-rank merge of the records' metrics views."""
    return merge_registries(rank_metrics(r) for r in records)


def write_metrics(records: Sequence[RunRecord], json_path: str | None = None,
                  prometheus_path: str | None = None) -> MetricsRegistry:
    """Write the records' merged metrics snapshot(s); returns the merge."""
    merged = merged_metrics(records)
    if json_path is not None:
        atomic_write_text(json_path, merged.to_json())
    if prometheus_path is not None:
        atomic_write_text(prometheus_path, merged.to_prometheus())
    return merged


def live_metrics(obs: Sequence[RankObs]) -> MetricsRegistry:
    """The merged metrics view of *live* rank state.

    Its records keep no span (``depth=0``), so a scrape endpoint can call
    it on every request while ranks are still running without copying a
    span buffer.  Rank threads may create instruments or records
    concurrently; the fold retries a few times if a dict grows
    mid-iteration.
    """
    for _ in range(2):
        try:
            return merged_metrics([rank_record(ro, depth=0) for ro in obs])
        except RuntimeError:  # a dict grew during iteration; scrape again
            continue
    return merged_metrics([rank_record(ro, depth=0) for ro in obs])


# --------------------------------------------------------------- validation
def validate_chrome_payload(payload: Any) -> list[str]:
    """Invariant check for an exported trace; returns human-readable problems.

    Checks: top-level shape, globally monotone timestamps, balanced
    B/E per (pid, tid) track, and that every flow id has exactly one
    ``s`` and one ``f`` endpoint, each landing inside a slice on its
    track.  An empty list means the trace is well-formed.
    """
    problems: list[str] = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a dict with a 'traceEvents' key"]
    events = payload["traceEvents"]
    if not isinstance(events, list):
        return ["'traceEvents' is not a list"]
    last_ts: float | None = None
    stacks: dict[tuple[int, int], list[str]] = {}
    slices: dict[tuple[int, int], list[tuple[float, float]]] = {}
    open_at: dict[tuple[int, int], list[float]] = {}
    flow_points: dict[str, dict[str, tuple[int, int, float]]] = {}
    for i, ev in enumerate(events):
        ph = ev.get("ph")
        if ph == "M":
            continue
        ts = ev.get("ts")
        if not isinstance(ts, (int, float)):
            problems.append(f"event {i}: non-numeric ts {ts!r}")
            continue
        if last_ts is not None and ts < last_ts:
            problems.append(f"event {i}: timestamp {ts} < previous {last_ts}")
        last_ts = float(ts)
        track = (ev.get("pid", 0), ev.get("tid", 0))
        if ph == "B":
            stacks.setdefault(track, []).append(ev.get("name", ""))
            open_at.setdefault(track, []).append(ts)
        elif ph == "E":
            stack = stacks.get(track)
            if not stack:
                problems.append(f"event {i}: E with empty stack on track {track}")
            else:
                stack.pop()
                start = open_at[track].pop()
                slices.setdefault(track, []).append((start, ts))
        elif ph in ("s", "f"):
            fid = str(ev.get("id"))
            pts = flow_points.setdefault(fid, {})
            if ph in pts:
                problems.append(f"flow {fid}: duplicate {ph!r} endpoint")
            pts[ph] = (*track, ts)
    for track, stack in stacks.items():
        if stack:
            problems.append(f"track {track}: {len(stack)} unclosed B event(s): {stack[:3]}")
    for fid, pts in flow_points.items():
        for endpoint in ("s", "f"):
            if endpoint not in pts:
                problems.append(f"flow {fid}: missing {endpoint!r} endpoint")
                continue
            pid, tid, ts = pts[endpoint]
            track_slices = slices.get((pid, tid), [])
            if not any(lo <= ts <= hi for lo, hi in track_slices):
                problems.append(
                    f"flow {fid}: {endpoint!r} endpoint at ts={ts} is outside "
                    f"every slice on track {(pid, tid)}")
    return problems


def validate_trace_file(path: str) -> list[str]:
    """Round-trip a trace file through ``json.loads`` and validate it."""
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"unreadable trace file {path!r}: {exc}"]
    return validate_chrome_payload(payload)
