"""End-to-end benchmark of the case study and the serving tier.

    python3 benchmarks/e2e/bench.py run --workload NAME --seed N \
        [--seconds S] [--trace 0|1] [--smoke] [--json out.json]
    python3 benchmarks/e2e/bench.py run --all --seed N [...]
    python3 benchmarks/e2e/bench.py compare A.json B.json

``BENCHMARK.json`` at the repository root names the workloads and the
metrics, with units and regression bounds; this harness emits exactly
those names.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped; ``--trace 1`` is a separate run that wraps the layer boundaries
from outside (``spans.py``) and prints the per-layer ledger.  The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from typing import Any, Iterator

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    from repro.util.timebase import now_us  # noqa: E402
except ModuleNotFoundError:
    sys.exit("bench.py: nothing to measure, src/repro is not in this checkout")

#: harness start; set-up time is counted from here
T_START_US = now_us()

import numpy as np  # noqa: E402

import casework  # noqa: E402
import compare  # noqa: E402
import servework  # noqa: E402
import spans  # noqa: E402

#: imports done; the rest of set-up is repeated and its median taken
IMPORT_S = (now_us() - T_START_US) / 1e6

#: how many times set-up (inputs from the seed, temp dirs, model
#: repository and server start, warm-up repetition) runs in one process
SETUP_CYCLES = 3
#: rounds of the layer ladder in a traced layers_on run
LADDER_ROUNDS = 2
#: scratch space, inside the checkout and git-ignored
WORK_PARENT = os.path.join(ROOT, ".bench_e2e")


@contextmanager
def scratch_dir(prefix: str) -> Iterator[str]:
    """A directory under ``.bench_e2e/`` that is gone afterwards, whether
    the run ends normally, fails or is interrupted."""
    os.makedirs(WORK_PARENT, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=prefix, dir=WORK_PARENT) as d:
            yield d
    finally:
        try:
            os.rmdir(WORK_PARENT)
        except OSError:
            pass  # another run's scratch is still in there


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process that ``multiprocessing``
    starts with the first shared-memory segment (the mp-shm rings).  Left
    alone it only ends once this process is gone, so it would outlive the
    run; every rank process has been joined by ``run_scmd`` already."""
    from multiprocessing import resource_tracker

    # Closes the tracker's pipe and waits for its pid; a no-op when no
    # segment was ever made.  Private, but the only handle there is.
    resource_tracker._resource_tracker._stop()


def load_spec() -> dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def emit(text: str) -> None:
    sys.stdout.write(text + "\n")
    sys.stdout.flush()


def metric(samples: list[float] | float, value: str = "median") -> dict[str, Any]:
    """A metric's samples with their count, median and quartiles; ``value``
    names which of ``median`` / ``q1`` is the reported (and gated) figure."""
    values = [float(v) for v in
              (samples if isinstance(samples, list) else [samples])]
    q1, median, q3 = compare.quartiles(values)
    out = {"n": len(values), "median": median, "q1": q1, "q3": q3,
           "samples": values}
    out["value"] = out[value]
    return out


def rep_time(samples: list[float]) -> dict[str, Any]:
    """Time of one repetition, reported as the first quartile of the timed
    repetitions.  On a shared host interference only ever adds time, so
    the lower quartile is the steadier estimate of what the program
    costs: over back-to-back runs of one commit it moved half as much as
    the median did (README, "A/A spread")."""
    return metric(samples, value="q1")


def peak_rss_mb() -> float:
    """Largest resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def iqr_pct(samples: list[float]) -> float:
    q1, median, q3 = compare.quartiles(samples)
    return 100.0 * (q3 - q1) / median


def check_expected(name: str, summary: dict[str, Any]) -> list[str]:
    """Seed-0 drift check against the committed scalar summaries."""
    with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as fh:
        want = json.load(fh)[name]
    problems = []
    if summary["patches_per_level"] != want["patches_per_level"]:
        problems.append(f"patches per level {summary['patches_per_level']} "
                        f"!= expected {want['patches_per_level']}")
    for key in ("mass", "energy"):
        if not np.isclose(summary[key], want[key], rtol=1e-9, atol=0.0):
            problems.append(f"{key} {summary[key]!r} drifted from "
                            f"expected {want[key]!r}")
    return problems


# ------------------------------------------------------------- case study
def run_case(work: casework.CaseWorkload, seed: int, seconds: float,
             smoke: bool, workdir: str) -> dict[str, Any]:
    """End-to-end metrics of one case-study workload, nothing wrapped."""
    cycles = 1 if smoke else SETUP_CYCLES
    setup_s, walls, cpus, problems = [], [], [], []
    first = None
    attempted = 0

    def account(rep: casework.Rep) -> None:
        nonlocal attempted, first
        attempted += 1
        if first is None:
            first = rep
        else:
            casework.check_against(rep, first)
        if rep.problems:
            problems.append("; ".join(rep.problems))

    for cycle in range(cycles):
        t0 = now_us()
        cfg = casework.build_config(work, seed, work.rung,
                                    os.path.join(workdir, f"ckpt{cycle}"))
        rep = casework.run_rep(cfg)  # the untimed warm-up repetition
        setup_s.append((now_us() - t0) / 1e6)
        account(rep)
    deadline = now_us() + seconds * 1e6
    while True:
        rep = casework.run_rep(cfg)
        walls.append(rep.wall_s)
        cpus.append(rep.cpu_s)
        account(rep)
        if smoke or (now_us() >= deadline and len(walls) >= 3):
            break
    summary = casework.scalar_summary(first)
    if seed == 0 and not smoke:
        problems.extend(check_expected(work.name, summary))
    return {
        "attempted": attempted, "problems": problems,
        "digest": first.digest, "summary": summary,
        "metrics": {
            "run_wall_s": rep_time(walls),
            "run_cpu_s": rep_time(cpus),
            "setup_s": metric([IMPORT_S + s for s in setup_s]),
            "peak_rss_mb": metric(peak_rss_mb()),
        },
    }


def trace_case(work: casework.CaseWorkload, seed: int, seconds: float,
               smoke: bool, workdir: str) -> dict[str, Any]:
    """Per-layer ledger: untraced and traced repetitions in pairs, so the
    tracing overhead is a paired difference, then the layer ladder."""
    cfg = casework.build_config(work, seed, work.rung,
                                os.path.join(workdir, "ckpt"))
    first = casework.run_rep(cfg)
    reps = [first]
    plain, deltas, ledgers = [], [], []
    deadline = now_us() + seconds * 1e6
    while True:
        bare = casework.run_rep(cfg)
        with spans.installed():
            traced = casework.run_rep(cfg, traced=True)
        reps += [bare, traced]
        plain.append(bare.wall_s)
        deltas.append(traced.wall_s - bare.wall_s)
        ledgers.append(casework.ledger(traced, cfg.params.steps))
        if smoke or (now_us() >= deadline and len(plain) >= 2):
            break
    problems = []
    for rep in reps:
        if rep is not first:
            casework.check_against(rep, first)
        if rep.problems:
            problems.append("; ".join(rep.problems))
    for key in casework.EXACT_COUNTS:
        if len({led[key] for led in ledgers}) > 1:
            problems.append(f"{key} did not repeat: "
                            f"{[led[key] for led in ledgers]}")
    metrics = {key: metric([led[key] for led in ledgers])
               for key in ledgers[0]}
    metrics["bench.tracing_overhead_pct"] = metric(
        100.0 * statistics.median(deltas) / statistics.median(plain))
    metrics["bench.rep_iqr_pct"] = metric(iqr_pct(plain))
    attempted = len(reps)
    if work.rung == len(casework.RUNGS) - 1:
        ladder, ladder_reps = casework.run_ladder(
            work, seed, os.path.join(workdir, "ladder"),
            rounds=1 if smoke else LADDER_ROUNDS)
        metrics.update({k: metric(v) for k, v in ladder.items()})
        attempted += len(ladder_reps)
        for rep in ladder_reps:
            # Layers watch the run; they must not change its fields.
            casework.check_against(rep, first, counts=False)
            if rep.problems:
                problems.append("; ".join(rep.problems))
    shares = casework.layer_shares(
        {k: m["value"] for k, m in metrics.items()})
    return {"attempted": attempted, "problems": problems,
            "digest": first.digest, "metrics": metrics, "shares_pct": shares}


# ---------------------------------------------------------------- serving
def run_serve(seed: int, seconds: float, smoke: bool, workdir: str,
              trace: bool) -> dict[str, Any]:
    """The serving workload.  Nothing needs wrapping here: the clients
    time each reply themselves and the server keeps its own counts, so
    the traced run is the same run reporting the per-layer names."""
    run = servework.run_serve(seed, seconds, smoke, workdir,
                              1 if smoke else SETUP_CYCLES)
    lat = run.latency_us
    if trace:
        def pct(path: str, p: float) -> dict[str, Any]:
            m = metric(float(np.percentile(lat[path], p)))
            m["n"] = len(lat[path])
            return m

        per_block = sum(len(v) for v in lat.values()) / len(run.block_wall_s)
        lookups = run.cache_hits + run.cache_misses
        metrics = {
            "serve.rps": metric([per_block / w for w in run.block_wall_s]),
            "serve.predict.p50_us": pct("/v1/predict", 50),
            "serve.predict.p99_us": pct("/v1/predict", 99),
            "serve.predict.p999_us": pct("/v1/predict", 99.9),
            "serve.batch.p50_us": pct("/v1/predict/batch", 50),
            "serve.batch.p99_us": pct("/v1/predict/batch", 99),
            "serve.models.p50_us": pct("/v1/models", 50),
            "serve.metrics.p50_us": pct("/metrics", 50),
            "serve.cache.hit_ratio": metric(
                run.cache_hits / lookups if lookups else 0.0),
            "serve.cache.evictions": metric(run.cache_evictions),
            "serve.batch.flushes": metric(run.batch_flushes),
            "serve.batch.mean_size": metric(
                run.batch_items / run.batch_flushes if run.batch_flushes
                else 0.0),
            "serve.store.load_s": metric(run.store_load_s),
            "bench.rep_iqr_pct": metric(iqr_pct(run.block_wall_s)),
        }
    else:
        metrics = {
            "run_wall_s": rep_time(run.block_wall_s),
            "run_cpu_s": rep_time(run.block_cpu_s),
            "setup_s": metric([IMPORT_S + s for s in run.setup_cycle_s]),
            "peak_rss_mb": metric(peak_rss_mb()),
        }
    return {"attempted": run.attempted, "problems": run.problems,
            "metrics": metrics}


# ----------------------------------------------------------------- running
def run_workload(name: str, spec: dict[str, Any], seed: int, seconds: float,
                 trace: bool, smoke: bool) -> dict[str, Any]:
    """Run one workload and shape its result to the declared metrics."""
    with scratch_dir(f"{name}-") as workdir:
        if name == "serve_mix":
            out = run_serve(seed, seconds, smoke, workdir, trace)
        else:
            work = casework.WORKLOADS[name]
            if smoke:
                work = work.smoke()
            run = trace_case if trace else run_case
            out = run(work, seed, seconds, smoke, workdir)
    declared = spec["per_layer" if trace else "end_to_end"]
    measured = out["metrics"]
    if trace:
        measured["bench.host.nproc"] = metric(os.cpu_count() or 1)
        measured["bench.host.loadavg1"] = metric(os.getloadavg()[0])
    unknown = set(measured) - {d["name"] for d in declared}
    if unknown:
        raise RuntimeError(f"metrics not declared in BENCHMARK.json: "
                           f"{sorted(unknown)}")
    metrics = {}
    for d in declared:
        # A layer that does not run in this workload spent no time and
        # did no work there: its metrics read 0, which is a prediction
        # ("flat on this workload") the ledger lets a reader check.
        m = dict(measured.get(d["name"]) or metric(0.0))
        m["unit"] = d["unit"]
        metrics[d["name"]] = m
    failed = min(len(out["problems"]), out["attempted"])
    return {"workload": name, "correct": failed == 0,
            "attempted": out["attempted"], "failed": failed,
            "problems": out["problems"], "metrics": metrics,
            **{k: out[k] for k in ("digest", "summary", "shares_pct")
               if k in out}}


def print_result(res: dict[str, Any]) -> None:
    emit(f"== {res['workload']}: {res['attempted']} operations, "
         f"{res['failed']} failed")
    for problem in res["problems"][:10]:
        emit(f"   FAILED: {problem}")
    emit(f"   {'metric':<32} {'value':>14} {'unit':<6} {'n':>6} "
         f"{'q1':>13} {'median':>13} {'q3':>13}")
    for name, m in res["metrics"].items():
        emit(f"   {name:<32} {m['value']:>14.6g} {m['unit']:<6} {m['n']:>6} "
             f"{m['q1']:>13.6g} {m['median']:>13.6g} {m['q3']:>13.6g}")
    if "shares_pct" in res:
        emit("   share of rank time: " + ", ".join(
            f"{g} {pct:.1f}%" for g, pct in res["shares_pct"].items()))


def result_line(correct: bool, attempted: int, failed: int,
                metrics: dict[str, Any]) -> str:
    return json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}})


def host_facts(loadavg1: float) -> dict[str, Any]:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"nproc": os.cpu_count() or 1, "loadavg1": loadavg1,
            "python": sys.version.split()[0], "numpy": np.__version__,
            "commit": commit}


def append_record(path: str, record: dict[str, Any]) -> None:
    """Result files hold a list of run records, so ten runs of one commit
    can share a file and ``compare`` can read their spread."""
    records = []
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            records = json.load(fh)
    records.append(record)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
        fh.write("\n")


def run_in_child(name: str, args: argparse.Namespace,
                 seconds: float) -> dict[str, Any]:
    """``--all`` gives every workload a process of its own, so that set-up
    time and peak memory mean what they mean in a single-workload run.
    The child prints its own table; its record comes back through a file."""
    with scratch_dir("all-") as tmp:
        record = os.path.join(tmp, "record.json")
        cmd = [sys.executable, os.path.abspath(__file__), "run",
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(seconds), "--trace", str(args.trace),
               "--json", record] + (["--smoke"] if args.smoke else [])
        code = subprocess.run(cmd, check=False).returncode
        if code not in (0, 1):
            raise RuntimeError(f"{name}: harness exited with code {code}")
        with open(record, encoding="utf-8") as fh:
            return json.load(fh)[0]["results"][name]


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if not args.all and args.workload not in names:
        emit(f"unknown workload {args.workload!r}; have {names}")
        return 2
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    loadavg1, nproc = os.getloadavg()[0], os.cpu_count() or 1
    if loadavg1 > nproc:
        sys.stderr.write(
            f"warning: 1-min load average {loadavg1:.2f} exceeds {nproc} "
            "processor(s); timings will be noisy\n")
    set_problems = []
    if args.all:
        results = {name: run_in_child(name, args, seconds) for name in names}
        # One mesh, one answer: layers, backends and rank counts may not
        # change the final hierarchy.
        digests = {n: results[n]["digest"]
                   for n in ("amr_bare", "layers_on", "mpshm_bare")}
        if len(set(digests.values())) > 1:
            set_problems.append(f"AMR-mesh digests disagree: {digests}")
            emit(f"FAILED: {set_problems[-1]}")
        metrics: dict[str, Any] = {}
    else:
        res = run_workload(args.workload, spec, args.seed, seconds,
                           bool(args.trace), args.smoke)
        print_result(res)
        results = {args.workload: res}
        metrics = res["metrics"]
    ok = not set_problems and all(r["correct"] for r in results.values())
    emit(result_line(
        ok, sum(r["attempted"] for r in results.values()),
        sum(r["failed"] for r in results.values()) + len(set_problems),
        metrics))
    if args.json:
        # Host facts last: the git child must not count in peak_rss_mb.
        append_record(args.json, {
            "host": host_facts(loadavg1), "seed": args.seed,
            "smoke": args.smoke, "trace": bool(args.trace),
            "seconds": seconds, "set_problems": set_problems,
            "results": results})
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(
        prog="bench.py", description="end-to-end benchmark harness")
    sub = ap.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run one workload, or all of them")
    which = run.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--all", action="store_true")
    run.add_argument("--seed", type=int, default=0,
                     help="the only workload input")
    run.add_argument("--seconds", type=float, default=None,
                     help="how long to measure (default: BENCHMARK.json)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1 = per-layer ledger run, 0 = end-to-end metrics")
    run.add_argument("--smoke", action="store_true",
                     help="tiny sizes, one repetition; not for publishing")
    run.add_argument("--json", help="append this run's record to a file")
    run.set_defaults(func=cmd_run)
    cmp_ = sub.add_parser("compare", help="judge two result files")
    cmp_.add_argument("a")
    cmp_.add_argument("b")
    cmp_.set_defaults(func=lambda a: compare.main(a.a, a.b, load_spec(), emit))
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    finally:
        stop_resource_tracker()


def _terminated(signum: int, _frame: Any) -> None:
    # Leave through the finally blocks (scratch dirs, shm segments, rank
    # processes, the resource tracker) instead of dying on the spot.
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminated)
    raise SystemExit(main())
