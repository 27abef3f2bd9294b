"""Distributed span tracing and critical-path analysis on the case study.

Runs the paper's SCMD case study with observability enabled: every
component invocation, MPI operation, timestep, and checkpoint opens a
span; matched sends/receives and collectives become causal cross-rank
edges.  The merged per-rank traces are then analyzed:

 * the critical path — the longest dependency chain through the run,
   decomposed into compute / MPI / MPI-wait time — overall and per step;
 * crosschecks of span durations against the Mastermind measurement
   records and of span counts against the MPI accounting ledger;
 * the tracer's self-reported overhead.

The run leaves one record per rank (written to ``--records-out``, then
loaded back); every view below reads the *loaded* records.  The trace is
written as a Chrome/Perfetto JSON file (load it in ui.perfetto.dev — the
cross-rank arrows are flow events) and the metrics as JSON and
Prometheus text.

Run:  python examples/observability.py [--steps N] [--nranks R]
"""

import argparse

from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.obs import (ObsConfig, collect, critical_path, crosscheck_ledger,
                       crosscheck_records, load_records,
                       per_step_critical_paths, timeline,
                       validate_trace_file, write_metrics, write_trace)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=3)
    ap.add_argument("--nx", type=int, default=48)
    ap.add_argument("--nranks", type=int, default=4)
    ap.add_argument("--sample-every", type=int, default=1,
                    help="keep 1 in N sampled (compute) spans")
    ap.add_argument("--trace-out", default="obs_trace.json")
    ap.add_argument("--metrics-out", default="obs_metrics")
    ap.add_argument("--records-out", default="obs_records",
                    help="directory for the run's per-rank records")
    args = ap.parse_args()

    config = CaseStudyConfig(
        params=DriverParams(nx=args.nx, ny=args.nx, steps=args.steps,
                            max_patch_cells=16384),
        nranks=args.nranks,
        network=NetworkModel(latency_us=800.0, bandwidth_bytes_per_us=16.0,
                             jitter_sigma=0.1),
        observe=ObsConfig(sample_every=args.sample_every),
    )
    print(f"=== Traced case study: {args.nranks} ranks, "
          f"{args.steps} steps, {args.nx}x{args.nx} cells ===\n")
    result = run_case_study(config)
    for record in collect(result):
        record.write(args.records_out)
    records = load_records(args.records_out)
    spans, flows = timeline(records)
    dropped = sum(int(r.overhead["dropped"]) for r in records)
    print(f"wrote and loaded {len(records)} run records "
          f"({args.records_out}/): {len(spans)} spans, {len(flows)} flow "
          f"endpoints, {dropped} dropped\n")

    # ------------------------------------------------------ critical path
    report = critical_path(spans, flows)
    print(report.format())
    print()
    for step, rep in sorted(per_step_critical_paths(spans, flows).items()):
        frac = rep.path_us / rep.total_wall_us if rep.total_wall_us else 0.0
        print(f"  step {step}: path {rep.path_us / 1e3:9.2f} ms of "
              f"{rep.total_wall_us / 1e3:9.2f} ms wall "
              f"({100.0 * frac:5.1f}%), "
              f"{rep.cross_rank_hops} cross-rank hops")

    # -------------------------------------------------------- crosschecks
    print("\ncrosscheck: span wall vs Mastermind records (worst timers)")
    recs = [h.records for h in result.extras if h is not None]
    checks = crosscheck_records(spans, recs)
    worst = sorted(checks.items(), key=lambda kv: -kv[1][2])[:4]
    for name, (s_us, r_us, err) in worst:
        print(f"  {name:36s} span {s_us / 1e3:9.2f} ms "
              f"rec {r_us / 1e3:9.2f} ms  err {100.0 * err:5.2f}%")
    ledger = crosscheck_ledger(spans, result.world.accounting)
    bad = {r: v for r, v in ledger.items() if v[0] != v[1]}
    print(f"crosscheck: span vs ledger MPI call counts — "
          f"{len(ledger)} routines, {len(bad)} mismatches")

    # ----------------------------------------------- self-reported cost
    tax = sum(r.overhead["self_overhead_us"] for r in records)
    print(f"tracer self-reported overhead: {tax / 1e3:.2f} ms total")

    # ------------------------------------------------------------ exports
    write_trace(records, args.trace_out)
    problems = validate_trace_file(args.trace_out)
    status = "valid" if not problems else f"INVALID: {problems}"
    print(f"\ntrace written to {args.trace_out} ({status}; "
          "load in ui.perfetto.dev)")
    write_metrics(records, json_path=args.metrics_out + ".json",
                  prometheus_path=args.metrics_out + ".prom")
    print(f"metrics written to {args.metrics_out}.json and "
          f"{args.metrics_out}.prom")


if __name__ == "__main__":
    main()
