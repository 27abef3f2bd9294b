"""Fault injection and resilience on the paper's SCMD case study.

Part 1 runs the case study under the canned ``dropped-messages`` fault
plan with the resilient MPI layer enabled: each dropped ghost-exchange
message is recovered by retransmission, received in send order, and the
run completes cleanly.  The run is traced: the recovery statistics and
the injected fault schedule are printed, and rank 0's own trace (its
proxied calls, MPI operations and steps, with each fault and recovery
an instant inside the span it interrupted) is dumped as a
Chrome/Perfetto trace.

Part 2 demonstrates checkpoint/restart: the same application is killed
mid-run by a ``kill_at_step`` crash point, then resumed from the latest
checkpoint.  The resumed run's final AMR hierarchy is compared bitwise
against an uninterrupted run.

Run:  python examples/fault_tolerance.py [--steps N]
"""

import argparse
import dataclasses

from repro.euler.ports import DriverParams
from repro.faults.checkpoint import CheckpointConfig, hierarchy_states_equal
from repro.faults.plan import FaultPlan, canned_plans
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.runner import RankFailure
from repro.obs import ObsConfig
from repro.obs.export import dump_chrome_trace_spans


def merged_resilience(result) -> dict[str, int]:
    merged: dict[str, int] = {}
    for harvest in result.extras:
        for key, val in (harvest.resilience or {}).items():
            merged[key] = merged.get(key, 0) + val
    return merged


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=6)
    ap.add_argument("--nx", type=int, default=32)
    ap.add_argument("--trace-out", default="fault_trace.json")
    args = ap.parse_args()

    params = DriverParams(nx=args.nx, ny=args.nx, max_levels=2,
                          steps=args.steps, regrid_every=2,
                          max_patch_cells=512)
    base = CaseStudyConfig(params=params, nranks=3,
                           resilience=ResiliencePolicy())

    # ------------------------------------------- part 1: surviving faults
    plan = canned_plans()["dropped-messages"]
    print(f"=== Part 1: fault plan {plan.name!r} with resilience on ===")
    print(f"({plan.n_faults} faults, seed {plan.seed}; "
          f"{params.steps} steps on {base.nranks} simulated processors)\n")

    result = run_case_study(dataclasses.replace(base, fault_plan=plan,
                                                observe=ObsConfig()))
    print(f"run completed: rank results {result.results}")
    print(f"injected faults: {result.world.injector.total_counts()}")
    print(f"recovery stats:  {merged_resilience(result)}")

    # Rank 0's own trace: the faults and recoveries are instants (category
    # "fault") inside the spans they interrupted.
    tracer = result.world.obs[0].tracer
    dump_chrome_trace_spans(tracer.spans(), tracer.flows(), args.trace_out)
    print(f"rank-0 fault/recovery timeline written to {args.trace_out} "
          "(load in chrome://tracing or ui.perfetto.dev)")

    # --------------------------------- part 2: kill, checkpoint, restart
    kill_step = max(1, args.steps // 2)
    print(f"\n=== Part 2: kill at step {kill_step}, "
          "restart from checkpoint ===")
    baseline = run_case_study(base)

    import tempfile
    with tempfile.TemporaryDirectory() as ckpt_dir:
        killed = dataclasses.replace(
            base,
            fault_plan=FaultPlan(name="mid-run-kill", kill_at_step=kill_step),
            checkpoint=CheckpointConfig(ckpt_dir, every=2),
        )
        try:
            run_case_study(killed)
        except RankFailure as exc:
            print(f"run killed as planned ({len(exc.failures)} ranks down)")

        resumed_cfg = dataclasses.replace(
            killed, resume=True,
            fault_plan=dataclasses.replace(killed.fault_plan,
                                           kill_at_step=None))
        resumed = run_case_study(resumed_cfg)
        print(f"resumed run completed: rank results {resumed.results}")
        print(f"checkpoints written after resume: "
              f"steps {resumed.extras[0].checkpoint_steps}, "
              f"{resumed.extras[0].checkpoint_bytes / 1024:.0f} KiB")

    ok = all(
        hierarchy_states_equal(b.mesh_state, r.mesh_state)
        and b.dt_history == r.dt_history
        for b, r in zip(baseline.extras, resumed.extras)
    )
    print("resumed solution vs uninterrupted run: "
          + ("BITWISE IDENTICAL" if ok else "MISMATCH"))
    if not ok:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
