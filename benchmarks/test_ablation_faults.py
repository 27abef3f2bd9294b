"""Ablation: resilience machinery on/off under the three canned fault plans.

Each cell runs the full SCMD case study.  With resilience off, dropped
messages deadlock the job (bounded here by a short world timeout) and
transient component errors kill it; with resilience on, every scenario
completes, at the cost of retransmission charges and component retries.
A final pair of runs prices the checkpoint subsystem.
"""

import dataclasses

from conftest import write_out

from repro.faults.checkpoint import CheckpointConfig
from repro.faults.plan import canned_plans
from repro.faults.policy import ResiliencePolicy
from repro.harness.casestudy import run_case_study
from repro.mpi.runner import RankFailure
from repro.util.tabular import format_table
from repro.util.timebase import now_us


def timed_run(cfg):
    t0 = now_us()
    try:
        res = run_case_study(cfg)
        return (now_us() - t0) / 1e6, res, None
    except RankFailure as exc:
        return (now_us() - t0) / 1e6, None, exc


def test_ablation_faults(benchmark, bench_config, out_dir, tmp_path):
    plans = canned_plans()
    holder = {}

    def run():
        for name, plan in plans.items():
            for resilient in (True, False):
                cfg = dataclasses.replace(
                    bench_config,
                    params=dataclasses.replace(bench_config.params, steps=2),
                    fault_plan=plan,
                    resilience=ResiliencePolicy() if resilient else None,
                    # Without resilience a dropped message hangs until the
                    # world timeout; keep the bound short.
                    timeout_s=30.0 if resilient else 3.0,
                )
                holder[(name, resilient)] = timed_run(cfg)
        base = dataclasses.replace(
            bench_config,
            params=dataclasses.replace(bench_config.params, steps=2))
        holder[("no-faults", True)] = timed_run(base)
        holder[("no-faults+ckpt", True)] = timed_run(dataclasses.replace(
            base, checkpoint=CheckpointConfig(str(tmp_path / "ckpt"), every=1)))

    benchmark.pedantic(run, rounds=1, iterations=1)

    rows = []
    for (name, resilient), (wall_s, res, err) in holder.items():
        if res is not None:
            merged = {}
            ckpt_bytes = 0
            for h in res.extras:
                ckpt_bytes += h.checkpoint_bytes
                for k, v in (h.resilience or {}).items():
                    merged[k] = merged.get(k, 0) + v
            outcome = "completed"
            detail = (f"recovered={merged.get('recovered', 0)} "
                      f"comp_retries={merged.get('component_retries', 0)}")
            if ckpt_bytes:
                detail = f"checkpoint={ckpt_bytes / 1024:.0f} KiB"
        else:
            outcome = "FAILED"
            first = next(iter(err.failures.values()))
            detail = ("deadlock timeout" if "timed out" in first
                      else "component error" if "TransientComponentError" in first
                      else "comm failure")
        rows.append((name, "on" if resilient else "off", outcome,
                     f"{wall_s:.2f}", detail))

    table = format_table(
        ["plan", "resilience", "outcome", "wall s", "detail"],
        rows,
        title="Ablation: fault plans with resilience on/off (SCMD case study)",
    )
    write_out(out_dir, "ablation_faults.txt", table)

    # Resilience turns every canned scenario into a clean completion...
    for name in plans:
        assert holder[(name, True)][1] is not None, f"{name} failed resilient"
    # ...while without it, message loss and component errors are fatal.
    assert holder[("dropped-messages", False)][1] is None
    assert holder[("flaky-component", False)][1] is None
    # Checkpointing every step costs something but not the farm.
    base_s = holder[("no-faults", True)][0]
    ckpt_s = holder[("no-faults+ckpt", True)][0]
    assert ckpt_s < base_s * 5 + 5.0
    benchmark.extra_info.update({
        "checkpoint_overhead_s": round(ckpt_s - base_s, 3),
    })
