"""Self-tests of the end-to-end benchmark harness (smoke sizes).

    PYTHONPATH=src python -m pytest benchmarks/e2e

They check the harness, not the program's speed: every declared name is
emitted, the external tracing adds up and cleans up after itself, the
seed is the only input, and a wrong output makes the command fail.
"""

from __future__ import annotations

import json
import re

import bench
import casework
import compare
import pytest
import servework
import spans

from repro.serve import ModelServer
from repro.util.httpd import Response

SPEC = bench.load_spec()
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_declared_metrics_and_nothing_else(name, trace):
    res = bench.run_workload(name, SPEC, seed=0, seconds=0.0,
                             trace=bool(trace), smoke=True)
    assert res["correct"], res["problems"]
    assert res["attempted"] >= 1 and res["failed"] == 0
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [d["name"] for d in declared]
    for d in declared:
        m = res["metrics"][d["name"]]
        assert NAME_RE.match(d["name"]) and m["unit"] == d["unit"]
        assert isinstance(m["value"], float)
        if not trace:
            assert m["value"] > 0.0, d["name"]
    if trace and name == "layers_on":
        for rung in casework.RUNGS[1:]:
            assert f"layer.{rung}.cost_s" in res["metrics"]
        assert res["metrics"]["obs.spans"]["value"] > 0
        assert res["metrics"]["faults.checkpoint.saves"]["value"] == 1
        assert res["metrics"]["perf.proxy.calls"]["value"] > 0
    if trace and name == "serve_mix":
        assert res["metrics"]["serve.cache.hit_ratio"]["value"] > 0.9
    line = json.loads(bench.result_line(True, 1, 0, res["metrics"]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert all(set(m) == {"value", "unit"} for m in line["metrics"].values())


def _smoke_config(name, seed, tmp_path):
    work = casework.WORKLOADS[name].smoke()
    return casework.build_config(work, seed, work.rung, str(tmp_path))


@pytest.mark.parametrize("name", ["amr_bare", "mpshm_bare"])
def test_self_times_sum_to_root_and_wrappers_are_removed(name, tmp_path):
    before = [vars(owner)[attr] for owner, attr in spans.wrapped_attributes()]
    with spans.installed():
        during = [vars(o)[a] for o, a in spans.wrapped_attributes()]
        rep = casework.run_rep(_smoke_config(name, 0, tmp_path), traced=True)
    after = [vars(owner)[attr] for owner, attr in spans.wrapped_attributes()]
    assert all(a is b for a, b in zip(before, after))
    assert all(d is not b for d, b in zip(during, before))
    assert not rep.problems
    for extra in rep.extras:
        trace = extra["trace"]
        assert sum(trace["self_us"].values()) == pytest.approx(
            trace["root_us"], rel=0.02)
        assert trace["calls"]["mpi.isend"] > 0
        assert trace["self_us"]["rank.other"] < 0.5 * trace["root_us"]


def test_seed_is_the_only_input(tmp_path):
    reps = {seed: casework.run_rep(_smoke_config("amr_bare", seed, tmp_path))
            for seed in (0, 1)}
    again = casework.run_rep(_smoke_config("amr_bare", 0, tmp_path))
    assert reps[0].digest != reps[1].digest
    assert again.digest == reps[0].digest
    assert again.mpi_calls == reps[0].mpi_calls
    casework.check_against(again, reps[0])
    assert not again.problems
    casework.check_against(reps[1], reps[0])
    assert reps[1].problems


def test_request_stream_follows_the_seed(tmp_path):
    import asyncio

    async def streams():
        server = ModelServer(servework.build_model_repo(str(tmp_path / "m")))
        return [servework.make_streams(server, seed, 200) for seed in (0, 1, 0)]

    s0, s1, s0_again = asyncio.run(streams())
    assert s0 == s0_again and s0 != s1
    assert sum(len(s) for s in s0) == 200


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_corrupted_digest_fails_the_command(monkeypatch, capsys):
    real = casework.hierarchy_digest
    calls = []

    def corrupt(extras):
        calls.append(1)
        return real(extras) if len(calls) == 1 else "0" * 64

    monkeypatch.setattr(casework, "hierarchy_digest", corrupt)
    code = bench.main(["run", "--workload", "kernel_godunov", "--smoke",
                       "--seed", "1"])
    out = _last_json(capsys)
    assert code != 0 and not out["correct"] and out["failed"] > 0


def test_http_500_fails_the_command(monkeypatch, capsys):
    real = ModelServer.handle
    calls = []

    async def flaky(self, method, path, body=b""):
        calls.append(1)
        if len(calls) % 100 == 0:
            return Response.error(500, "injected")
        return await real(self, method, path, body)

    monkeypatch.setattr(ModelServer, "handle", flaky)
    code = bench.main(["run", "--workload", "serve_mix", "--smoke"])
    out = _last_json(capsys)
    assert code != 0 and not out["correct"]
    assert 0 < out["failed"] < out["attempted"]


def test_no_process_outlives_an_mpshm_run(capsys):
    import multiprocessing
    from multiprocessing import resource_tracker

    code = bench.main(["run", "--workload", "mpshm_bare", "--smoke"])
    assert code == 0 and _last_json(capsys)["correct"]
    assert multiprocessing.active_children() == []
    # The shared-memory helper was started by the rings, stopped and waited for.
    assert resource_tracker._resource_tracker._fd is None
    assert resource_tracker._resource_tracker._pid is None


def _record(walls, failed=0):
    return {"host": {"nproc": 2}, "trace": False, "results": {
        w: {"attempted": 10, "failed": failed, "metrics": {
            m["name"]: {"value": walls[0], "samples": list(walls)}
            for m in SPEC["end_to_end"]}}
        for w in WORKLOADS}}


def _compare(tmp_path, a, b):
    lines = []
    for name, rec in (("a.json", a), ("b.json", b)):
        (tmp_path / name).write_text(json.dumps(rec))
    code = compare.main(str(tmp_path / "a.json"), str(tmp_path / "b.json"),
                        SPEC, lines.append)
    return code, "\n".join(lines)


def test_compare_verdicts(tmp_path):
    steady = [_record([1.00, 1.01, 0.99, 1.00])]
    code, text = _compare(tmp_path, steady, steady)
    assert code == 0 and "regressed" not in text and "unresolved" not in text
    assert text.count(" ok") == len(WORKLOADS) * len(SPEC["end_to_end"])
    slower = [_record([1.30, 1.31, 1.29, 1.30])]
    code, text = _compare(tmp_path, steady, slower)
    assert code == 1 and "regressed" in text
    noisy = [_record([0.7, 1.0, 1.3, 1.6])]
    code, text = _compare(tmp_path, noisy, noisy)
    assert code == 0 and "unresolved" in text
    code, text = _compare(tmp_path, steady, [_record([1.0, 1.0], failed=1)])
    assert code == 1 and "failed_share" in text
    # Several records per side: judged on the per-run values.
    runs_a = [_record([1.0 + 0.01 * k]) for k in range(4)]
    runs_b = [_record([1.5 + 0.01 * k]) for k in range(4)]
    assert _compare(tmp_path, runs_a, runs_b)[0] == 1
    assert _compare(tmp_path, runs_a, runs_a)[0] == 0
