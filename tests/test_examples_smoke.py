"""Smoke-run the shipped examples (small arguments, subprocess)."""

import os
import subprocess
import sys

from repro.obs.export import validate_trace_file

EXAMPLES = os.path.join(os.path.dirname(__file__), os.pardir, "examples")


def run_example(name: str, *args: str, timeout: float = 240.0) -> str:
    path = os.path.join(EXAMPLES, name)
    proc = subprocess.run(
        [sys.executable, path, *args],
        capture_output=True, text=True, timeout=timeout,
    )
    assert proc.returncode == 0, f"{name} failed:\n{proc.stderr[-2000:]}"
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "FUNCTION SUMMARY" in out
    assert "fitted performance model" in out
    assert "predicted mean time" in out


def test_shock_interface_small():
    out = run_example("shock_interface.py", "--steps", "2", "--nx", "32")
    assert "Figure 3 analog" in out
    assert "Figure 9 analog" in out
    assert "Figure 1 analog" in out
    assert "patches per level" in out


def test_performance_modeling_small():
    out = run_example("performance_modeling.py", "--points", "4",
                      "--qmax", "20000", "--repeats", "2")
    assert "strided/sequential" in out
    assert "Eq.1 analog" in out
    assert "paper's form" in out


def test_fault_tolerance_small(tmp_path):
    out = run_example("fault_tolerance.py", "--steps", "4",
                      "--trace-out", str(tmp_path / "trace.json"))
    assert "run completed: rank results [0, 0, 0]" in out
    assert "'fault.drop': 3" in out
    assert "'recovered': 3" in out
    assert "run killed as planned" in out
    assert "BITWISE IDENTICAL" in out
    trace = tmp_path / "trace.json"
    assert validate_trace_file(str(trace)) == []
    names = trace.read_text()
    assert '"fault.drop"' in names and '"mpi.recovered"' in names


def test_observability_small(tmp_path):
    out = run_example(
        "observability.py", "--steps", "2", "--nx", "32", "--nranks", "3",
        "--trace-out", str(tmp_path / "trace.json"),
        "--metrics-out", str(tmp_path / "metrics"),
        "--records-out", str(tmp_path / "records"))
    assert "wrote and loaded 3 run records" in out
    assert "Critical path" in out
    assert "cross-rank hop" in out
    assert "0 mismatches" in out
    assert "valid; load in ui.perfetto.dev" in out
    assert (tmp_path / "trace.json").exists()
    assert (tmp_path / "metrics.prom").exists()
    assert sorted(os.listdir(tmp_path / "records")) == \
        ["rank0.json", "rank1.json", "rank2.json"]


def test_heat_reuse_is_listed():
    # heat_reuse takes ~20-60 s; keep it out of the default suite but
    # verify the file exists and parses.
    path = os.path.join(EXAMPLES, "heat_reuse.py")
    compile(open(path).read(), path, "exec")


def test_remaining_examples_parse():
    for name in ("assembly_optimization.py", "online_monitoring.py"):
        path = os.path.join(EXAMPLES, name)
        compile(open(path).read(), path, "exec")


def test_model_serving_small():
    out = run_example("model_serving.py", "--points", "3", "--qmax", "20000",
                      "--requests", "300", "--concurrency", "8")
    assert "healthz: ok" in out
    assert "best binding" in out
    assert "hot reload: version g1-" in out
    assert "-> g2-" in out
    assert "errors 0" in out
    assert "hit rate" in out
