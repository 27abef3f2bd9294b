"""Every module imports cleanly and every ``__all__`` name resolves."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

MODULES = sorted(
    name
    for _finder, name, _ispkg in pkgutil.walk_packages(repro.__path__, "repro.")
)


def test_package_has_expected_breadth():
    assert len(MODULES) > 40, MODULES


@pytest.mark.parametrize("name", MODULES)
def test_module_imports(name):
    importlib.import_module(name)


@pytest.mark.parametrize(
    "name",
    [m for m in MODULES if m.count(".") == 1],  # subpackage __init__ modules
)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol!r}"


def test_version_exposed():
    assert repro.__version__


def test_runs_do_not_import_networkx():
    """networkx is imported only where a graph is built, which no run does."""
    code = ("import sys, repro.harness.casestudy, repro.serve, repro.perf; "
            "sys.exit('networkx' in sys.modules)")
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def _run_fresh(code):
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


def test_godunov_runs_do_not_import_scipy():
    """scipy is EFMFlux's alone: a run that names Godunov never loads it."""
    code = ("import sys, repro.harness, repro.harness.casestudy, repro.serve, "
            "repro.perf, repro.euler\n"
            "from repro.harness.casestudy import CaseStudyConfig\n"
            "CaseStudyConfig(flux='godunov')\n"
            "print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'repro.euler.efm'))")
    out = _run_fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_efm_config_loads_efm_in_the_building_process():
    code = ("import sys\n"
            "from repro.harness.casestudy import CaseStudyConfig\n"
            "assert 'repro.euler.efm' not in sys.modules\n"
            "CaseStudyConfig(flux='efm')\n"
            "assert 'repro.euler.efm' in sys.modules\n"
            "assert 'scipy.special' in sys.modules")
    out = _run_fresh(code)
    assert out.returncode == 0, out.stderr


def test_forked_ranks_import_no_flux_module():
    """mp-shm ranks inherit the flux's module from the launcher: each
    rank's set of modules imported after its fork holds no scipy and no
    repro module."""
    code = """
import json, os, sys
from repro.cca.scmd import run_scmd
from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, compose_case_study
cfg = CaseStudyConfig(params=DriverParams(nx=16, ny=16, max_levels=1, steps=1),
                      flux="efm", instrument=False, nranks=2,
                      backend="mp-shm")
at_fork = set()
os.register_at_fork(after_in_child=lambda: at_fork.update(sys.modules))
res = run_scmd(2, lambda fw: compose_case_study(fw, cfg),
               go_instance="driver", backend="mp-shm",
               extract=lambda fw: sorted(set(sys.modules) - at_fork))
print(json.dumps({"results": res.results, "imported": res.extras}))
"""
    out = _run_fresh(code)
    assert out.returncode == 0, out.stderr
    got = json.loads(out.stdout.strip().splitlines()[-1])
    assert got["results"] == [0, 0]
    assert len(got["imported"]) == 2
    for rank, names in enumerate(got["imported"]):
        bad = [m for m in names
               if m.split(".")[0] in ("scipy", "repro")]
        assert bad == [], (rank, bad)
