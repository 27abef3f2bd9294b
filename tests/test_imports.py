"""Every module imports cleanly and every ``__all__`` name resolves."""

import importlib
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
