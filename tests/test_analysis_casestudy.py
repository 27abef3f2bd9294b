"""The full instrumented case study must run clean under every sanitizer
family — the end-to-end gate the CI smoke step re-runs."""

import pytest

from repro.analysis import SanitizerConfig
from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study


@pytest.fixture(scope="module")
def sanitized_result():
    cfg = CaseStudyConfig(
        params=DriverParams(nx=32, ny=32, steps=2),
        nranks=2,
        sanitize=SanitizerConfig(),
    )
    return run_case_study(cfg)


def test_case_study_clean_under_full_sanitizers(sanitized_result):
    san = sanitized_result.world.sanitizer
    assert san is not None and san.config.strict
    assert san.findings == [], [f.format() for f in san.findings]


def test_sanitized_run_still_produces_profiles(sanitized_result):
    from repro.cca.scmd import MAIN_TIMER

    for snap in sanitized_result.timer_snapshots:
        assert MAIN_TIMER in snap
    assert all(h is not None for h in sanitized_result.extras)


def test_sanitized_run_with_observability_reports_zero_findings():
    from repro.obs.runtime import ObsConfig

    cfg = CaseStudyConfig(
        params=DriverParams(nx=32, ny=32, steps=1),
        nranks=2,
        sanitize=SanitizerConfig(),
        observe=ObsConfig(),
    )
    res = run_case_study(cfg)
    world = res.world
    assert world.sanitizer.findings_by_kind() == {}
    # No finding was recorded, so no rank has a findings series.
    for rank in range(cfg.nranks):
        entries = world.obs[rank].metrics.snapshot()["metrics"]
        assert entries, "an observed rank records metrics"
        for entry in entries:
            if entry["name"] == "sanitizer_findings_total":
                pytest.fail(f"unexpected sanitizer metric: {entry}")
