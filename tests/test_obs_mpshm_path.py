"""Critical-path conformance: the analyzer over mp-shm merged spans.

The mp-shm backend forks one process per rank; its spans come home
pickled inside each worker's RankObs and are stamped by the shared
CLOCK_MONOTONIC timebase, so the merged timeline is directly comparable
to the thread backend's.  The modeled MPI schedule is identical on both
backends (DESIGN.md section 11), so the critical-path *structure* —
which categories carry the path — must agree; raw wall clock, and with
it each category's share of the path, may differ (GIL serialization vs
true process parallelism).
"""

import pytest

from repro.euler.ports import DriverParams
from repro.harness.casestudy import CaseStudyConfig, run_case_study
from repro.mpi.network import NetworkModel
from repro.obs import (ObsConfig, collect, critical_path,
                       per_step_critical_paths, timeline)

# High modeled latency on purpose: the deterministic modeled schedule
# (identical across backends) must dominate the critical path, so the
# comparisons below measure trace/analyzer conformance rather than how
# loaded the host happens to be.
NET = NetworkModel(latency_us=3000.0, bandwidth_bytes_per_us=16.0,
                   jitter_sigma=0.1)


@pytest.fixture(scope="module")
def both_backends():
    def run(backend):
        res = run_case_study(CaseStudyConfig(
            params=DriverParams(nx=48, ny=48, steps=2, max_patch_cells=4096),
            nranks=3, seed=7, network=NET, backend=backend,
            observe=ObsConfig()))
        return res, timeline(collect(res))

    return {b: run(b) for b in ("thread", "mp-shm")}


def _fractions(rep):
    total = sum(rep.breakdown.values())
    assert total > 0.0
    return {cat: us / total for cat, us in rep.breakdown.items()}


def test_mpshm_critical_path_well_formed(both_backends):
    _, (spans, flows) = both_backends["mp-shm"]
    rep = critical_path(spans, flows)
    assert 0.0 < rep.path_us <= rep.total_wall_us + 1e-6
    assert rep.cross_rank_hops > 0
    assert rep.breakdown.get("compute", 0.0) > 0.0
    assert rep.breakdown.get("mpi_wait", 0.0) > 0.0


def test_breakdown_agrees_across_backends(both_backends):
    frac = {b: _fractions(critical_path(*tl))
            for b, (_, tl) in both_backends.items()}
    # Same modeled schedule => the same categories carry the path on both
    # backends.  Their *shares* are not compared: each is the wall clock
    # of one run, GIL-shared threads against real processes on however
    # many cores the host has free (mp-shm compute share read 0.14-0.80
    # on a 2-core host).
    for backend, shares in frac.items():
        for cat in ("compute", "mpi_wait"):
            assert shares.get(cat, 0.0) > 0.0, (backend, cat)
    # Whatever category dominates one backend's path must at least be
    # present on the other's.
    for a, b in (("thread", "mp-shm"), ("mp-shm", "thread")):
        dominant = max(frac[a], key=frac[a].get)
        assert dominant in frac[b]


def test_per_step_paths_agree_on_step_keys(both_backends):
    steps = {}
    for backend, (_, tl) in both_backends.items():
        out = per_step_critical_paths(*tl)
        steps[backend] = sorted(out)
        for rep in out.values():
            assert 0.0 < rep.path_us <= rep.total_wall_us + 1e-6
    assert steps["thread"] == steps["mp-shm"] == [0, 1]


def test_span_multiset_identical(both_backends):
    """Same traced operations, rank by rank (names are deterministic).

    ``MPI_Waitsome`` is exempt, as in the ledger conformance contract:
    how many polls it takes to drain a completion set depends on real
    message arrival order, not the modeled schedule.
    """
    names = {}
    for backend, (_, (spans, _)) in both_backends.items():
        names[backend] = {
            r: sorted(s.name for s in spans
                      if s.rank == r and s.name != "MPI_Waitsome")
            for r in range(3)}
    assert names["thread"] == names["mp-shm"]
