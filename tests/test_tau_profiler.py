"""Profiler semantics: nesting, exclusivity, groups, the MPI ledger read,
the text profile."""

import pytest

from repro.mpi.accounting import MPIAccounting
from repro.tau.profiler import MPI_GROUP, Profiler, format_profile


class FakeClock:
    """Deterministic clock: each now() call can be advanced manually."""

    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


@pytest.fixture
def clocked():
    clock = FakeClock()
    return Profiler(rank=0, clock=clock), clock


@pytest.fixture
def ledgered(clocked):
    """A clocked profiler bound to a rank ledger, as the TAU component
    binds it."""
    p, clock = clocked
    p.ledger = MPIAccounting()
    return p, clock, p.ledger


def test_simple_timer(clocked):
    p, clock = clocked
    p.start("a")
    clock.tick(100.0)
    frame = p.stop("a")
    assert frame.t_end_us - frame.t_start_us == 100.0
    stats = p.get("a")
    assert stats.inclusive_us == 100.0
    assert stats.exclusive_us == 100.0
    assert stats.calls == 1


def test_nested_inclusive_exclusive(clocked):
    p, clock = clocked
    p.start("outer")
    clock.tick(10.0)
    p.start("inner")
    clock.tick(30.0)
    p.stop("inner")
    clock.tick(5.0)
    p.stop("outer")
    outer, inner = p.get("outer"), p.get("inner")
    assert outer.inclusive_us == 45.0
    assert outer.exclusive_us == 15.0
    assert inner.inclusive_us == 30.0
    assert inner.exclusive_us == 30.0


def test_reentrant_timer_counts_inclusive_once(clocked):
    p, clock = clocked
    p.start("r")
    clock.tick(10.0)
    p.start("r")  # recursion
    clock.tick(20.0)
    p.stop("r")
    clock.tick(5.0)
    p.stop("r")
    stats = p.get("r")
    assert stats.calls == 2
    assert stats.inclusive_us == 35.0  # not 55: inner bracketing not re-added
    # exclusive: inner 20 + outer (35 - child 20) = 35 total
    assert stats.exclusive_us == 35.0


def test_mismatched_stop_raises(clocked):
    p, clock = clocked
    p.start("a")
    p.start("b")
    with pytest.raises(RuntimeError, match="does not match"):
        p.stop("a")


def test_stop_without_start_raises(clocked):
    p, _ = clocked
    with pytest.raises(RuntimeError, match="no timer running"):
        p.stop("never")


def test_timer_context_manager(clocked):
    p, clock = clocked
    with p.timer("ctx"):
        clock.tick(7.0)
    assert p.get("ctx").inclusive_us == 7.0


def test_context_manager_stops_on_exception(clocked):
    p, clock = clocked
    with pytest.raises(ValueError):
        with p.timer("ctx"):
            clock.tick(3.0)
            raise ValueError("inner")
    assert p.get("ctx").calls == 1
    assert p.running() == []


def test_group_disable_suppresses(clocked):
    p, clock = clocked
    p.disable_group("io")
    p.start("t", group="io")
    clock.tick(10.0)
    assert p.stop("t").suppressed
    assert p.group_total_us("io") == 0.0
    p.enable_group("io")
    with p.timer("t", group="io"):
        clock.tick(5.0)
    assert p.group_total_us("io") == 5.0


def test_mpi_group_cannot_be_disabled(ledgered):
    p, _, ledger = ledgered
    with pytest.raises(ValueError, match="MPI group"):
        p.disable_group(MPI_GROUP)
    ledger.record("MPI_Send", 5.0)
    assert p.group_total_us(MPI_GROUP) == 5.0


def test_charge_extends_enclosing_inclusive_not_exclusive(ledgered):
    p, clock, ledger = ledgered
    p.start("method")
    clock.tick(10.0)
    ledger.record("MPI_Waitsome", 50.0)
    clock.tick(10.0)
    p.stop("method")
    m = p.get("method")
    assert m.inclusive_us == 70.0  # 20 wall + 50 charged
    assert m.exclusive_us == 20.0
    w = p.get("MPI_Waitsome")
    assert w.inclusive_us == w.exclusive_us == 50.0
    assert w.group == MPI_GROUP


def test_charge_with_empty_stack(ledgered):
    p, _, ledger = ledgered
    ledger.record("MPI_Send", 3.0)
    assert p.get("MPI_Send").inclusive_us == 3.0


def test_group_total_sums_only_group(ledgered):
    p, clock, ledger = ledgered
    ledger.record("MPI_Send", 5.0)
    ledger.record("MPI_Recv", 7.0)
    with p.timer("compute"):
        clock.tick(100.0)
    assert p.group_total_us(MPI_GROUP) == 12.0
    assert p.group_total_us("default") == 100.0


def test_running_stack_names(clocked):
    p, _ = clocked
    p.start("a")
    p.start("b")
    assert p.running() == ["a", "b"]
    p.stop("b")
    assert p.running() == ["a"]


def test_snapshot_is_a_copy(clocked):
    p, clock = clocked
    with p.timer("t"):
        clock.tick(1.0)
    snap = p.timers_snapshot()
    snap["t"].inclusive_us = 999.0
    assert p.get("t").inclusive_us == 1.0


def test_dump_writes_profile_file(tmp_path, ledgered):
    p, clock, ledger = ledgered
    with p.timer("region"):
        clock.tick(2.0)
    ledger.record("MPI_Bcast", 1.5)
    p.events.record("ev", 4.5)
    p.counters.record_flops(10)
    text = format_profile(p.rank, p.timers_snapshot(), p.events.summaries(),
                          p.counters.read())
    assert text.startswith("# TAU-style profile, rank 0\n")
    assert "region" in text
    assert "'MPI_Bcast' MPI 1 1.500 1.500" in text
    assert "ev" in text
    assert "PAPI_FP_OPS" in text
