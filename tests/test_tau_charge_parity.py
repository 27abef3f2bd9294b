"""A frame's MPI time is the difference of the rank ledger's totals at its
stop and start, and its exclusive time is its clock interval minus its
children's.  These are the numbers the earlier schemes (a charge walking
every open frame; a charge booked on the innermost frame and handed up at
``stop``) gave for the same call sequences: inclusive/exclusive
microseconds per timer and ``virtual_us`` per closed span, at every
nesting depth.  All durations are dyadic, so the float sums are exact
whatever order they are taken in.
"""

from repro.mpi.accounting import MPIAccounting
from repro.obs.span import SpanTracer
from repro.tau.profiler import Profiler


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


def _traced_profiler():
    clock = FakeClock()
    tracer = SpanTracer(rank=0)
    p = Profiler(rank=0, clock=clock, tracer=tracer)
    p.ledger = MPIAccounting()
    return p, clock, tracer


def _stats(p, name):
    t = p.get(name)
    return (t.calls, t.inclusive_us, t.exclusive_us)


def test_charges_at_every_depth_and_in_a_reentrant_frame():
    p, clock, tracer = _traced_profiler()
    p.ledger.record("MPI_Send", 8.0)  # no frame open: no span sees it
    p.start("a")
    clock.tick(10.0)
    p.ledger.record("MPI_Send", 5.0)  # depth 1
    p.start("b")
    clock.tick(10.0)
    p.ledger.record("MPI_Send", 2.5)  # depth 2
    p.start("c")
    clock.tick(5.0)
    p.ledger.record("MPI_Recv", 0.25)  # depth 3
    p.start("a")  # re-entrant
    clock.tick(5.0)
    p.ledger.record("MPI_Send", 1.5)  # depth 4
    p.stop("a")
    clock.tick(10.0)
    p.stop("c")
    clock.tick(3.0)
    p.ledger.record("MPI_Send", 4.0)  # depth 2 again, nested frames closed
    p.start("quiet")  # a frame that sees no charge
    clock.tick(2.0)
    p.stop("quiet")
    p.stop("b")
    clock.tick(50.0)
    p.stop("a")

    assert _stats(p, "a") == (2, 108.25, 65.0)
    assert _stats(p, "b") == (1, 43.25, 13.0)
    assert _stats(p, "c") == (1, 21.75, 15.0)
    assert _stats(p, "quiet") == (1, 2.0, 2.0)
    assert _stats(p, "MPI_Send") == (5, 21.0, 21.0)
    assert _stats(p, "MPI_Recv") == (1, 0.25, 0.25)
    assert [(s.name, s.attrs) for s in tracer.spans()] == [
        ("a", {"virtual_us": 1.5}),
        ("c", {"virtual_us": 1.75}),
        ("quiet", {}),
        ("b", {"virtual_us": 8.25}),
        ("a", {"virtual_us": 13.25}),
    ]


def test_charges_under_a_suppressed_frame_reach_the_live_one_outside():
    p, clock, tracer = _traced_profiler()
    p.disable_group("off")
    p.start("outer")
    clock.tick(10.0)
    p.start("hidden", group="off")
    clock.tick(5.0)
    p.ledger.record("MPI_Send", 3.0)
    p.start("leaf")
    clock.tick(2.0)
    p.ledger.record("MPI_Send", 0.5)
    p.stop("leaf")
    p.stop("hidden")
    clock.tick(1.0)
    p.stop("outer")

    assert _stats(p, "outer") == (1, 21.5, 16.0)
    assert _stats(p, "hidden") == (0, 0.0, 0.0)
    assert _stats(p, "leaf") == (1, 2.5, 2.0)
    assert _stats(p, "MPI_Send") == (2, 3.5, 3.5)
    assert [(s.name, s.attrs) for s in tracer.spans()] == [
        ("leaf", {"virtual_us": 0.5}),
        ("outer", {"virtual_us": 3.5}),
    ]
