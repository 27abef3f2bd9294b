"""Declarative, reproducible fault plans.

A :class:`FaultPlan` is a seeded, JSON-round-trippable schedule of failures
to inject into one simulated run:

* :class:`MessageFault` — drop / delay / duplicate point-to-point messages
  at the :mod:`repro.mpi` layer;
* :class:`RankStall` — latency spikes charged to one rank's MPI operations
  (the modeled form of a transient straggler);
* :class:`ComponentFault` — exceptions or real latency spikes injected at
  the :mod:`repro.perf.proxy` call boundary;
* a crash point (``kill_at_step``) that terminates the driver mid-run, the
  scenario checkpoint/restart exists for.

Determinism: faults trigger on *per-rank occurrence counters* (the k-th
matching message sent by a rank, the k-th matching MPI op on a rank, the
k-th matching proxy invocation on a rank), optionally thinned by a
Bernoulli draw from a generator derived from ``(seed, fault index, rank)``
via :mod:`repro.util.rng`'s SeedSequence spawning.  Neither counting nor
the draws depend on thread interleaving, so the same plan + seed yields the
identical failure schedule on every run.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

from repro.util.validation import check_in_range, check_non_negative

#: message fault kinds
DROP = "drop"
DELAY = "delay"
DUPLICATE = "duplicate"
_MESSAGE_KINDS = (DROP, DELAY, DUPLICATE)

#: component fault kinds
RAISE = "raise"
COMPONENT_DELAY = "delay"
_COMPONENT_KINDS = (RAISE, COMPONENT_DELAY)


def _check_selector(name: str, index: int, count: int, probability: float) -> None:
    check_non_negative(f"{name}.index", index)
    if count < 1:
        raise ValueError(f"{name}.count must be >= 1, got {count}")
    check_in_range(f"{name}.probability", probability, 0.0, 1.0)


@dataclass(frozen=True)
class MessageFault:
    """Fault on point-to-point messages matched at send time.

    ``source``/``dest``/``tag`` filter the messages considered (``None``
    matches anything); the fault fires for matching send numbers
    ``index .. index+count-1``, counted per sending rank.  ``kind``:

    * ``"drop"`` — the message is lost in transit.  Under a resilience
      policy the transport's retransmission lands in the destination
      mailbox at the message's send seq with ``recoverable=True``; with
      ``False`` a tombstone lands there instead and the receive that
      matches it raises a typed :class:`~repro.faults.policy.CommFailure`.
      Without a policy the message is simply gone.
    * ``"delay"`` — the modeled transfer cost is multiplied by
      ``delay_factor`` and increased by ``delay_us``.
    * ``"duplicate"`` — a second copy of the envelope is delivered
      (resilient receivers deduplicate by send sequence number).
    """

    kind: str
    source: int | None = None
    dest: int | None = None
    tag: int | None = None
    index: int = 0
    count: int = 1
    probability: float = 1.0
    delay_us: float = 0.0
    delay_factor: float = 1.0
    recoverable: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _MESSAGE_KINDS:
            raise ValueError(
                f"MessageFault.kind must be one of {_MESSAGE_KINDS}, got {self.kind!r}"
            )
        _check_selector("MessageFault", self.index, self.count, self.probability)
        check_non_negative("MessageFault.delay_us", self.delay_us)
        if self.delay_factor < 1.0:
            raise ValueError(f"delay_factor must be >= 1, got {self.delay_factor}")

    def matches(self, source: int, dest: int, tag: int) -> bool:
        return (
            (self.source is None or self.source == source)
            and (self.dest is None or self.dest == dest)
            and (self.tag is None or self.tag == tag)
        )


@dataclass(frozen=True)
class RankStall:
    """Latency spike: extra modeled microseconds charged to one rank's MPI
    operations (matching ``routine``; ``None`` = any), for matching
    occurrence numbers ``index .. index+count-1`` on that rank.

    A sustained stall makes the rank a straggler: its monitored routines
    accumulate outsized MPI time, which the
    :class:`~repro.faults.straggler.StragglerDetector` picks up.
    """

    rank: int
    extra_us: float
    routine: str | None = None
    index: int = 0
    count: int = 1
    probability: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("RankStall.rank", self.rank)
        check_non_negative("RankStall.extra_us", self.extra_us)
        _check_selector("RankStall", self.index, self.count, self.probability)


@dataclass(frozen=True)
class ComponentFault:
    """Fault at the proxy call boundary of a monitored component.

    Matches invocations of ``label::method`` (``method=None`` = any method)
    on every rank, counted per rank.  ``kind="raise"`` makes the proxy
    raise a :class:`~repro.faults.injector.TransientComponentError` instead
    of forwarding (a resilient proxy retries with backoff);
    ``kind="delay"`` injects a *real* sleep of ``delay_us`` inside the
    monitored region, so the spike is visible to the Mastermind's records
    and the online drift detector.
    """

    label: str
    kind: str
    method: str | None = None
    index: int = 0
    count: int = 1
    probability: float = 1.0
    delay_us: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _COMPONENT_KINDS:
            raise ValueError(
                f"ComponentFault.kind must be one of {_COMPONENT_KINDS}, got {self.kind!r}"
            )
        _check_selector("ComponentFault", self.index, self.count, self.probability)
        check_non_negative("ComponentFault.delay_us", self.delay_us)

    def matches(self, label: str, method: str) -> bool:
        return self.label == label and (self.method is None or self.method == method)


@dataclass(frozen=True)
class FaultPlan:
    """One named, seeded failure scenario."""

    name: str = "faults"
    seed: int = 0
    messages: tuple[MessageFault, ...] = ()
    stalls: tuple[RankStall, ...] = ()
    components: tuple[ComponentFault, ...] = ()
    #: raise SimulatedCrash at the start of this driver step (None = never)
    kill_at_step: int | None = None
    #: ranks that crash at ``kill_at_step`` (None = all ranks)
    kill_ranks: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        # Tolerate lists from JSON round-trips.
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        object.__setattr__(self, "components", tuple(self.components))
        if self.kill_ranks is not None:
            object.__setattr__(self, "kill_ranks", tuple(self.kill_ranks))
        if self.kill_at_step is not None:
            check_non_negative("kill_at_step", self.kill_at_step)

    @property
    def n_faults(self) -> int:
        return len(self.messages) + len(self.stalls) + len(self.components)

    # ----------------------------------------------------- serialization
    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        return cls(
            name=data.get("name", "faults"),
            seed=int(data.get("seed", 0)),
            messages=tuple(MessageFault(**m) for m in data.get("messages", ())),
            stalls=tuple(RankStall(**s) for s in data.get("stalls", ())),
            components=tuple(ComponentFault(**c) for c in data.get("components", ())),
            kill_at_step=data.get("kill_at_step"),
            kill_ranks=(tuple(data["kill_ranks"])
                        if data.get("kill_ranks") is not None else None),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))


def canned_plans() -> dict[str, FaultPlan]:
    """The three stock failure scenarios used by tests, the ablation bench
    and the CI smoke job.

    * ``dropped-messages`` — ghost-exchange messages silently vanish
      (recoverable: under a resilience policy the receiver consumes the
      retransmission in send order and is charged for it).
    * ``straggler-stalls`` — rank 1's MPI operations suffer a long burst of
      200 ms latency spikes, turning it into a straggler.
    * ``flaky-component`` — the flux proxy throws transient errors and the
      States proxy gets a real latency spike.
    """
    return {
        "dropped-messages": FaultPlan(
            name="dropped-messages",
            messages=(
                MessageFault(kind=DROP, source=0, index=2, count=2),
                MessageFault(kind=DROP, source=1, index=5, count=1),
                MessageFault(kind=DELAY, source=2, index=3, count=2,
                             delay_factor=4.0, delay_us=10_000.0),
            ),
        ),
        "straggler-stalls": FaultPlan(
            name="straggler-stalls",
            stalls=(
                # The wide window spans initialization AND the monitored
                # stepping phase, so the Mastermind's per-rank records (not
                # just the raw ledgers) expose the straggler.
                RankStall(rank=1, extra_us=200_000.0, index=10, count=400),
            ),
            messages=(
                MessageFault(kind=DUPLICATE, source=1, index=4, count=2),
            ),
        ),
        "flaky-component": FaultPlan(
            name="flaky-component",
            components=(
                ComponentFault(label="g_proxy", method="compute",
                               kind=RAISE, index=3, count=2),
                ComponentFault(label="sc_proxy", method="compute",
                               kind=COMPONENT_DELAY, index=5, count=1,
                               delay_us=20_000.0),
            ),
        ),
    }
