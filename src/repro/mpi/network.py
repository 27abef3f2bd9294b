"""Parametric network cost model for the simulated MPI layer.

Cost of moving ``n`` bytes point-to-point::

    t = (latency_us + n / bandwidth_bytes_per_us) * jitter

where ``jitter`` is a log-normal multiplier modeling fluctuating network
load — the cause of the scatter in the paper's Figure 9 ("the substantial
scatter is caused by fluctuating network loads").  Collectives are charged a
``ceil(log2 P)``-stage tree cost, the standard model for reductions,
barriers and gathers on switched clusters.

Defaults approximate the paper's testbed era (100 Mb/s switched Ethernet):
~50 us latency, ~12.5 bytes/us bandwidth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.mpi.codec import pickled_size
from repro.util.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth/jitter model, all times in microseconds.

    Parameters
    ----------
    latency_us:
        Per-message fixed cost (one-way).
    bandwidth_bytes_per_us:
        Sustained point-to-point bandwidth.
    jitter_sigma:
        Sigma of the log-normal load multiplier.  ``0`` disables jitter
        (used by the ablation bench to collapse Figure 9's scatter).
    min_cost_us:
        Floor applied to every charge (a zero-byte message still costs
        something).
    """

    latency_us: float = 50.0
    bandwidth_bytes_per_us: float = 12.5
    jitter_sigma: float = 0.25
    min_cost_us: float = 1.0

    def __post_init__(self) -> None:
        check_non_negative("latency_us", self.latency_us)
        check_positive("bandwidth_bytes_per_us", self.bandwidth_bytes_per_us)
        check_non_negative("jitter_sigma", self.jitter_sigma)
        check_non_negative("min_cost_us", self.min_cost_us)

    # ------------------------------------------------------------------ #
    def base_p2p_cost(self, nbytes: int) -> float:
        """Deterministic point-to-point cost (no jitter)."""
        check_non_negative("nbytes", nbytes)
        return max(self.min_cost_us, self.latency_us + nbytes / self.bandwidth_bytes_per_us)

    def sample_jitter(self, rng: np.random.Generator) -> float:
        """Draw a load multiplier (>= ~e^{-3 sigma}, mean ~1)."""
        if self.jitter_sigma == 0.0:
            return 1.0
        # Mean-one log-normal: exp(N(-sigma^2/2, sigma)).
        return float(np.exp(rng.normal(-0.5 * self.jitter_sigma**2, self.jitter_sigma)))

    def p2p_cost(self, nbytes: int, rng: np.random.Generator) -> float:
        """Jittered point-to-point transfer cost in microseconds."""
        return self.base_p2p_cost(nbytes) * self.sample_jitter(rng)

    def collective_cost(self, nbytes: int, nranks: int, rng: np.random.Generator) -> float:
        """Jittered cost of one collective among ``nranks`` participants:
        ``ceil(log2 P)`` binomial-tree stages each moving the full payload
        (none for one rank), one jitter draw, floored at ``min_cost_us``."""
        check_positive("nranks", nranks)
        base = math.ceil(math.log2(nranks)) * self.base_p2p_cost(nbytes)
        return max(self.min_cost_us, base * self.sample_jitter(rng))


# A fast, low-latency model handy for tests that don't care about timing.
LOOPBACK = NetworkModel(latency_us=1.0, bandwidth_bytes_per_us=1000.0, jitter_sigma=0.0)


def payload_nbytes(obj: object) -> int:
    """Best-effort byte size of a message payload.

    NumPy arrays report their buffer size; bytes-like objects their
    length; everything else is sized via pickling (matching what a real
    MPI layer shipping pickled objects would transmit), delegated to
    :func:`repro.mpi.codec.pickled_size` — module-scope import, and an
    exact memo for repeated message signatures, so the per-send sizing
    cost on the hot path is a dict lookup instead of a serialization.
    """
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if obj is None:
        return 0
    return pickled_size(obj)
