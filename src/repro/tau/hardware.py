"""PAPI/PCL-analog hardware counters backed by an explicit cache model.

The paper's TAU component reads "hardware performance metrics such as data
cache misses and floating point instructions executed" through PAPI.  We
have no MSR access from portable Python, so counters are *fed by the
kernels themselves*: each computational kernel reports the arrays it
touched (size, element width, access pattern) and the floating-point
operations it executed, and :class:`CacheModel` converts accesses into
estimated hit/miss counts for a direct-mapped-like cache of configurable
capacity.

The model captures exactly the effects the paper leans on:

* a **sequential** pass over ``n`` elements misses once per cache line;
* a **strided** pass (stride >= one line) misses on every access once the
  working set exceeds capacity, but hits on re-traversal while the array is
  cache-resident — producing the strided/sequential cost ratio of ~1 for
  small arrays rising toward line_bytes/elem_bytes for large ones
  (Figures 4-5).

DESIGN.md's ablation halves the capacity to show model-coefficient shifts
with stable functional form (paper Section 6).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from repro.util.validation import check_positive

# Canonical PAPI-style counter names used throughout the package.
PAPI_FP_OPS = "PAPI_FP_OPS"
PAPI_L2_DCM = "PAPI_L2_DCM"  # data cache misses
PAPI_L2_DCH = "PAPI_L2_DCH"  # data cache hits
PAPI_LD_INS = "PAPI_LD_INS"  # load instructions (array element reads)


class AccessPattern(enum.Enum):
    """How a kernel walks an array."""

    SEQUENTIAL = "sequential"
    STRIDED = "strided"
    RANDOM = "random"


@dataclass(frozen=True)
class CacheModel:
    """Analytic cache hit/miss estimator.

    Parameters mirror the paper's testbed L2 (512 kB, 64-byte lines).
    """

    capacity_bytes: int = 512 * 1024
    line_bytes: int = 64

    def __post_init__(self) -> None:
        check_positive("capacity_bytes", self.capacity_bytes)
        check_positive("line_bytes", self.line_bytes)
        if self.line_bytes > self.capacity_bytes:
            raise ValueError("cache line larger than cache capacity")

    # ------------------------------------------------------------------ #
    def lines_for(self, nbytes: int) -> int:
        """Number of cache lines spanned by ``nbytes`` of contiguous data."""
        return max(1, math.ceil(nbytes / self.line_bytes)) if nbytes > 0 else 0

    def resident(self, nbytes: int) -> bool:
        """Does a working set of ``nbytes`` fit in the cache?"""
        return nbytes <= self.capacity_bytes

    def access_counts(
        self,
        n_elements: int,
        elem_bytes: int = 8,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        stride_elements: int = 1,
        passes: int = 1,
    ) -> tuple[int, int]:
        """Estimate ``(hits, misses)`` for walking an array.

        ``passes`` counts complete traversals of the same array (a stencil
        kernel typically reads its input a few times).
        """
        if n_elements < 0:
            raise ValueError(f"n_elements must be >= 0, got {n_elements}")
        check_positive("elem_bytes", elem_bytes)
        check_positive("passes", passes)
        check_positive("stride_elements", stride_elements)
        if n_elements == 0:
            return (0, 0)

        total_bytes = n_elements * elem_bytes
        accesses_per_pass = n_elements
        total_accesses = accesses_per_pass * passes

        if pattern is AccessPattern.SEQUENTIAL or (
            pattern is AccessPattern.STRIDED
            and stride_elements * elem_bytes < self.line_bytes
        ):
            # One (compulsory) miss per line on the first pass; later passes
            # hit if resident, miss once per line again otherwise.
            lines = self.lines_for(total_bytes)
            if self.resident(total_bytes):
                misses = lines
            else:
                misses = lines * passes
        elif pattern is AccessPattern.STRIDED:
            # Every access touches a new line.  Re-traversals hit only if
            # the whole footprint is resident.
            if self.resident(total_bytes):
                misses = accesses_per_pass
            else:
                misses = total_accesses
        else:  # RANDOM
            if self.resident(total_bytes):
                misses = self.lines_for(total_bytes)
            else:
                # Probability an access hits ~ capacity fraction resident.
                p_hit = self.capacity_bytes / total_bytes
                misses = int(round(total_accesses * (1.0 - p_hit)))
        misses = min(misses, total_accesses)
        return (total_accesses - misses, misses)

    def miss_ratio(self, n_elements: int, **kwargs) -> float:
        """Convenience: fraction of accesses that miss."""
        hits, misses = self.access_counts(n_elements, **kwargs)
        total = hits + misses
        return misses / total if total else 0.0


class HardwareCounters:
    """Cumulative PAPI-style counter set for one rank.

    Kernels report their work through :meth:`record_array_walk` and
    :meth:`record_flops`.  Every profiler frame reads them at its start and
    stop, so a stopped frame holds the counts of its own interval.
    """

    def __init__(self, cache: CacheModel | None = None) -> None:
        self.cache = cache or CacheModel()
        self._counters: dict[str, int] = {}

    def increment(self, name: str, value: int = 1) -> None:
        """Add ``value`` to counter ``name`` (created at zero on first use)."""
        if value < 0:
            raise ValueError(f"counter increment must be >= 0, got {value}")
        self._counters[name] = self._counters.get(name, 0) + int(value)

    def record_flops(self, n: int) -> None:
        """Report ``n`` floating point operations executed."""
        self.increment(PAPI_FP_OPS, n)

    def record_array_walk(
        self,
        n_elements: int,
        elem_bytes: int = 8,
        pattern: AccessPattern = AccessPattern.SEQUENTIAL,
        stride_elements: int = 1,
        passes: int = 1,
    ) -> None:
        """Report an array traversal; cache model converts it to hits/misses."""
        hits, misses = self.cache.access_counts(
            n_elements, elem_bytes, pattern, stride_elements, passes
        )
        self.increment(PAPI_L2_DCH, hits)
        self.increment(PAPI_L2_DCM, misses)
        self.increment(PAPI_LD_INS, hits + misses)

    def read(self) -> dict[str, int]:
        """Snapshot of all cumulative counter values."""
        return dict(self._counters)

    def value(self, name: str) -> int:
        """Current value of one counter (0 if never incremented)."""
        return self._counters.get(name, 0)
