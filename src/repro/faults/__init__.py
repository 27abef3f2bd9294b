"""Fault injection and resilience for the simulated component runtime.

Five pieces, composed by the case-study harness:

* :mod:`repro.faults.plan` — seeded, declarative, JSON-round-trippable
  fault plans (message drops/delays/duplications, rank stalls, component
  exceptions and latency spikes, crash points);
* :mod:`repro.faults.injector` — the deterministic runtime scheduler the
  MPI layer and the performance proxies consult;
* :mod:`repro.faults.policy` — recovery semantics: retransmission of
  dropped messages on the mailbox's evidence, typed
  :class:`~repro.faults.policy.CommFailure`, duplicate suppression,
  component-call retry with backoff;
* :mod:`repro.faults.checkpoint` — atomic per-rank checkpoints of the AMR
  hierarchy + driver + Mastermind state, with bitwise-identical restart;
* :mod:`repro.faults.straggler` — per-rank MPI-time outlier detection
  feeding the online monitor's model-guided component swap.

Submodules are loaded lazily (PEP 562): the MPI layer imports
``repro.faults.policy`` / ``repro.faults.plan`` (leaf modules with no
dependency on :mod:`repro.mpi`), while :mod:`repro.faults.checkpoint`
reaches back into :mod:`repro.amr`; eager re-exports here would close an
import cycle ``mpi.world -> faults -> amr -> mpi.comm``.
"""

from __future__ import annotations

import importlib

_EXPORTS = {
    "CheckpointConfig": "repro.faults.checkpoint",
    "Checkpointer": "repro.faults.checkpoint",
    "hierarchy_state": "repro.faults.checkpoint",
    "hierarchy_states_equal": "repro.faults.checkpoint",
    "latest_step": "repro.faults.checkpoint",
    "load_rank_state": "repro.faults.checkpoint",
    "restore_hierarchy": "repro.faults.checkpoint",
    "ComponentAction": "repro.faults.injector",
    "FaultInjector": "repro.faults.injector",
    "MessageAction": "repro.faults.injector",
    "SimulatedCrash": "repro.faults.injector",
    "TransientComponentError": "repro.faults.injector",
    "ComponentFault": "repro.faults.plan",
    "FaultPlan": "repro.faults.plan",
    "MessageFault": "repro.faults.plan",
    "RankStall": "repro.faults.plan",
    "canned_plans": "repro.faults.plan",
    "CommFailure": "repro.faults.policy",
    "ResiliencePolicy": "repro.faults.policy",
    "ResilienceStats": "repro.faults.policy",
    "StragglerDetector": "repro.faults.straggler",
    "StragglerReport": "repro.faults.straggler",
    "mpi_totals_by_rank": "repro.faults.straggler",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
