"""The PMM (performance measurement and modeling) infrastructure.

Paper Section 4: "Our performance system consists of three distinct
component types: a TAU component, proxy components and a 'Mastermind'
component."  The TAU component lives in :mod:`repro.tau.component`; this
package holds the other two plus the modeling machinery they feed:

* :mod:`repro.perf.proxy` — automatic generation of same-interface proxy
  components that snoop method invocations, extract performance parameters
  and forward the call;
* :mod:`repro.perf.records` — per-method record objects storing
  per-invocation measurements, each with its caller (the call path);
* :mod:`repro.perf.mastermind` — the Mastermind component: gathers, stores
  and reports measurement data, builds performance models and the
  application dual;
* :mod:`repro.perf.dualgraph` — the dual directed graph of Figure 10;
* :mod:`repro.perf.optimizer` — component-assembly optimization over the
  composite model.
"""

from repro.perf.monitor import MonitorPort
from repro.perf.records import InvocationRecord, MethodRecord
from repro.perf.proxy import perf_params, make_proxy_port, ProxyComponent, insert_proxy
from repro.perf.mastermind import Mastermind
from repro.perf.dualgraph import build_dual, dual_to_composite, insignificant_subgraph_nodes
from repro.perf.optimizer import AssemblyOptimizer, OptimizationResult
from repro.perf.online import OnlineMonitor, Expectation, Candidate, DriftReport

__all__ = [
    "MonitorPort",
    "InvocationRecord",
    "MethodRecord",
    "perf_params",
    "make_proxy_port",
    "ProxyComponent",
    "insert_proxy",
    "Mastermind",
    "build_dual",
    "dual_to_composite",
    "insignificant_subgraph_nodes",
    "AssemblyOptimizer",
    "OptimizationResult",
    "OnlineMonitor",
    "Expectation",
    "Candidate",
    "DriftReport",
]
