"""The application dual (paper Figure 10).

"Below, its dual, constructed as a directed graph in the Mastermind, with
edge weights corresponding to the number of invocations and the vertex
weights being the compute and communication times determined from the
performance models (PM_i) for component i."

:func:`build_dual` combines the Mastermind's records and the call path
folded from them with (optionally) per-label performance models: vertex
weights are the model-predicted compute time over the observed workload
(falling back to measured totals when no model is supplied) plus the
measured communication time; edge weights are invocation counts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping

from repro.models.composite import CompositeModel, Workload
from repro.models.performance import PerformanceModel
from repro.perf.mastermind import Mastermind
from repro.perf.records import ROOT

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx


def build_dual(
    mastermind: Mastermind,
    models: Mapping[str, PerformanceModel] | None = None,
    param: str = "Q",
) -> nx.DiGraph:
    """Construct the dual digraph from a Mastermind's recorded run.

    Nodes are monitored routine names (``label::method()``) with
    attributes ``compute_us``, ``comm_us``, ``invocations``,
    ``predicted`` (True when a model supplied the compute weight) and
    ``model`` (the model's name, if any).  Edges carry ``count``; calls
    from outside every monitored routine make no edge.
    """
    import networkx as nx

    models = dict(models or {})
    g = nx.DiGraph()
    for rec in mastermind.all_records():
        name = rec.timer_name
        model = models.get(name) or models.get(rec.label)
        if model is not None:
            try:
                workload = Workload.from_samples(rec.param_series(param))
                compute = workload.expected_cost(model)
                predicted = True
            except KeyError:
                compute = float(rec.compute_series().sum())
                predicted = False
        else:
            compute = float(rec.compute_series().sum())
            predicted = False
        g.add_node(
            name,
            invocations=len(rec),
            compute_us=compute,
            comm_us=rec.total_mpi_us(),
            predicted=predicted,
            model=model.name if model is not None else None,
        )
    for (caller, callee), n in mastermind.edge_counts().items():
        if caller != ROOT:
            g.add_edge(caller, callee, count=n)
    return g


def node_total_us(g: nx.DiGraph, node: str) -> float:
    """Vertex weight: compute + communication time."""
    data = g.nodes[node]
    return float(data.get("compute_us", 0.0)) + float(data.get("comm_us", 0.0))


def insignificant_subgraph_nodes(g: nx.DiGraph, fraction: float = 0.01) -> set[str]:
    """Nodes whose entire call subtree is performance-insignificant.

    "The parent-child relationship is preserved to identify sub-graphs that
    do not contribute much to the execution time and thus can be neglected
    during component assembly optimization."  A node qualifies when the sum
    of vertex weights over its descendants-and-self is below ``fraction``
    of the whole graph's weight.
    """
    import networkx as nx

    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    total = sum(node_total_us(g, n) for n in g.nodes)
    if total <= 0:
        return set()
    out: set[str] = set()
    for n in g.nodes:
        subtree = {n} | nx.descendants(g, n)
        weight = sum(node_total_us(g, m) for m in subtree)
        if weight < fraction * total:
            out.add(n)
    return out


def dual_to_composite(
    mastermind: Mastermind,
    slots: Mapping[str, str],
    models: Mapping[str, PerformanceModel] | None = None,
    param: str = "Q",
) -> CompositeModel:
    """Turn a recorded run into an implementation-independent composite.

    ``slots`` maps routine names (or labels) to slot keys: those nodes
    become free variables to be bound per candidate implementation; all
    other monitored nodes are bound to ``models`` entries or, absent a
    model, to a constant model of their measured mean.
    """
    from repro.models.fits import fit_constant

    models = dict(models or {})
    comp = CompositeModel()
    for rec in mastermind.all_records():
        name = rec.timer_name
        slot = slots.get(name) or slots.get(rec.label)
        try:
            workload = Workload.from_samples(rec.param_series(param))
        except KeyError:
            workload = Workload((0.0,), (len(rec),))
        comm = rec.total_mpi_us()
        if slot is not None:
            comp.add_node(name, workload, slot=slot, comm_us=comm)
            continue
        model = models.get(name) or models.get(rec.label)
        if model is None:
            wall = rec.wall_series()
            mean = float(wall.mean()) if wall.size else 0.0
            # Constant fallback: two identical points make fit_constant valid.
            cfit = fit_constant([0.0, 1.0], [mean, mean])
            model = PerformanceModel(name=f"{name}:measured-mean", mean_fit=cfit)
            comp.add_node(name, Workload((0.0,), (len(rec),)), model=model, comm_us=comm)
        else:
            comp.add_node(name, workload, model=model, comm_us=comm)
    for (caller, callee), count in mastermind.edge_counts().items():
        if caller in comp.nodes() and callee in comp.nodes():
            comp.add_edge(caller, callee, count)
    return comp
