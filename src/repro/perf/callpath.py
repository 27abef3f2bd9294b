"""Call-path recording.

The Mastermind needs "a call trace from which the inter-component
interaction may be derived" (paper Section 6).  Because every monitored
invocation flows through ``begin_invocation``/``end_invocation``, a simple
stack suffices: an invocation beginning while another is active is a child
of it.  The resulting caller->callee edge counts become the edge weights of
the application dual (Figure 10).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    import networkx as nx

#: pseudo-caller for invocations arriving with an empty stack
ROOT = "<root>"


class CallPathRecorder:
    """Stack-based caller/callee trace with invocation counting."""

    def __init__(self) -> None:
        self._stack: list[str] = []
        #: (caller label, callee label) -> number of calls
        self.edge_counts: dict[tuple[str, str], int] = {}
        #: label -> number of invocations
        self.node_counts: dict[str, int] = {}

    def push(self, label: str) -> None:
        """Enter a monitored invocation of ``label``."""
        caller = self._stack[-1] if self._stack else ROOT
        self.edge_counts[(caller, label)] = self.edge_counts.get((caller, label), 0) + 1
        self.node_counts[label] = self.node_counts.get(label, 0) + 1
        self._stack.append(label)

    def pop(self, label: str) -> None:
        """Leave the innermost invocation (must match ``label``)."""
        if not self._stack:
            raise RuntimeError(f"call-path pop({label!r}) with empty stack")
        top = self._stack.pop()
        if top != label:
            self._stack.append(top)
            raise RuntimeError(f"call-path pop({label!r}) does not match top {top!r}")

    @property
    def depth(self) -> int:
        return len(self._stack)

    def graph(self, include_root: bool = False) -> nx.DiGraph:
        """Caller->callee digraph with ``count`` edge attributes."""
        import networkx as nx

        g = nx.DiGraph()
        for label, n in self.node_counts.items():
            g.add_node(label, invocations=n)
        for (caller, callee), n in self.edge_counts.items():
            if caller == ROOT and not include_root:
                continue
            if caller == ROOT:
                g.add_node(ROOT, invocations=0)
            g.add_edge(caller, callee, count=n)
        return g

    def calls_between(self, caller: str, callee: str) -> int:
        return self.edge_counts.get((caller, callee), 0)
