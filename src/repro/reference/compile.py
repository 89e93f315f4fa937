"""From-scratch compiles: the oracles for the copied and derived forms.

* :func:`lower_graph` interns a whole graph's dict adjacency into a
  :class:`~repro.core.prune_kernel.CompiledGraph` on every call.
  Production :func:`~repro.core.prune_kernel.compile_graph` copies the
  rows the graph keeps from its last lowering instead, so the tests
  compare it (and every delta-patched artifact) against this.
* :func:`compile_component` builds a search
  :class:`~repro.core.kernel.CompiledComponent` directly from a
  component subgraph.  Production never compiles a component on its
  own: the search views are projected out of the whole-graph artifact
  by :func:`repro.core.kernel.derive_component_view`, and the tests
  check that projection against this bit for bit.
"""

from __future__ import annotations

from array import array

from repro.core.kernel import CompiledComponent
from repro.core.prune_kernel import CompiledGraph, node_sort_key
from repro.uncertain.graph import UncertainGraph

__all__ = ["compile_component", "lower_graph"]


def lower_graph(graph: UncertainGraph) -> CompiledGraph:
    """Lower ``graph`` from its dict adjacency, ignoring any held rows.

    Node ids follow graph iteration order; each CSR row is the node's
    ``incident()`` row in insertion order, and every derived form is
    rebuilt from that flat state.
    """
    nodes = tuple(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    row_offsets = [0]
    nbr_ids: list[int] = []
    nbr_probs: list[float] = []
    id_of = index.__getitem__
    for u in nodes:
        inc = graph.incident(u)
        nbr_ids.extend(map(id_of, inc))
        nbr_probs.extend(inc.values())
        row_offsets.append(len(nbr_ids))
    return CompiledGraph(nodes, row_offsets, nbr_ids, nbr_probs,
                         graph.version)


def compile_component(graph: UncertainGraph) -> CompiledComponent:
    """Compile ``graph`` (typically one connected component) for search.

    Ids follow :func:`node_sort_key`; each CSR row is sorted by
    descending probability, ties by id.
    """
    order = sorted(graph.nodes(), key=node_sort_key)
    index = {u: i for i, u in enumerate(order)}
    row_offsets = array("l", [0])
    nbr_ids = array("l")
    nbr_probs = array("d")
    for u in order:
        row = sorted(
            ((index[v], p) for v, p in graph.incident(u).items()),
            key=lambda e: (-e[1], e[0]),
        )
        for j, p in row:
            nbr_ids.append(j)
            nbr_probs.append(p)
        row_offsets.append(len(nbr_ids))
    return CompiledComponent(order, row_offsets, nbr_ids, nbr_probs)
