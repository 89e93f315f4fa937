"""From-scratch compile of one component: the oracle for derived views.

Production never compiles a component on its own: the search views are
projected out of the whole-graph artifact by
:func:`repro.core.kernel.derive_component_view`.  This module builds the
same :class:`~repro.core.kernel.CompiledComponent` directly from a
component subgraph, so the tests can check the projection bit for bit.
"""

from __future__ import annotations

from array import array

from repro.core.kernel import CompiledComponent
from repro.core.prune_kernel import node_sort_key
from repro.uncertain.graph import UncertainGraph

__all__ = ["compile_component"]


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
