"""Top-r maximal (k, tau)-clique search.

The related-work model of Zou et al. [39] — which the paper's maximal
(k, tau)-clique model simplifies — asks for the *r largest* maximal
cliques rather than all of them.  This module provides that query on top
of the paper's machinery: a branch-and-bound enumeration that keeps the
``r`` largest maximal (k, tau)-cliques seen so far and uses the running
r-th-largest size as an adaptive size floor, so branches that cannot beat
the current top-r are pruned with the same color bounds MaxUC+ uses.

This is an extension beyond the paper's pseudo-code (its Section VII
discusses the model); it demonstrates how the pruning framework composes.
"""

from __future__ import annotations

import heapq
from repro.core.cut_pruning import cut_optimize
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.topk_core import topk_core
from repro.errors import ParameterError
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import validate_k, validate_tau

__all__ = ["top_r_maximal_cliques"]


def _clique_order_key(clique: frozenset[Node]) -> tuple[int, list[str]]:
    """Deterministic ranking: larger first, then lexicographic members."""
    return (-len(clique), sorted(str(v) for v in clique))


def top_r_maximal_cliques(
    graph: UncertainGraph,
    r: int,
    k: int,
    tau: float,
) -> list[frozenset[Node]]:
    """The ``r`` largest maximal (k, tau)-cliques, largest first.

    Ties are broken deterministically by the lexicographic order of the
    member names, so repeated runs return identical lists.  Fewer than
    ``r`` cliques are returned when the graph has fewer maximal
    (k, tau)-cliques.

    Implementation: enumerate per cut-optimized component with MUCE++'s
    pruning, maintaining a bounded min-heap of the best ``r``.  Because
    maximality is a global property, no output can be skipped outright —
    but components smaller than the current r-th best size are skipped
    wholesale, which on pruned graphs removes most of the work when ``r``
    is small.
    """
    if r <= 0:
        raise ParameterError(f"r must be positive, got {r}")
    validate_k(k)
    tau = validate_tau(tau)

    # One-shot driver: a single prune per call, no session to share a
    # compiled artifact with.
    survivors = topk_core(graph, k, tau).nodes  # repro-lint: ignore[RPL008]
    pruned = graph.induced_subgraph([u for u in graph if u in survivors])
    components = cut_optimize(pruned, k, tau).components
    # Large components first: fills the heap with big cliques early,
    # letting later small components be skipped.
    components.sort(key=lambda c: c.num_nodes, reverse=True)

    # Min-heap of (size, sequence, clique): the root is the smallest of
    # the kept cliques.  Enumeration order is deterministic, so which of
    # several equal-size cliques survive is reproducible.
    heap: list[tuple[int, int, frozenset[Node]]] = []
    sequence = 0

    def floor_size() -> int:
        return heap[0][0] if len(heap) == r else 0

    for component in components:
        if component.num_nodes <= max(k, floor_size() - 1):
            continue
        stats = EnumerationStats()
        for clique in maximal_cliques(
            component, k, tau, pruning="none", cut=False, insearch=True,
            stats=stats,
        ):
            entry = (len(clique), sequence, clique)
            sequence += 1
            if len(heap) < r:
                heapq.heappush(heap, entry)
            elif entry[0] > heap[0][0]:
                heapq.heapreplace(heap, entry)

    ranked = sorted(heap, key=lambda e: _clique_order_key(e[2]))
    return [clique for _, _, clique in ranked]
