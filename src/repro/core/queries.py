"""Query layer: targeted maximal-clique questions.

Downstream applications rarely want *all* maximal (k, tau)-cliques; they
ask focused questions: "which reliable groups contain this user?", "can
this candidate set be extended?", "is this set itself one of the answers?".
This module answers those without a full enumeration by reusing the
fixed-set variant of Algorithm 3 (the ``V_I`` parameter the paper
introduces exactly for anchored searches) and restricting the
set-enumeration to the anchor's neighborhood.

The functions here are one-shot wrappers over the session layer: each
call builds a throwaway :class:`~repro.core.session.PreparedGraph` and
delegates to the method of the same name.  Callers issuing repeated
queries against one graph should hold a session themselves — anchored
cores and their compiled components are then cached across calls.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from repro.core.session import PreparedGraph
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "cliques_containing",
    "is_extendable",
    "containing_clique_exists",
]


def cliques_containing(
    graph: UncertainGraph,
    node: Node,
    k: int,
    tau: float,
    jobs: int | None = 1,
) -> Iterator[frozenset[Node]]:
    """Yield every maximal (k, tau)-clique of ``graph`` containing ``node``.

    Restricts the search to the closed neighborhood of ``node``: any
    clique containing the node lives there, and any extender of such a
    clique is adjacent to the node, hence also lives there — so maximal
    cliques containing ``node`` are in exact bijection between the full
    graph and the neighborhood subgraph.  The subgraph is further pruned
    with the anchored (Top_k, tau)-core (Algorithm 3's ``V_I``), which
    aborts immediately when the node itself cannot survive.

    ``jobs`` sets the inner enumeration's worker-process count, with the
    same contract as :func:`repro.core.enumeration.maximal_cliques` (any
    value yields bit-identical cliques in identical order).
    """
    return PreparedGraph(graph).cliques_containing(
        node, k, tau, jobs=jobs
    )


def is_extendable(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    tau: float,
    jobs: int | None = 1,
) -> bool:
    """Whether some single node can extend ``nodes`` to a larger
    tau-clique (the complement of the maximality condition).

    ``jobs`` is accepted for query-API symmetry and validated, but
    unused: this query is a neighborhood scan with no search phase to
    configure.
    """
    return PreparedGraph(graph).is_extendable(nodes, tau, jobs=jobs)


def containing_clique_exists(
    graph: UncertainGraph,
    nodes: Iterable[Node],
    k: int,
    tau: float,
    jobs: int | None = 1,
) -> bool:
    """Whether some maximal (k, tau)-clique contains all of ``nodes``.

    Equivalent to: ``nodes`` is a tau-clique and can be grown (possibly
    by zero steps) to size above ``k`` while keeping ``CPr >= tau``.
    Decided by an anchored search on the common neighborhood, with
    ``jobs`` configuring that search exactly as on
    :func:`repro.core.enumeration.maximal_cliques`.
    """
    return PreparedGraph(graph).containing_clique_exists(
        nodes, k, tau, jobs=jobs
    )
