"""Dict-based reference drivers for MUCE++ and MaxUC+.

Both drivers prune with the dict peels of :mod:`repro.reference.peels`,
split the survivors with the dict cut of :mod:`repro.reference.cut`
(or plain connected components), and search every component with the
set-enumeration recursion of Mukherjee et al. [18], [19] written over
the dict-of-dicts adjacency:

* :func:`maximal_cliques` runs :func:`_muc`, the MUC recursion of
  Algorithm 4, on every component, whatever its size;
* :func:`max_uc_plus` runs :func:`_search_component`, the MaxUC+
  branch-and-bound with the three color bounds of
  :mod:`repro.core.bounds` and the dict (Top_k, tau)-core as the
  in-search prune.

The production pipeline (:class:`~repro.core.session.PreparedGraph`)
must return the same clique set, and a maximum clique of the same size.
"""

from __future__ import annotations

import bisect
from typing import AbstractSet, Iterator

import repro.core.enumeration as enumeration_mod
from repro.core.bounds import (
    advanced_color_bound_one,
    advanced_color_bound_two,
    basic_color_bound,
)
from repro.core.enumeration import EnumerationStats, PruningRule
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import node_sort_key
from repro.deterministic.coloring import greedy_coloring
from repro.deterministic.components import component_subgraphs
from repro.reference.cut import cut_optimize
from repro.reference.peels import dp_core_plus, topk_core
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import threshold_floor, validate_k, validate_tau

__all__ = ["maximal_cliques", "max_uc_plus"]


def _components(
    graph: UncertainGraph,
    k: int,
    tau: float,
    pruning: PruningRule,
    cut: bool,
    stats: EnumerationStats,
) -> list[UncertainGraph]:
    """Prune, then cut or split the survivors into search components."""
    if pruning == "topk":
        survivors: AbstractSet[Node] = topk_core(graph, k, tau).nodes
    elif pruning == "ktau":
        survivors = dp_core_plus(graph, k, tau)
    elif pruning == "none":
        survivors = set(graph.nodes())
    else:
        raise ValueError(f"unknown pruning rule {pruning!r}")
    pruned = graph.induced_subgraph([u for u in graph if u in survivors])
    stats.nodes_after_pruning = pruned.num_nodes
    if cut:
        result = cut_optimize(pruned, k, tau)
        stats.cuts_found = result.cuts_found
        stats.cut_edges_removed = result.edges_removed
        components = result.components
    else:
        components = component_subgraphs(pruned)
    stats.components = len(components)
    return components


def maximal_cliques(
    graph: UncertainGraph,
    k: int,
    tau: float,
    pruning: PruningRule = "topk",
    cut: bool = True,
    insearch: bool = True,
    stats: EnumerationStats | None = None,
) -> list[frozenset[Node]]:
    """All maximal (k, tau)-cliques, via ``_muc`` on every component."""
    validate_k(k)
    tau = validate_tau(tau)
    stats = stats if stats is not None else EnumerationStats()
    min_size = k + 1
    tau_floor = threshold_floor(tau)
    out: list[frozenset[Node]] = []
    for component in _components(graph, k, tau, pruning, cut, stats):
        if component.num_nodes < min_size:
            continue
        out.extend(_muc_component(
            component, k, tau_floor, min_size, insearch, stats
        ))
    return out


def max_uc_plus(
    graph: UncertainGraph,
    k: int,
    tau: float,
    stats: MaximumSearchStats | None = None,
    use_advanced_one: bool = True,
    use_advanced_two: bool = True,
    insearch: bool = True,
) -> frozenset[Node] | None:
    """One maximum (k, tau)-clique via the dict MaxUC+ search."""
    validate_k(k)
    tau = validate_tau(tau)
    stats = stats if stats is not None else MaximumSearchStats()
    min_size = k + 1
    tau_floor = threshold_floor(tau)
    best: list[Node] | None = None
    best_size = k
    for component in _components(
        graph, k, tau, "topk", True, EnumerationStats()
    ):
        if component.num_nodes <= best_size:
            continue
        best, best_size = _search_component(
            component, greedy_coloring(component), k, tau, tau_floor,
            min_size, best, best_size, use_advanced_one, use_advanced_two,
            insearch, stats,
        )
    stats.best_size = best_size if best is not None else 0
    if best is None or len(best) < min_size:
        return None
    return frozenset(best)


def _search_component(
    component: UncertainGraph,
    colors: dict[Node, int],
    k: int,
    tau: float,
    tau_floor: float,
    min_size: int,
    best: list[Node] | None,
    best_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """MaxUC+ search of one component over the dict-of-dicts adjacency.

    ``best`` / ``best_size`` seed the incumbent; the improved pair is
    returned (``best`` unchanged when the component cannot beat it).
    """

    def search(
        clique: list[Node],
        clique_prob: float,
        candidates: list[tuple[Node, float]],
    ) -> None:
        nonlocal best, best_size
        stats.search_calls += 1
        if len(clique) > best_size:
            best = list(clique)
            best_size = len(clique)
        if not candidates:
            return

        # Bounds, cheapest first (Section V implementation details).
        if len(clique) + basic_color_bound(
            colors, (v for v, _ in candidates)
        ) <= best_size:
            stats.basic_color_prunes += 1
            return
        if use_advanced_one and len(clique) + advanced_color_bound_one(
            colors, candidates, clique_prob, tau
        ) <= best_size:
            stats.advanced_one_prunes += 1
            return
        if (
            use_advanced_two
            and clique
            and len(clique) + advanced_color_bound_two(
                component, colors, clique, candidates, clique_prob, tau
            ) <= best_size
        ):
            stats.advanced_two_prunes += 1
            return

        if insearch and len(clique) < min_size:
            members = clique + [v for v, _ in candidates]
            core = topk_core(
                component.induced_subgraph(members), k, tau,
                fixed=set(clique),
            )
            if not core.contains_fixed or len(core.nodes) < min_size:
                stats.insearch_prunes += 1
                return
            if len(core.nodes) < len(members):
                stats.insearch_prunes += 1
                candidates = [
                    (v, pi) for v, pi in candidates if v in core.nodes
                ]

        index = 0
        while index < len(candidates):
            if len(clique) + len(candidates) - index <= best_size:
                stats.size_bound_prunes += 1
                return
            u, pi_u = candidates[index]
            index += 1
            new_prob = clique_prob * pi_u
            incident = component.incident(u)
            new_candidates = []
            for v, pi_v in candidates[index:]:
                p = incident.get(v)
                if p is None:
                    continue
                pi = pi_v * p
                # Hot path: tau_floor = threshold_floor(tau) fast path.
                if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                    new_candidates.append((v, pi))
            clique.append(u)
            search(clique, new_prob, new_candidates)
            clique.pop()

    ordered = sorted(component.nodes(), key=node_sort_key)
    search([], 1.0, [(v, 1.0) for v in ordered])
    return best, best_size


def _muc(
    component: UncertainGraph,
    clique: list[Node],
    clique_prob: float,
    candidates: list[tuple[Node, float]],
    excluded: list[tuple[Node, float]],
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """The recursive ``MUC`` procedure (Algorithm 4, lines 7-22).

    The dict-of-dicts form of the search, run on every component by
    :func:`maximal_cliques`.

    ``candidates`` and ``excluded`` hold ``(node, pi_node)`` pairs where
    ``pi_node`` is the product of probabilities from the node to every
    member of ``clique``; the invariant ``clique_prob * pi_node >= tau``
    holds for every entry.  ``tau_floor`` is the tolerance-adjusted
    threshold computed once by the driver.
    """
    stats.search_calls += 1
    if not candidates and not excluded:
        if len(clique) >= min_size:
            stats.cliques += 1
            yield frozenset(clique)
        return

    if (
        insearch
        and len(clique) < min_size
        and len(candidates) >= enumeration_mod._INSEARCH_MIN_CANDIDATES
    ):
        # Lines 12-15: any maximal clique inside R + C lives in the
        # (Top_k, tau)-core of the induced subgraph, so shrink C to it.
        # (Small candidate sets skip the peel: the branch-size prune below
        # handles them more cheaply — an engineering deviation from the
        # pseudo-code's bare |R| < k condition, read from the enumeration
        # module at call time so tests can force the gate for both.)
        pruned = _insearch_topk_prune(
            component, clique, candidates, k, tau_floor, min_size
        )
        if pruned is None:
            stats.insearch_prunes += 1
            return
        if len(pruned) < len(candidates):
            stats.insearch_prunes += 1
            candidates = pruned

    remaining = candidates
    excluded = list(excluded)
    index = 0
    while index < len(remaining):
        u, pi_u = remaining[index]
        index += 1
        new_prob = clique_prob * pi_u
        clique.append(u)
        incident = component.incident(u)
        get = incident.get
        new_candidates = []
        for v, pi_v in remaining[index:]:
            p = get(v)
            if p is not None:
                pi = pi_v * p
                # Hot path: tau_floor comes from threshold_floor(tau), so
                # this is prob_at_least without the per-edge call.
                if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                    new_candidates.append((v, pi))
        if len(clique) + len(new_candidates) >= min_size:
            new_excluded = []
            for v, pi_v in excluded:
                p = get(v)
                if p is not None:
                    pi = pi_v * p
                    # Same precomputed-floor fast path as the C filter.
                    if new_prob * pi >= tau_floor:  # repro-lint: ignore[RPL001]
                        new_excluded.append((v, pi))
            yield from _muc(
                component, clique, new_prob, new_candidates, new_excluded,
                k, tau_floor, min_size, insearch, stats,
            )
            clique.pop()
            excluded.append((u, pi_u))
        else:
            # Line 19: the branch cannot reach min_size; the same bound
            # certifies u cannot extend any later clique of this subtree,
            # so u is dropped entirely (no X update needed).
            stats.branch_size_prunes += 1
            clique.pop()


def _muc_component(
    component: UncertainGraph,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """:func:`_muc` over one whole component, candidates in the
    library's node order (Algorithm 4, line 16)."""
    candidates = [
        (v, 1.0) for v in sorted(component.nodes(), key=node_sort_key)
    ]
    return _muc(
        component, [], 1.0, candidates, [], k, tau_floor, min_size,
        insearch, stats,
    )


def _insearch_topk_prune(
    component: UncertainGraph,
    clique: list[Node],
    candidates: list[tuple[Node, float]],
    k: int,
    tau_floor: float,
    min_size: int,
) -> list[tuple[Node, float]] | None:
    """(Top_k, tau)-core peel of the subgraph induced by R + C, in place.

    Specialised version of :func:`repro.core.topk_core.topk_core` for the
    in-search prune: works directly on the component's adjacency (no
    subgraph object is materialised) and returns the filtered candidate
    list, or ``None`` when the branch is dead — a clique member was peeled
    (Algorithm 3's ``V_I`` abort) or fewer than ``min_size`` nodes remain.
    """
    member_set = set(clique)
    member_set.update(v for v, _ in candidates)
    fixed = set(clique)

    incident = {u: component.incident(u) for u in member_set}
    probs: dict[Node, list[float]] = {}
    queue: list[Node] = []
    removed: set[Node] = set()
    # Worklist seeding order cannot change the peel's fixpoint, only the
    # visit order of an order-free set computation.
    for u in member_set:  # repro-lint: ignore[RPL009]
        inc = incident[u]
        plist = sorted(p for v, p in inc.items() if v in member_set)
        probs[u] = plist
        if not _pi_k_ok(plist, k, tau_floor):
            if u in fixed:
                return None
            queue.append(u)
            removed.add(u)

    head = 0
    while head < len(queue):
        u = queue[head]
        head += 1
        inc_u = incident[u]
        for v in inc_u:
            if v not in member_set or v in removed:
                continue
            plist = probs[v]
            idx = bisect.bisect_left(plist, inc_u[v])
            plist.pop(idx)
            if not _pi_k_ok(plist, k, tau_floor):
                if v in fixed:
                    return None
                queue.append(v)
                removed.add(v)

    if len(member_set) - len(removed) < min_size:
        return None
    if not removed:
        return candidates
    return [(v, pi) for v, pi in candidates if v not in removed]


def _pi_k_ok(sorted_probs: list[float], k: int, tau_floor: float) -> bool:
    """Whether the top-k product of an ascending probability list clears
    the threshold."""
    if len(sorted_probs) < k:
        return False
    product = 1.0
    for p in sorted_probs[len(sorted_probs) - k :]:
        product *= p
    # Hot path: raw compare against the precomputed threshold_floor(tau).
    return product >= tau_floor  # repro-lint: ignore[RPL001]
