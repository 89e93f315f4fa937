"""Degeneracy decomposition of components too large for one view.

A compiled view (:class:`~repro.core.kernel.CompiledComponent`) holds
dense probability rows and ``n``-bit masks, so it only pays off up to
:data:`~repro.core.kernel.KERNEL_COMPONENT_LIMIT` nodes.  A larger
component is split the way Fan et al.'s network decomposition splits a
maximum-clique search (and the degeneracy Bron–Kerbosch of
:mod:`repro.deterministic.cliques` splits an enumeration): order its
nodes by degeneracy, and make each node ``v`` one sub-problem whose
cliques contain ``v`` and otherwise only nodes after it.

Only *strong* edges — ``p >= tau`` under the tolerant compare — can join
two nodes of a (k, tau)-clique, because a clique's probability never
exceeds any one of its edge probabilities.  So for each ``v``:

* the candidates ``C(v)`` are ``v``'s later strong neighbours; ``v`` is
  skipped when ``1 + |C(v)| < min_size``.  A degeneracy order keeps
  ``|C(v)|`` at most the degeneracy of the strong graph;
* the witnesses ``W(v)`` are ``v``'s earlier strong neighbours that are
  strongly adjacent to at least ``min_size - 1`` members of ``C(v)``.
  A node that can extend a clique ``K`` of this sub-problem is strongly
  adjacent to all of ``K`` (``|K| >= min_size``), so if it comes before
  ``v`` it is in ``W(v)``, and if it comes after ``v`` it is in ``C(v)``.
  With ``min_size <= 1`` every earlier strong neighbour qualifies.

Every clique has exactly one earliest node, so every maximal clique is
emitted by exactly one sub-problem, and it is emitted iff the reference
emits it: the kernel's leaf scan checks the witnesses with the same
canonical float sequence as the candidates (their ids sit after the
candidates' in the view, see :meth:`DecompositionPlan.view`).

The :class:`DecompositionPlan` is computed once per component and
(k, tau) and cached: the component's rows plus index lists.  Sub-problem
views are derived from it on demand — enumeration builds each one,
searches it and drops it before the next, and yields the sub-problem's
cliques as soon as they are found; caching every sub-view costs more
memory than the search saves.  The maximum search visits sub-problems in
reverse degeneracy order, skips those the incumbent dominates
(``1 + |C(v)| <= best``), and memoizes the views it does build.
"""

from __future__ import annotations

import heapq
from array import array
from typing import TYPE_CHECKING, Iterator, NamedTuple, TypeAlias

from repro.core.kernel import (
    CompiledComponent,
    enumerate_pivot_range,
    maximum_compiled,
    project_component,
)
from repro.core.prune_kernel import CompiledGraph
from repro.uncertain.graph import Node
from repro.utils.validation import prob_below

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (types only)
    from repro.core.enumeration import EnumerationStats
    from repro.core.maximum import MaximumSearchStats

__all__ = [
    "Subproblem",
    "DecompositionPlan",
    "DecomposedMaximum",
    "MaximumEntry",
    "plan_decomposition",
    "enumerate_decomposed",
    "maximum_decomposed",
]


class Subproblem(NamedTuple):
    """One vertex ``v`` of a decomposed component.

    ``cands`` is ``{v} + C(v)`` as ascending component ids, ``root`` the
    position of ``v`` in it (its view id), and ``witnesses`` the
    ascending component ids of ``W(v)``.
    """

    root: int
    cands: tuple[int, ...]
    witnesses: tuple[int, ...]


class DecompositionPlan:
    """A component's adjacency plus its sub-problems in degeneracy
    order.  Pure data, rebuilt only when the component changes.

    ``rows[u]`` maps each neighbor of component id ``u`` to the edge
    probability.  A sub-problem view probes these dicts with its own
    ids rather than scanning rows: a hub is a candidate of many
    sub-problems, each far smaller than its row (on wikitalk_like at
    (4, 0.2), scanning the rows made the views 8x slower and the whole
    enumeration 3x slower).
    """

    __slots__ = ("nodes", "rows", "subproblems")

    def __init__(
        self,
        nodes: list[Node],
        rows: list[dict[int, float]],
        subproblems: list[Subproblem],
    ) -> None:
        self.nodes = nodes
        self.rows = rows
        self.subproblems = subproblems

    def view(
        self, sub: Subproblem, witnesses: bool = True
    ) -> CompiledComponent:
        """The compiled view of ``sub``, with or without its witnesses.

        The candidates get view ids ``0 .. len(cands)-1`` in component
        id order — so a clique's canonical chain is the reference's float
        sequence — and the witnesses the ids after them.  Only candidates
        get rows: each is the component row restricted to the view, in
        descending probability order (ties by view id).
        """
        ids = [*sub.cands, *sub.witnesses] if witnesses else list(sub.cands)
        rows = self.rows
        sub_offsets = array("l", [0])
        sub_ids = array("l")
        sub_probs = array("d")
        for g in sub.cands:
            probe = rows[g].get
            entries: list[tuple[float, int]] = []
            for li, h in enumerate(ids):
                p = probe(h)
                if p is not None:
                    entries.append((-p, li))
            entries.sort()
            for neg, li in entries:
                sub_ids.append(li)
                sub_probs.append(-neg)
            sub_offsets.append(len(sub_ids))
        return CompiledComponent(
            [self.nodes[g] for g in sub.cands], sub_offsets, sub_ids,
            sub_probs, width=len(ids),
        )


def plan_decomposition(
    compiled: CompiledGraph,
    members: list[Node],
    min_size: int,
    tau: float,
) -> DecompositionPlan:
    """Split one component into degeneracy-ordered sub-problems.

    ``compiled`` and ``members`` are as for
    :func:`~repro.core.kernel.project_component`.  The degeneracy order
    peels a node of least remaining strong degree at each step, ties to
    the smallest component id (``sort_rank`` order), so the plan never
    depends on ``PYTHONHASHSEED``.
    """
    nodes, row_offsets, nbr_ids, nbr_probs = project_component(
        compiled, members
    )
    n = len(nodes)
    # One int object per id, shared by every row and sub-problem.
    ids = list(range(n))
    rows = [
        dict(zip(
            [ids[w] for w in nbr_ids[row_offsets[u]:row_offsets[u + 1]]],
            nbr_probs[row_offsets[u]:row_offsets[u + 1]],
        ))
        for u in range(n)
    ]
    del row_offsets, nbr_ids, nbr_probs
    # Rows are in descending probability order: the strong edges are a
    # prefix of each row.
    strong: list[list[int]] = []
    for row in rows:
        prefix: list[int] = []
        for w, p in row.items():
            if prob_below(p, tau):
                break
            prefix.append(w)
        strong.append(prefix)

    degree = [len(row) for row in strong]
    heap = [(d, u) for u, d in enumerate(degree)]
    heapq.heapify(heap)
    position = [-1] * n
    order: list[int] = []
    while heap:
        d, u = heapq.heappop(heap)
        if position[u] >= 0 or d != degree[u]:
            continue  # stale entry
        position[u] = len(order)
        order.append(u)
        for w in strong[u]:
            if position[w] < 0:
                degree[w] -= 1
                heapq.heappush(heap, (degree[w], w))

    masks: list[int] = []
    for row in strong:
        mask = 0
        for w in row:
            mask |= 1 << w
        masks.append(mask)
    need = min_size - 1
    subproblems: list[Subproblem] = []
    for v in order:
        at = position[v]
        later = [w for w in strong[v] if position[w] > at]
        if 1 + len(later) < min_size:
            continue
        cands = sorted([v, *later])
        cand_mask = 0
        for w in later:
            cand_mask |= 1 << w
        witnesses = sorted(
            x for x in strong[v]
            if position[x] < at
            and (masks[x] & cand_mask).bit_count() >= need
        )
        subproblems.append(
            Subproblem(cands.index(v), tuple(cands), tuple(witnesses))
        )
    return DecompositionPlan(nodes, rows, subproblems)


def enumerate_decomposed(
    plan: DecompositionPlan,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """All maximal (k, tau)-cliques of a decomposed component.

    Each sub-problem runs the pivot kernel on the root branch ``v`` of
    its view, then yields its cliques before the next view is built, so
    a consumer that stops early never pays for the rest.
    """
    stats.decomposed_components += 1
    for sub in plan.subproblems:
        view = plan.view(sub)
        stats.subproblems += 1
        yield from enumerate_pivot_range(
            view, k, tau_floor, min_size, insearch, insearch_min_candidates,
            [(i, 1.0) for i in range(view.n)], [sub.root], 0, 1, stats,
        )


class DecomposedMaximum:
    """The maximum search's memo entry for a decomposed component: the
    plan, the component's greedy colors by component id, and the
    sub-problem views (without witnesses) built so far with their color
    lists."""

    __slots__ = ("plan", "colors", "views")

    def __init__(self, plan: DecompositionPlan, colors: list[int]) -> None:
        self.plan = plan
        self.colors = colors
        self.views: dict[int, tuple[CompiledComponent, list[int]]] = {}


#: What the maximum search memoizes per component: a whole-component view
#: with its color list, or a decomposed component.
MaximumEntry: TypeAlias = (
    "tuple[CompiledComponent, list[int]] | DecomposedMaximum"
)


def maximum_decomposed(
    entry: DecomposedMaximum,
    k: int,
    tau_floor: float,
    min_size: int,
    best_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """MaxUC+ over a decomposed component under the incumbent
    ``best_size``; returns the improvement (or ``None``) and the new
    incumbent size.

    Sub-problems run in reverse degeneracy order, each through
    :func:`~repro.core.kernel.maximum_compiled` on ``{v} + C(v)``.  A
    sub-problem with ``1 + |C(v)| <= best_size`` cannot hold a larger
    clique and is skipped before its view is built.
    """
    stats.decomposed_components += 1
    plan = entry.plan
    best: list[Node] | None = None
    for index in range(len(plan.subproblems) - 1, -1, -1):
        sub = plan.subproblems[index]
        if len(sub.cands) <= best_size:
            continue
        cached = entry.views.get(index)
        if cached is None:
            colors = entry.colors
            cached = (
                plan.view(sub, witnesses=False),
                [colors[g] for g in sub.cands],
            )
            entry.views[index] = cached
        stats.subproblems += 1
        view, color = cached
        improved, best_size = maximum_compiled(
            view, color, k, tau_floor, min_size, best_size,
            use_advanced_one, use_advanced_two, insearch, stats,
        )
        if improved is not None:
            best = improved
    return best, best_size
