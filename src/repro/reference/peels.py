"""Dict-based reference peels: DPCore, DPCore+ and the (Top_k, tau)-core.

These are the paper's pseudo-code written directly over
:class:`~repro.uncertain.graph.UncertainGraph`'s dict-of-dicts adjacency
(Algorithms 2 and 3, and the Bonchi et al. [16] baseline).  The
production peels run over the compiled flat arrays of
:mod:`repro.core.prune_kernel`; the test suite checks that both reach
the same node sets on randomized graphs.

Both (k, tau)-core peels share :func:`_peel`, a verified peeling
skeleton: an incremental deletion update that claims a node dropped
below ``k`` is confirmed with a fresh, division-free DP before the node
is condemned, and a final sweep recomputes every survivor fresh until a
clean fixpoint.  The (k, tau)-core is the unique maximal fixpoint of the
peel condition, so the result does not depend on the worklist order.
"""

from __future__ import annotations

import bisect
import math
from collections import deque
from typing import AbstractSet, Callable

from repro.core.tau_degree import (
    distribution_prefix,
    remove_edge_from_survival,
    survival_dp,
    tau_degree_from_survival,
    update_distribution_prefix,
)
from repro.core.topk_core import TopKCoreResult
from repro.deterministic.core_decomposition import core_numbers
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_below, validate_k, validate_tau

__all__ = ["dp_core", "dp_core_plus", "topk_core"]

# State = (per-node DP payload, tau_degree).  ``fresh`` rebuilds it from a
# node's incident probabilities; ``update`` applies one edge deletion and
# may return None to request a rebuild.
_State = tuple[object, int]
_FreshFn = Callable[[Node, list[float]], _State]
_UpdateFn = Callable[[object, int, float], "_State | None"]


def _peel(
    graph: UncertainGraph,
    k: int,
    fresh: _FreshFn,
    update: _UpdateFn,
) -> set[Node]:
    """Shared verified-peeling skeleton over a scratch copy of ``graph``."""
    work = graph.copy()
    state: dict[Node, object] = {}
    tau_deg: dict[Node, int] = {}

    def rebuild(u: Node) -> None:
        state[u], tau_deg[u] = fresh(u, list(work.incident(u).values()))

    queue: deque[Node] = deque()
    queued: set[Node] = set()
    for u in work:
        rebuild(u)
        if tau_deg[u] < k:
            queue.append(u)
            queued.add(u)

    while True:
        while queue:
            u = queue.popleft()
            for v in list(work.incident(u)):
                p = work.remove_edge(u, v)
                if v in queued:
                    continue  # v is already condemned
                updated = update(state[v], tau_deg[v], p)
                if updated is not None and updated[1] >= k:
                    state[v], tau_deg[v] = updated
                    continue
                # The update requested a rebuild or claims v falls below
                # k: verify with a fresh, division-free computation.
                rebuild(v)
                if tau_deg[v] < k:
                    queue.append(v)
                    queued.add(v)
            work.remove_node(u)
            state.pop(u, None)

        # Final sweep: recompute every survivor fresh; incremental drift
        # may have left stale states that hide a node below k.
        dirty = False
        for u in work:
            rebuild(u)
            if tau_deg[u] < k:
                queue.append(u)
                queued.add(u)
                dirty = True
        if not dirty:
            return set(work.nodes())


def dp_core(graph: UncertainGraph, k: int, tau: float) -> set[Node]:
    """The (k, tau)-core via the DP peeling of Bonchi et al. [16].

    Per-node state is the ``Pr(d = i)`` prefix up to the current
    tau-degree, updated on edge deletion with Eq. (4).
    """
    validate_k(k)
    tau = validate_tau(tau)

    def fresh(u: Node, probs: list[float]) -> _State:
        return distribution_prefix(probs, tau)

    def update(payload: object, deg: int, p: float) -> _State | None:
        return update_distribution_prefix(payload, deg, p, tau)

    return _peel(graph, k, fresh, update)


def dp_core_plus(graph: UncertainGraph, k: int, tau: float) -> set[Node]:
    """The (k, tau)-core via Algorithm 2 (DPCore+).

    Nodes whose deterministic core number is below ``k`` are dropped up
    front, and each node keeps the survival row ``Pr(d_u >= i)``
    truncated at ``min(c_u, k)`` (Lemma 2), updated with Eq. (6).
    """
    validate_k(k)
    tau = validate_tau(tau)
    core = core_numbers(graph)
    # A list keeps the core-number dict's graph order.
    work = graph.induced_subgraph([u for u, c in core.items() if c >= k])

    def fresh(u: Node, probs: list[float]) -> _State:
        row = survival_dp(probs, min(core[u], k))
        return row, tau_degree_from_survival(row, tau)

    def update(payload: object, deg: int, p: float) -> _State | None:
        return remove_edge_from_survival(payload, p, deg, tau)

    return _peel(work, k, fresh, update)


def topk_core(
    graph: UncertainGraph,
    k: int,
    tau: float,
    fixed: AbstractSet[Node] = frozenset(),
) -> TopKCoreResult:
    """Algorithm 3: the (Top_k, tau)-core of ``graph``.

    Per-node incident probabilities are sorted once; each edge deletion
    removes one value by bisect and re-multiplies the top-k suffix.  If a
    node of ``fixed`` is peeled the result is ``(empty, False)``.
    """
    validate_k(k)
    tau = validate_tau(tau)

    # Ascending sorted incident probabilities per node; the top-k product
    # is the product of the last k entries.
    probs: dict[Node, list[float]] = {
        u: sorted(graph.incident(u).values()) for u in graph
    }

    def pi_k(u: Node) -> float:
        values = probs[u]
        if len(values) < k:
            return 0.0
        if k == 0:
            return 1.0
        return math.prod(values[-k:])

    alive: dict[Node, set[Node]] = {
        u: set(graph.incident(u)) for u in graph
    }
    queue: deque[Node] = deque()
    queued: set[Node] = set()
    for u in graph:
        if prob_below(pi_k(u), tau):
            if u in fixed:
                return TopKCoreResult(frozenset(), False)
            queue.append(u)
            queued.add(u)

    removed: set[Node] = set()
    while queue:
        u = queue.popleft()
        removed.add(u)
        for v in alive[u]:
            alive[v].discard(u)
            if v in queued:
                continue
            values = probs[v]
            values.pop(bisect.bisect_left(values, graph.probability(u, v)))
            if prob_below(pi_k(v), tau):
                if v in fixed:
                    return TopKCoreResult(frozenset(), False)
                queue.append(v)
                queued.add(v)
        alive[u] = set()

    return TopKCoreResult(
        frozenset(u for u in graph if u not in removed), True
    )
