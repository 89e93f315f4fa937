"""Cut-based optimization (Section III-C).

A cut set of a connected uncertain graph is *low-probability* when the
product of its ``k`` highest edge probabilities is below ``tau`` (or the cut
has fewer than ``k`` edges at all) — Eq. (7) and Definition 10.  Lemma 5
shows no maximal (k, tau)-clique subgraph contains an edge of such a cut, so
all its edges can be dropped, splitting the graph into smaller components
that are enumerated independently.

Finding *all* low-probability cuts is intractable; following the paper we
run the Stoer-Wagner maximum-adjacency sweep: grow a set ``S`` by repeatedly
absorbing the node most tightly connected to it (by total incident
probability) and test the cut ``(S, rest)`` after every absorption.  When a
low-probability cut appears, its edges are deleted and both sides are
processed recursively.
"""

from __future__ import annotations


import heapq
import math
from dataclasses import dataclass
from typing import Sequence

from repro.core.topk_core import topk_core
from repro.deterministic.components import connected_components
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_below, validate_k, validate_tau

__all__ = [
    "cut_probability",
    "is_low_probability_cut",
    "cut_optimize",
    "CutOptimizeResult",
]


def cut_probability(cut_probs: Sequence[float], k: int) -> float:
    """``pi_k(E_chi)`` — Eq. (7): the product of the ``k`` largest
    probabilities in the cut, or 0.0 when the cut has fewer than ``k``
    edges."""
    validate_k(k)
    if len(cut_probs) < k:
        return 0.0
    if k == 0:
        return 1.0
    return math.prod(sorted(cut_probs, reverse=True)[:k])


def is_low_probability_cut(
    cut_probs: Sequence[float], k: int, tau: float
) -> bool:
    """Definition 10: whether the cut's top-k product is below ``tau``."""
    tau = validate_tau(tau)
    return prob_below(cut_probability(cut_probs, k), tau)


@dataclass
class CutOptimizeResult:
    """Outcome of :func:`cut_optimize`.

    ``components`` are the connected pieces left after all discovered
    low-probability cuts were removed, as induced uncertain subgraphs.
    ``fringe_nodes_peeled`` counts nodes removed through *single-node*
    low-probability cuts (the TopKCore special case of the paper's
    Remark); ``cuts_found`` counts the multi-node cuts found by sweeps.
    """

    components: list[UncertainGraph]
    cuts_found: int
    edges_removed: int
    fringe_nodes_peeled: int = 0


def cut_optimize(
    graph: UncertainGraph, k: int, tau: float
) -> CutOptimizeResult:
    """Remove low-probability cut sets and return the resulting components.

    The input graph is not modified.  Every edge deleted is justified by
    Lemma 5, so the union of the returned components contains every maximal
    (k, tau)-clique of ``graph``.

    Implementation note: the set of edges incident to one node is itself a
    cut, and testing it is exactly the (Top_k, tau)-core condition — the
    paper's Remark in Section III-C.  Each component is therefore first
    *fringe-peeled* with the TopKCore rule (near-linear) before the
    maximum-adjacency sweep hunts for genuine multi-node cuts; without
    this, a hub-heavy graph makes the sweep strip one thin fringe per
    O(m log m) pass.
    """
    validate_k(k)
    tau = validate_tau(tau)
    work = graph.copy()
    cuts_found = 0
    edges_removed = 0
    fringe_peeled = 0

    stack = [component for component in connected_components(work)]
    finished: list[set[Node]] = []
    while stack:
        component = stack.pop()
        if len(component) <= 1:
            finished.append(component)
            continue

        # Stage 1: single-node cuts (TopKCore rule) — cheap fixpoint.
        sub = work.induced_subgraph(component)
        core = set(topk_core(sub, k, tau).nodes)
        dropped = component - core
        if dropped:
            fringe_peeled += len(dropped)
            for v in dropped:
                for u in list(work.incident(v)):
                    if u in component:
                        work.remove_edge(v, u)
                        edges_removed += 1
                finished.append({v})
            for piece in connected_components(
                work.induced_subgraph(core)
            ):
                stack.append(piece)
            continue

        # Stage 2: multi-node cuts via the maximum-adjacency sweep.
        segments, n_cuts, n_removed = _sweep_split(work, component, k, tau)
        if n_cuts == 0:
            finished.append(component)
            continue
        cuts_found += n_cuts
        edges_removed += n_removed
        # Each segment may itself have fallen apart; re-split by
        # connectivity, then process each piece again.
        for segment in segments:
            sub = work.induced_subgraph(segment)
            stack.extend(connected_components(sub))

    components = [work.induced_subgraph(nodes) for nodes in finished]
    return CutOptimizeResult(
        components, cuts_found, edges_removed, fringe_peeled
    )


class _CutTopK:
    """Top-k product over a dynamic multiset of cut-edge probabilities.

    Insertions push onto a lazy max-heap; removals mark the edge key dead
    and are discarded when they surface.  A top-k query pops the k largest
    live entries (cleaning stale ones permanently), multiplies them, and
    pushes them back — O(k log m) amortised, versus the O(m) list
    shuffling a sorted array would need per update.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, frozenset[Node]]] = []
        self._dead: set[frozenset[Node]] = set()
        self._seq = 0
        self.live = 0  # number of edges currently in the cut

    def add(self, key: frozenset[Node], p: float) -> None:
        heapq.heappush(self._heap, (-p, self._seq, key))
        self._seq += 1
        self.live += 1

    def remove(self, key: frozenset[Node]) -> None:
        self._dead.add(key)
        self.live -= 1

    def is_low(self, k: int, tau: float) -> bool:
        """Definition 10 on the current cut."""
        if self.live < k:
            return True
        if k == 0:
            return prob_below(1.0, tau)
        popped: list[tuple[float, int, frozenset[Node]]] = []
        product = 1.0
        while len(popped) < k:
            entry = heapq.heappop(self._heap)
            if entry[2] in self._dead:
                self._dead.discard(entry[2])
                continue
            popped.append(entry)
            product *= -entry[0]
        for entry in popped:
            heapq.heappush(self._heap, entry)
        return prob_below(product, tau)


def _sweep_split(
    work: UncertainGraph, component: set[Node], k: int, tau: float
) -> tuple[list[list[Node]], int, int]:
    """One maximum-adjacency sweep, recording *every* low boundary.

    Grows ``S`` from an arbitrary start node; after each absorption tests
    whether the cut ``(S, component - S)`` is low-probability and, if so,
    flags the boundary.  Every flagged boundary is a genuine
    low-probability cut of the *current* graph, so Lemma 5 independently
    justifies deleting each one — which lets a single sweep find many cuts
    before any re-sweep, instead of restarting after the first hit.

    After the sweep, an edge is deleted exactly when it crosses a flagged
    boundary in the absorption order.  Returns
    ``(segments, cuts_found, edges_removed)`` where ``segments`` are the
    runs of nodes between consecutive flagged boundaries (in absorption
    order); with zero cuts the component is final.
    """
    order: list[Node] = []
    position: dict[Node, int] = {}
    boundary_low: list[bool] = []  # boundary after order[i]

    connection: dict[Node, float] = {u: 0.0 for u in component}
    pending = iter(component)
    start = next(pending)
    heap: list[tuple[float, int, Node]] = [(0.0, 0, start)]
    counter = 1
    cut = _CutTopK()

    while len(order) < len(component):
        while heap:
            neg_w, _, u = heapq.heappop(heap)
            if u not in position and -neg_w == connection[u]:
                break
        else:
            # Disconnected remainder: empty cut, trivially low; restart
            # the sweep from any unabsorbed node.
            boundary_low[-1] = True
            u = next(v for v in pending if v not in position)
            heap = [(0.0, counter, u)]
            counter += 1
            continue
        position[u] = len(order)
        order.append(u)
        for v, p in work.incident(u).items():
            if v not in component:
                continue
            key = frozenset((u, v))
            if v in position:
                cut.remove(key)  # edge now has both endpoints inside S
            else:
                cut.add(key, p)
                connection[v] += p
                heapq.heappush(heap, (-connection[v], counter, v))
                counter += 1
        if len(order) == len(component):
            break
        boundary_low.append(cut.is_low(k, tau))

    flagged = [i for i, low in enumerate(boundary_low) if low]
    if not flagged:
        return [], 0, 0

    # cum[i] = number of flagged boundaries at positions < i; an edge with
    # endpoint positions a < b crosses one iff cum[b] - cum[a] > 0.
    cum = [0] * (len(order) + 1)
    for i in range(len(order)):
        cum[i + 1] = cum[i] + (
            1 if i < len(boundary_low) and boundary_low[i] else 0
        )
    removed = 0
    for u in order:
        pos_u = position[u]
        for v in list(work.incident(u)):
            if v not in component:
                continue
            pos_v = position[v]
            if pos_v < pos_u:
                continue  # handle each edge once, from its earlier end
            if cum[pos_v] - cum[pos_u] > 0:
                # _sweep_split owns its scratch graph (caller passes the
                # working copy cut_optimize built).
                work.remove_edge(u, v)  # repro-lint: ignore[RPL004]
                removed += 1

    segments: list[list[Node]] = []
    begin = 0
    for i in flagged:
        segments.append(order[begin : i + 1])
        begin = i + 1
    segments.append(order[begin:])
    return segments, len(flagged), removed
