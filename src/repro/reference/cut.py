"""Dict-based reference cut optimization (Section III-C).

The paper's cut optimization written directly over
:class:`~repro.uncertain.graph.UncertainGraph`: a working copy of the
graph whose low-probability cut edges are really deleted with
``remove_edge``, the dict (Top_k, tau)-core of
:mod:`repro.reference.peels` as the single-node (fringe) rule, and a
maximum-adjacency sweep whose cut keeps a frozenset-keyed lazy heap.
The production cut (:func:`repro.core.cut_pruning.compiled_cut`) runs
over the compiled graph without deleting anything; the test suite checks
that both emit the same pieces in the same order with the same counters.

Both follow one deterministic start rule: every sweep starts, and
restarts after a disconnected remainder, at the piece's first member in
the input graph's iteration order, and the pieces are emitted ordered by
their first member, each piece's nodes in graph order.
"""

from __future__ import annotations

import heapq
from typing import Callable

from repro.core.cut_pruning import CutOptimizeResult
from repro.deterministic.components import connected_components
from repro.reference.peels import topk_core
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import prob_below, validate_k, validate_tau

__all__ = ["cut_optimize"]


def cut_optimize(
    graph: UncertainGraph, k: int, tau: float
) -> CutOptimizeResult:
    """Remove low-probability cut sets and return the resulting components.

    Same contract as :func:`repro.core.cut_pruning.cut_optimize`; the
    input graph is not modified.
    """
    validate_k(k)
    tau = validate_tau(tau)
    rank = {u: i for i, u in enumerate(graph)}
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

        # Stage 1: single-node cuts (TopKCore rule).
        sub = work.induced_subgraph(component)
        core = set(topk_core(sub, k, tau).nodes)
        dropped = component - core
        if dropped:
            fringe_peeled += len(dropped)
            for v in sorted(dropped, key=rank.__getitem__):
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
        segments, n_cuts, crossing = _sweep_split(
            work, component, k, tau, rank.__getitem__
        )
        if n_cuts == 0:
            finished.append(component)
            continue
        cuts_found += n_cuts
        for u, v in crossing:
            work.remove_edge(u, v)
        edges_removed += len(crossing)
        for segment in segments:
            sub = work.induced_subgraph(segment)
            stack.extend(connected_components(sub))

    pieces = sorted(
        (sorted(nodes, key=rank.__getitem__) for nodes in finished),
        key=lambda piece: rank[piece[0]],
    )
    components = [work.induced_subgraph(piece) for piece in pieces]
    return CutOptimizeResult(
        components, cuts_found, edges_removed, fringe_peeled
    )


class _CutTopK:
    """Top-k product over a dynamic multiset of cut-edge probabilities.

    Insertions push onto a lazy max-heap; removals mark the edge key dead
    and are discarded when they surface.  A top-k query pops the k largest
    live entries (cleaning stale ones permanently), multiplies them, and
    pushes them back.
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
    work: UncertainGraph,
    component: set[Node],
    k: int,
    tau: float,
    rank: Callable[[Node], int],
) -> tuple[list[list[Node]], int, list[tuple[Node, Node]]]:
    """One maximum-adjacency sweep, recording *every* low boundary.

    Grows ``S`` from the component's first node by ``rank``; after each
    absorption tests whether the cut ``(S, component - S)`` is
    low-probability and flags the boundary if so.  Returns ``(segments,
    cuts_found, crossing)``: ``segments`` are the runs of nodes between
    consecutive flagged boundaries (in absorption order), ``crossing``
    the edges that cross a flagged boundary — the ones Lemma 5 lets the
    caller delete.  With zero cuts the component is final.
    """
    order: list[Node] = []
    position: dict[Node, int] = {}
    boundary_low: list[bool] = []  # boundary after order[i]

    connection: dict[Node, float] = {u: 0.0 for u in component}
    pending = iter(sorted(component, key=rank))
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
            # the sweep from the first unabsorbed node.
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
        return [], 0, []

    # cum[i] = number of flagged boundaries at positions < i; an edge with
    # endpoint positions a < b crosses one iff cum[b] - cum[a] > 0.
    cum = [0] * (len(order) + 1)
    for i in range(len(order)):
        cum[i + 1] = cum[i] + (
            1 if i < len(boundary_low) and boundary_low[i] else 0
        )
    crossing: list[tuple[Node, Node]] = []
    for u in order:
        pos_u = position[u]
        for v in work.incident(u):
            if v not in component:
                continue
            pos_v = position[v]
            if pos_v < pos_u:
                continue  # handle each edge once, from its earlier end
            if cum[pos_v] - cum[pos_u] > 0:
                crossing.append((u, v))

    segments: list[list[Node]] = []
    begin = 0
    for i in flagged:
        segments.append(order[begin : i + 1])
        begin = i + 1
    segments.append(order[begin:])
    return segments, len(flagged), crossing
