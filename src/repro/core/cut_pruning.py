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
low-probability cut appears, its edges are dropped and both sides are
processed recursively.

The cut runs over the session's :class:`~repro.core.prune_kernel.
CompiledGraph`.  The nodes to split are projected **once** into a compact
local CSR (:class:`_LocalGraph`) whose rows keep the source graph's
insertion order, and every step — the single-node (TopKCore) fringe
peel, the sweep, the connectivity re-split — runs over local int ids
and a *piece-label* array.  No edge is ever deleted: every dropped edge
crosses two pieces, so a piece's induced subgraph is its restriction of
the source graph, and an edge is live for a piece exactly when both
endpoints carry the piece's label.  ``edges_removed`` is counted, not
performed.

Determinism: each sweep starts (and restarts after a disconnected
remainder) at the piece's first member in graph iteration order, and
the pieces are emitted ordered by their first member, each member list
in graph order — so the split never depends on ``set`` iteration or
``PYTHONHASHSEED``.  :mod:`repro.reference.cut` is the dict-based oracle
of the same rules.
"""

from __future__ import annotations


import math
import struct
from bisect import bisect_left
from functools import lru_cache
from heapq import heappop, heappush
from dataclasses import dataclass
from itertools import count
from typing import Iterable, Mapping, Sequence

from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    project_rows,
)
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import (
    prob_at_least,
    prob_below,
    validate_k,
    validate_tau,
)

__all__ = [
    "cut_probability",
    "is_low_probability_cut",
    "cut_optimize",
    "CutOptimizeResult",
    "CutSplit",
    "compiled_cut",
    "component_pieces",
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


@dataclass(frozen=True)
class CutSplit:
    """Outcome of :func:`compiled_cut`.

    ``pieces`` are the member tuples of the final pieces, ordered by their
    first member in the order of the ``members`` argument, each tuple in
    that order too.  The counters mean what they mean on
    :class:`CutOptimizeResult`.
    """

    pieces: tuple[tuple[Node, ...], ...]
    cuts_found: int
    edges_removed: int
    fringe_nodes_peeled: int


def cut_optimize(
    graph: UncertainGraph, k: int, tau: float
) -> CutOptimizeResult:
    """Remove low-probability cut sets and return the resulting components.

    The input graph is not modified.  Every edge dropped is justified by
    Lemma 5, so the union of the returned components contains every maximal
    (k, tau)-clique of ``graph``.  One-shot form of :func:`compiled_cut`:
    the graph is lowered once and cut over all its nodes.

    Implementation note: the set of edges incident to one node is itself a
    cut, and testing it is exactly the (Top_k, tau)-core condition — the
    paper's Remark in Section III-C.  Each piece is therefore first
    *fringe-peeled* with the TopKCore rule (near-linear) before the
    maximum-adjacency sweep hunts for genuine multi-node cuts; without
    this, a hub-heavy graph makes the sweep strip one thin fringe per
    O(m log m) pass.
    """
    split = compiled_cut(compile_graph(graph), graph.nodes(), k, tau)
    return CutOptimizeResult(
        [graph.induced_subgraph(piece) for piece in split.pieces],
        split.cuts_found,
        split.edges_removed,
        split.fringe_nodes_peeled,
    )


def compiled_cut(
    cpg: CompiledGraph, members: Iterable[Node], k: int, tau: float
) -> CutSplit:
    """The cut optimization over ``members`` of a compiled graph.

    ``members`` should be in graph iteration order (the deterministic
    start rule and the emission order follow it).  The induced subgraph
    on ``members`` is split; nothing outside it is read.
    """
    validate_k(k)
    tau = validate_tau(tau)
    local = _LocalGraph(cpg, members)
    cuts_found = 0
    edges_removed = 0
    fringe_peeled = 0
    stack = local.split(list(range(local.n)))
    finished: list[list[int]] = []
    while stack:
        piece = stack.pop()
        if len(piece) <= 1:
            finished.append(piece)
            continue

        # Stage 1: single-node cuts (TopKCore rule) — cheap fixpoint.
        dropped = local.fringe_peel(piece, k, tau)
        if dropped:
            fringe_peeled += len(dropped)
            edges_removed += local.detach(dropped)
            finished.extend([v] for v in dropped)
            gone = set(dropped)
            stack.extend(local.split([u for u in piece if u not in gone]))
            continue

        # Stage 2: multi-node cuts via the maximum-adjacency sweep.
        segments, n_cuts, n_removed = local.sweep_split(piece, k, tau)
        if n_cuts == 0:
            finished.append(piece)
            continue
        cuts_found += n_cuts
        edges_removed += n_removed
        # Each segment may itself have fallen apart; re-split by
        # connectivity, then process each piece again.
        for segment in segments:
            local.relabel(segment)
        for segment in segments:
            stack.extend(local.split(sorted(segment)))

    finished.sort()
    nodes = local.members
    return CutSplit(
        tuple(tuple(nodes[i] for i in piece) for piece in finished),
        cuts_found,
        edges_removed,
        fringe_peeled,
    )


def component_pieces(
    cpg: CompiledGraph, members: Iterable[Node]
) -> tuple[tuple[Node, ...], ...]:
    """Connected components of the subgraph induced by ``members``.

    Same order contract as :attr:`CutSplit.pieces`: components ordered by
    their first member, each member tuple in ``members`` order.
    """
    local = _LocalGraph(cpg, members)
    nodes = local.members
    return tuple(
        tuple(nodes[i] for i in piece)
        for piece in sorted(local.split(list(range(local.n))))
    )


class _LocalGraph:
    """A node subset of a compiled graph as a compact local CSR.

    Local id ``i`` is ``members[i]``; each row lists the neighbors inside
    the subset in the source graph's insertion order, so sums and
    products over a row see the floats in the order the dict adjacency
    would yield them.  ``label[i]`` names the piece node ``i`` currently
    belongs to: an edge is live for a piece exactly when both endpoints
    carry its label, which is how the cut drops edges without deleting
    any.
    """

    __slots__ = ("members", "n", "offsets", "nbrs", "probs", "label",
                 "_fresh")

    def __init__(self, cpg: CompiledGraph, members: Iterable[Node]) -> None:
        self.members = tuple(members)
        self.n = len(self.members)
        self.offsets, self.nbrs, self.probs = project_rows(cpg, self.members)
        self.label = [0] * self.n
        self._fresh = count(1)

    def relabel(self, nodes: Iterable[int]) -> int:
        """Give ``nodes`` a fresh piece label; return it."""
        new = next(self._fresh)
        label = self.label
        for u in nodes:
            label[u] = new
        return new

    def split(self, nodes: list[int]) -> list[list[int]]:
        """Relabel the connected components of one piece's ``nodes``.

        ``nodes`` all carry the same label and are in ascending id order;
        each component gets a fresh label and is returned ascending.
        """
        label = self.label
        offsets = self.offsets
        nbrs = self.nbrs
        pieces: list[list[int]] = []
        if not nodes:
            return pieces
        old = label[nodes[0]]
        for start in nodes:
            if label[start] != old:
                continue  # reached by an earlier component's BFS
            new = next(self._fresh)
            label[start] = new
            piece = [start]
            for u in piece:
                for j in range(offsets[u], offsets[u + 1]):
                    v = nbrs[j]
                    if label[v] == old:
                        label[v] = new
                        piece.append(v)
            piece.sort()
            pieces.append(piece)
        return pieces

    def detach(self, dropped: list[int]) -> int:
        """Move each fringe node to its own piece; count the edges cut.

        An edge is counted once, from its first detached endpoint: the
        second endpoint no longer shares the piece label by then.
        """
        label = self.label
        offsets = self.offsets
        nbrs = self.nbrs
        removed = 0
        for v in dropped:
            pid = label[v]
            for j in range(offsets[v], offsets[v + 1]):
                if label[nbrs[j]] == pid:
                    removed += 1
            self.relabel((v,))
        return removed

    def fringe_peel(self, piece: list[int], k: int, tau: float) -> list[int]:
        """The piece's nodes outside its (Top_k, tau)-core, ascending.

        Each check multiplies the ``k`` highest live probabilities in
        ascending order — the float sequence of
        :func:`repro.core.prune_kernel.topk_peel` — so the fixpoint is the
        one the compiled and reference peels reach.
        """
        if k == 0:
            return []  # pi_0 is the empty product 1.0: nothing is low
        label = self.label
        offsets = self.offsets
        nbrs = self.nbrs
        probs = self.probs
        pid = label[piece[0]]

        def below(values: list[float]) -> bool:
            nv = len(values)
            if nv < k:
                return True
            product = 1.0
            for p in values[nv - k :]:
                product *= p
            return prob_below(product, tau)

        vals: dict[int, list[float]] = {}
        condemned: set[int] = set()
        stack: list[int] = []
        for u in piece:
            row = sorted(
                probs[j]
                for j in range(offsets[u], offsets[u + 1])
                if label[nbrs[j]] == pid
            )
            vals[u] = row
            if below(row):
                condemned.add(u)
                stack.append(u)
        while stack:
            u = stack.pop()
            for j in range(offsets[u], offsets[u + 1]):
                v = nbrs[j]
                if label[v] != pid or v in condemned:
                    continue
                vv = vals[v]
                idx = bisect_left(vv, probs[j])
                vv.pop(idx)
                # Only the top-k window matters; equal floats are
                # interchangeable, so the bisect removal is exact.
                if idx <= len(vv) - k:
                    continue
                if below(vv):
                    condemned.add(v)
                    stack.append(v)
        return sorted(condemned)

    def sweep_split(
        self, piece: list[int], k: int, tau: float
    ) -> tuple[list[list[int]], int, int]:
        """One maximum-adjacency sweep over ``piece``, recording *every*
        low boundary.

        Grows ``S`` from the piece's first member (ascending id = graph
        order); after each absorption tests whether the cut ``(S, piece -
        S)`` is low-probability and, if so, flags the boundary.  Every
        flagged boundary is a genuine low-probability cut of the current
        piece, so Lemma 5 independently justifies dropping each one —
        which lets a single sweep find many cuts before any re-sweep,
        instead of restarting after the first hit.

        An edge is dropped exactly when it crosses a flagged boundary in
        the absorption order.  Returns ``(segments, cuts_found,
        edges_removed)`` where ``segments`` are the runs of nodes between
        consecutive flagged boundaries (in absorption order); with zero
        cuts the piece is final.  Labels are not touched.
        """
        label = self.label
        offsets = self.offsets
        nbrs = self.nbrs
        probs = self.probs
        pid = label[piece[0]]
        size = len(piece)
        strong_floor = _strong_floor(k, tau)
        order: list[int] = []
        boundary_low: list[bool] = []  # boundary after order[i]

        # Connection weight to S per piece node; _INSIDE once absorbed,
        # which also makes every queued heap entry of the node stale.
        weight = dict.fromkeys(piece, 0.0)
        pending = iter(piece)
        heap: list[tuple[float, int, int]] = [(0.0, 0, next(pending))]
        counter = 1
        # The current cut (S, piece - S): a lazy max-heap of (-p, outside
        # endpoint) — an entry dies when its outside endpoint joins S —
        # plus the live edge count and the live "strong" count (edges
        # with p >= strong_floor, see _strong_floor).  New edges wait in
        # ``added`` until the heap is next consulted, so edges that die
        # in between are never pushed.
        cut: list[tuple[float, int]] = []
        added: list[tuple[float, int]] = []
        live = 0
        strong = 0

        while len(order) < size:
            while heap:
                neg_w, _, u = heappop(heap)
                if -neg_w == weight[u]:
                    break
            else:
                # Disconnected remainder: empty cut, trivially low; restart
                # the sweep from the first unabsorbed member.
                boundary_low[-1] = True
                u = next(v for v in pending if weight[v] != _INSIDE)
                heap = [(0.0, counter, u)]
                counter += 1
                continue
            weight[u] = _INSIDE
            order.append(u)
            for j in range(offsets[u], offsets[u + 1]):
                v = nbrs[j]
                if label[v] != pid:
                    continue
                p = probs[j]
                w = weight[v]
                if w == _INSIDE:
                    # The edge now has both endpoints inside S.
                    live -= 1
                    if p >= strong_floor:
                        strong -= 1
                else:
                    added.append((-p, v))
                    live += 1
                    if p >= strong_floor:
                        strong += 1
                    w += p
                    weight[v] = w
                    heappush(heap, (-w, counter, v))
                    counter += 1
            if len(order) == size:
                break
            # Definition 10.  With k strong live edges the top-k product
            # certainly clears tau (this also settles k == 0), so the
            # heap is only consulted for boundaries near the threshold.
            if live < k:
                boundary_low.append(True)
            elif strong >= k:
                boundary_low.append(False)
            else:
                for entry in added:
                    if weight[entry[1]] != _INSIDE:
                        heappush(cut, entry)
                added.clear()
                boundary_low.append(_top_k_below(cut, weight, k, tau))

        flagged = [i for i, low in enumerate(boundary_low) if low]
        if not flagged:
            return [], 0, 0

        segments: list[list[int]] = []
        begin = 0
        for i in flagged:
            segments.append(order[begin : i + 1])
            begin = i + 1
        segments.append(order[begin:])
        # An edge is dropped iff its endpoints land in different
        # segments; each such edge is seen once from either end.
        segment_of = {}
        for s, segment in enumerate(segments):
            for u in segment:
                segment_of[u] = s
        crossings = 0
        for u in piece:
            s = segment_of[u]
            for j in range(offsets[u], offsets[u + 1]):
                v = nbrs[j]
                if label[v] == pid and segment_of[v] != s:
                    crossings += 1
        return segments, len(flagged), crossings // 2


#: Connection weight of a node already absorbed into the sweep's ``S``
#: (real weights are sums of probabilities, never negative).
_INSIDE = -1.0


def _top_k_below(
    cut: list[tuple[float, int]],
    weight: Mapping[int, float],
    k: int,
    tau: float,
) -> bool:
    """Whether the top-k product of the live cut edges is below ``tau``.

    ``cut`` is a heap of ``(-p, outside endpoint)`` entries; an entry is
    dead once its endpoint's ``weight`` is :data:`_INSIDE` (absorbed into
    S) and is discarded for good when it surfaces.  Pops the k largest
    live entries, multiplies them in descending order — the reference
    float sequence — and pushes them back: O(k log m) amortised.  Fewer
    than k live edges is low.
    """
    popped: list[tuple[float, int]] = []
    product = 1.0
    while len(popped) < k and cut:
        entry = heappop(cut)
        if weight[entry[1]] == _INSIDE:
            continue
        popped.append(entry)
        product *= -entry[0]
    for entry in popped:
        heappush(cut, entry)
    return len(popped) < k or prob_below(product, tau)


@lru_cache(maxsize=64)
def _strong_floor(k: int, tau: float) -> float:
    """Smallest float ``s`` in ``[0, 1]`` whose k-fold product, multiplied
    in sequence from 1.0, is at least ``tau`` (tolerantly, as
    :func:`~repro.utils.validation.prob_at_least` decides).

    Rounded multiplication is monotone in each (non-negative) factor, so
    any k probabilities ``>= s`` multiply, in any order, to a product that
    clears ``tau``: a cut with k live edges ``>= s`` is not low.  Binary
    search over the bit patterns of non-negative doubles, which order like
    the values; 1.0 always clears, so ``s <= 1``.
    """

    def value(bits: int) -> float:
        return float(struct.unpack("<d", struct.pack("<q", bits))[0])

    def clears(bits: int) -> bool:
        s = value(bits)
        product = 1.0
        for _ in range(k):
            product *= s
        return prob_at_least(product, tau)

    lo = 0
    hi = 0x3FF0000000000000  # the bit pattern of 1.0
    while lo < hi:
        mid = (lo + hi) // 2
        if clears(mid):
            hi = mid
        else:
            lo = mid + 1
    return value(lo)
