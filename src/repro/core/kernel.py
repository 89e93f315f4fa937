"""Compiled search kernel for the MUCE/MaxUC+ hot paths.

The reference searches (the dict MUC recursion and the dict MaxUC+ of
:mod:`repro.reference`) are written over :class:`UncertainGraph`'s
dict-of-dicts adjacency: every candidate filter is a per-edge hash
lookup on arbitrary node objects, every branch rebuilds ``(node, pi)``
tuple lists for both the candidate set *and* the excluded set, and the
in-search (Top_k, tau)-core peel rebuilds sorted probability lists from
scratch at every recursion level.  This module removes that overhead
with a per-component *compiled view*:

1. nodes are mapped to dense ints ``0 .. n-1`` in the library's
   deterministic order, so the compiled id order doubles as the search
   order;
2. adjacency is materialised three ways: CSR-style flat neighbor and
   probability arrays in per-row descending-probability order (the form
   the in-search core peel consumes without any re-sorting), Python-int
   bitmask rows (one ``n``-bit integer per node, so neighbor
   intersections are a single ``&``), and dense probability rows (plain
   float lists indexed by node id, ``0.0`` marking non-edges).

The views are derived from the whole-graph
:class:`~repro.core.prune_kernel.CompiledGraph` by
:func:`derive_component_view`, or, for one sub-problem of a component
too large for a single view, by
:meth:`repro.core.decompose.DecompositionPlan.view`.

The enumeration core (:func:`enumerate_pivot_range`, absorbing Tomita
pivoting over the MUC recursion of Algorithm 4) keeps the candidate set
``C`` as a list of ``(id, pi)`` pairs and never materialises the
excluded set ``X``.  The dict recursion filters an explicit ``X`` list
on every branch only to test ``X == empty`` at leaves.  The kernel
instead maintains ``common``, the intersection of ``adj[r]`` over the
current clique (one ``&`` per recursion step), and a ``banned`` mask of
branch-size-pruned candidates (which the dict recursion deliberately
keeps out of ``X``).  At a leaf (``C`` empty) a node ``x`` would sit in
the dict recursion's ``X`` iff ``x in common & ~banned`` and
``CPr(R) * pi_x(R) >= tau_floor``: every node of the component either
reached this leaf's ``C`` (impossible — ``C`` is empty), died on an
adjacency filter (not in ``common``), was branch-size pruned above
(``banned``), or was passed over/threshold-filtered — and for those the
incremental compares along the path are all implied by the final one,
because IEEE multiplication by factors ``<= 1`` is monotone
non-increasing.  Recomputing ``pi_x`` in canonical clique order makes
the emission decision the reference's, bit for bit, while the
per-branch ``X`` filtering work disappears entirely.  The same scan
checks a sub-problem view's *witnesses* — ids past ``n`` that appear
only in the candidates' masks and rows — so nodes outside the
sub-problem can still veto a clique's maximality.

:func:`maximum_compiled` is the MaxUC+ color-bound branch-and-bound over
the same view.  Results are decompiled back to the original node
labels; ``tests/core/test_kernel_parity.py`` checks both against
:mod:`repro.reference`.
"""

from __future__ import annotations

from array import array
from typing import TYPE_CHECKING, Iterator

from repro.core.prune_kernel import CompiledGraph, node_sort_key
from repro.core.topk_core import topk_peel_masks
from repro.uncertain.graph import Node

if TYPE_CHECKING:  # pragma: no cover - import cycle guards (types only)
    from repro.core.enumeration import EnumerationStats
    from repro.core.maximum import MaximumSearchStats

__all__ = [
    "CompiledComponent",
    "derive_component_view",
    "project_component",
    "node_sort_key",
    "iter_bits",
    "enum_root_prep",
    "pivot_root_plan",
    "enumerate_pivot_range",
    "maximum_compiled",
    "KERNEL_COMPONENT_LIMIT",
]


#: Set-bit iteration works through masks 64 bits at a time: each chunk is a
#: machine-word int, so the extraction loop never does big-int arithmetic.
_CHUNK_MASK = 0xFFFFFFFFFFFFFFFF

#: Largest component searched as one compiled view.  Every view holds
#: dense probability rows (n floats per node), and above this size every
#: bitmask op pays O(n / 64) words even deep in the tree where the
#: candidate sets are tiny — so the search stages split a larger
#: component in degeneracy order into one small view per vertex
#: (:mod:`repro.core.decompose`, counted in the stats'
#: ``decomposed_components``).
KERNEL_COMPONENT_LIMIT = 1024


#: Conservative relative safety margin on the pivot absorption test.
#: Skipping the branches of an absorbed set ``T`` is sound only when the
#: canonical witness chain of every sub-clique would clear the floor;
#: the greedy absorption computes ``CPr(R + T + {u})`` in its own
#: (incremental) multiplication order, so the skip threshold is raised
#: by more than the worst-case reassociation rounding error (bounded by
#: ``#factors * 2^-53 < 1e-10`` within a view of <= 1024 nodes — a whole
#: component up to :data:`KERNEL_COMPONENT_LIMIT`, or one sub-problem of
#: a decomposed component, whose candidates are one vertex plus its later
#: neighbours) — a skip can then never lose a clique the reference would
#: emit.
_PIVOT_SAFETY = 1.0 + 1e-9


class CompiledComponent:
    """One component compiled to dense-int, bitmask and CSR form.

    ``nodes[i]`` is the original label of id ``i``; ids follow the
    library's deterministic node order, so ascending-id iteration
    reproduces the reference candidate order exactly.  The CSR rows
    (``row_offsets`` / ``nbr_ids`` / ``nbr_probs``) are sorted by
    descending probability so a top-k scan reads a prefix; they are the
    canonical state the constructor takes.  ``bits[i]`` caches ``1 << i``
    (big-int shifts are not free), and ``rows`` holds the dense
    probability rows.

    ``width`` is the id space of the masks and dense rows.  It equals
    ``n`` for a component view; a sub-problem view
    (:meth:`repro.core.decompose.DecompositionPlan.view`) has ids
    ``n .. width-1`` for its *witnesses* — nodes with no row, label or
    ``bits`` entry that appear only in the candidates' masks and rows, so
    the leaf scan of :func:`enumerate_pivot_range` sees them.
    ``full_mask`` spans all ``width`` ids.

    Compiled components are **picklable** — the process-parallel layer
    (:mod:`repro.core.parallel`) ships them to worker processes instead of
    graph objects.  Only the canonical state crosses the pipe: the node
    labels, the CSR arrays (compact ``array`` buffers) and the width.
    Every derived form — bitmask rows, dense probability rows, cached bit
    singletons — is rebuilt on unpickle, which is faster than serialising
    an O(n^2) float matrix and keeps the payload near the
    information-theoretic minimum.
    """

    __slots__ = (
        "nodes",
        "index",
        "n",
        "width",
        "adj",
        "rows",
        "bits",
        "row_offsets",
        "nbr_ids",
        "nbr_probs",
        "full_mask",
    )

    def __init__(
        self,
        order: list[Node],
        row_offsets: array[int],
        nbr_ids: array[int],
        nbr_probs: array[float],
        width: int | None = None,
    ) -> None:
        n = len(order)
        width = n if width is None else width
        shifts = [1 << i for i in range(width)]
        adj: list[int] = []
        rows: list[list[float]] = []
        for u in range(n):
            mask = 0
            flat = [0.0] * width
            for i in range(row_offsets[u], row_offsets[u + 1]):
                j = nbr_ids[i]
                flat[j] = nbr_probs[i]
                mask |= shifts[j]
            adj.append(mask)
            rows.append(flat)
        self.nodes = order
        self.index = {u: i for i, u in enumerate(order)}
        self.n = n
        self.width = width
        self.adj = adj
        self.rows = rows
        self.bits = shifts if width == n else shifts[:n]
        self.row_offsets = row_offsets
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.full_mask = (1 << width) - 1

    def __getstate__(self) -> tuple[
        list[Node], array[int], array[int], array[float], int
    ]:
        # Labels + CSR + width; all derived forms are rebuilt in
        # __setstate__.
        return (
            self.nodes, self.row_offsets, self.nbr_ids, self.nbr_probs,
            self.width,
        )

    def __setstate__(
        self,
        state: tuple[list[Node], array[int], array[int], array[float], int],
    ) -> None:
        CompiledComponent.__init__(self, *state)

    def decompile(self, mask: int) -> frozenset[Node]:
        """Original labels of the nodes whose bits are set in ``mask``."""
        nodes = self.nodes
        return frozenset(nodes[i] for i in iter_bits(mask))


def project_component(
    compiled: CompiledGraph, members: list[Node]
) -> tuple[list[Node], array[int], array[int], array[float]]:
    """A component's labels and search CSR, projected from the unified
    whole-graph artifact without touching the :class:`UncertainGraph`.

    ``members`` must be the node set of one pipeline component of the
    graph ``compiled`` was lowered from: the pruning stage removes
    *nodes* (edges among survivors are untouched) and every edge the cut
    optimization removes crosses two final components — so filtering the
    whole-graph rows to ``members`` reproduces the component's adjacency
    exactly:

    * local ids renumber ``members`` by ascending ``sort_rank``, which
      restricted to any subset equals the component's own
      :func:`node_sort_key` sort;
    * each CSR row is the member-filtered slice of the whole-graph
      lazily-sorted ``desc_row`` — ordered by
      ``(-probability, sort_rank)``, whose restriction to members *is*
      the component order ``(-probability, local_id)`` (local ids are
      monotone in rank), with the identical float objects.

    Runs in ``O(sum of member degrees)`` — no sorting, no string keys.
    The arrays are freshly built, never aliases of ``compiled``'s lists:
    views are pickled to worker processes and cached per component while
    :meth:`CompiledGraph.apply_delta` patches the source rows *in place*,
    and neither may observe later mutations.
    """
    index = compiled.index
    rank = compiled.sort_rank
    gids = sorted((index[u] for u in members), key=rank.__getitem__)
    local: dict[int, int] = {g: i for i, g in enumerate(gids)}
    nodes: list[Node] = [compiled.nodes[g] for g in gids]
    row_offsets = array("l", [0])
    nbr_ids = array("l")
    nbr_probs = array("d")
    get = local.get
    for g in gids:
        dids, dps = compiled.desc_row(g)
        for j, gid in enumerate(dids):
            li = get(gid)
            if li is not None:
                nbr_ids.append(li)
                nbr_probs.append(dps[j])
        row_offsets.append(len(nbr_ids))
    return nodes, row_offsets, nbr_ids, nbr_probs


def derive_component_view(
    compiled: CompiledGraph, members: list[Node]
) -> CompiledComponent:
    """Build a component's :class:`CompiledComponent` from the unified
    whole-graph artifact (:func:`project_component`).

    The view is bit-identical to a from-scratch compile of the component
    subgraph (``repro.reference.compile_component``): every derived form
    (bitmask rows, dense rows) is rebuilt from the projected CSR by the
    constructor, the same code the pickle path uses.  This is what
    collapses the pipeline's second compile stage into a cheap
    projection of the first.
    """
    return CompiledComponent(*project_component(compiled, members))


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set-bit positions of ``mask`` in ascending order.

    Convenience for cold paths; the hot search loops below inline the same
    chunked extraction to avoid generator overhead.
    """
    base = 0
    while mask:
        chunk = mask & _CHUNK_MASK
        mask >>= 64
        while chunk:
            low = chunk & -chunk
            chunk ^= low
            yield base + low.bit_length() - 1
        base += 64


# ----------------------------------------------------------------------
# Enumeration: the MUC recursion over the compiled component
# ----------------------------------------------------------------------

def enum_root_prep(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    stats: EnumerationStats,
) -> list[tuple[int, float]] | None:
    """Root-call bookkeeping of the MUC recursion, factored out so the
    parallel layer can split the surviving root candidates into ranges.

    Performs exactly what the sequential root call does before its branch
    loop: counts the root search call and applies the root in-search core
    gate (Algorithm 4 lines 12-15 with ``R`` empty).  Returns the
    surviving root candidate list, or ``None`` when the whole component is
    dead (root insearch prune).  :func:`pivot_root_plan` turns the result
    into the root branch list that :func:`enumerate_pivot_range` splits.
    """
    n = comp.n
    stats.search_calls += 1
    cands = [(v, 1.0) for v in range(n)]
    if n >= insearch_min_candidates and insearch and min_size > 0:
        alive = topk_peel_masks(comp, comp.full_mask, 0, k, tau_floor)
        if alive is None or alive.bit_count() < min_size:
            stats.insearch_prunes += 1
            return None
        if alive != comp.full_mask:
            stats.insearch_prunes += 1
            cands = [e for e in cands if alive >> e[0] & 1]
    return cands



# ----------------------------------------------------------------------
# Pivot engine: Tomita-style greedy pivoting on the MUC recursion
# ----------------------------------------------------------------------
#
# The classic Bron-Kerbosch pivot rule — pick the pivot u maximizing
# |C & Γ(u)| and branch only on C \ Γ(u) — is UNSOUND for (k, tau)-
# cliques as stated: K subset of R + (C & Γ(u)) being structurally
# extendable by u does not imply CPr(K + {u}) >= tau, so K can be
# maximal even though u is adjacent to all of it.  The sound variant
# implemented here is the *absorbing* pivot: after choosing u by
# popcount coverage, greedily grow an absorption set T inside C & Γ(u)
# while R + T + {u} stays a structural clique AND its clique probability
# stays above the (safety-margined) threshold.  Then for every
# K subset of R + T, the superset chain gives
# CPr(K + {u}) >= CPr(R + T + {u}) >= tau, so u extends K and K is not
# maximal — branching on T can be skipped wholesale.  Vertices outside
# T still branch, and the skipped vertices are *carried forward* into
# every child's candidate list (a child of branch q receives
# (C \ branched-so-far) & Γ_tau(q), absorbed members included), which
# preserves the unique-path argument: a clique's next vertex is always
# its first member in branch order, so no clique is reached twice.
#
# Emission stays on the oracle predicate: at a leaf the clique
# probability and every witness chain are *recomputed in canonical
# ascending-id order* — the exact nested float sequence the reference
# recursion builds along its path — so the emitted set of cliques, and
# each clique's probability chain, are bit-identical to the
# reference's.  (The descent filters multiply in pivot path
# order; a filter verdict can in principle differ from the canonical
# one when a partial product lands within ~1 ulp of the threshold
# floor, a measure-zero event documented in docs/performance.md and
# never observed by the parity suites.)  Yield order follows the pivot
# recursion and therefore differs from the reference; parity is on
# the set.


def pivot_root_plan(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    cands: list[tuple[int, float]],
    stats: EnumerationStats,
) -> list[int]:
    """Choose the root pivot and absorption set for the pivot engine.

    ``cands`` is the surviving root candidate list from
    :func:`enum_root_prep`.  Returns the root *branch list* — the
    candidate ids to branch on, ascending — after absorbing the skipped
    set, and counts the root node's pivot bookkeeping into ``stats``
    (exactly once: the parallel layer computes the plan in the driver
    and ships it to every range task).
    """
    rows = comp.rows
    adj = comp.adj
    bits = comp.bits
    skip_mask = 0
    if len(cands) > 1:
        cand_mask = 0
        for e in cands:
            cand_mask |= bits[e[0]]
        best_u = -1
        best_cover = -1
        for u, _pi_u in cands:
            cover = (adj[u] & cand_mask).bit_count()
            if cover > best_cover:
                best_cover = cover
                best_u = u
        if best_cover > 0:
            skip_floor = tau_floor * _PIVOT_SAFETY
            t_adj = adj[best_u]
            budget = 1.0  # root clique probability
            urow = rows[best_u]
            t_list: list[int] = []
            for v, _pi_v in cands:
                if v == best_u:
                    continue
                bv = bits[v]
                if not bv & t_adj:
                    continue
                prod = budget * urow[v]
                if prod < skip_floor:  # repro-lint: ignore[RPL001]
                    continue
                ok = True
                vrow = rows[v]
                for t in t_list:
                    prod *= vrow[t]
                    if prod < skip_floor:  # repro-lint: ignore[RPL001]
                        ok = False
                        break
                if ok:
                    skip_mask |= bv
                    t_list.append(v)
                    t_adj &= adj[v]
                    budget = prod
    branches = [e[0] for e in cands if not bits[e[0]] & skip_mask]
    stats.pivot_branches += len(branches)
    stats.pivot_skipped += len(cands) - len(branches)
    return branches


def enumerate_pivot_range(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    cands: list[tuple[int, float]],
    branches: list[int],
    start: int,
    stop: int,
    stats: EnumerationStats,
) -> list[frozenset[Node]]:
    """Pivot search of the root branches ``branches[start:stop]``.

    ``cands`` must be the full surviving root candidate list from
    :func:`enum_root_prep` and ``branches`` the root branch list from
    :func:`pivot_root_plan`.  A pivot branch's candidate tail carries
    the absorbed (skipped)
    vertices *before* it as well, so the root loop filters ``cands`` by
    a live remaining-mask rather than slicing.  Branches before
    ``start`` are silently replayed — the same popcount and threshold
    verdicts, minus recursion, stats and output — so any partition of
    ``range(len(branches))`` concatenates to the sequential result with
    stats summing to the sequential totals (``jobs=N`` bit-parity).
    """
    rows = comp.rows
    adj = comp.adj
    bits = comp.bits
    nodes = comp.nodes
    skip_floor = tau_floor * _PIVOT_SAFETY
    out: list[frozenset[Node]] = []
    # Batched stats, flushed once per range (attribute access on the
    # stats object is too slow for the recursion's call volume).
    calls = insearch_prunes = branch_prunes = cliques = 0
    pbranches = pskipped = 0

    def rec(
        clique: list[int],
        clique_len: int,
        clique_prob: float,
        cands: list[tuple[int, float]],
        common: int,
        banned: int,
    ) -> None:
        # One node of the absorbing-pivot recursion.  ``cands`` holds
        # (id, pi) pairs in ascending id order with pi the incremental
        # product to the clique *in pivot path order*; ``common`` is the
        # intersection of adj[r] over the clique and ``banned`` the
        # branch-size-pruned ids (the virtual-X machinery of the module
        # docstring — carried-forward candidates that die on a filter
        # are caught by the leaf witness scan automatically).
        nonlocal calls, insearch_prunes, branch_prunes, cliques
        nonlocal pbranches, pskipped
        calls += 1
        if not cands:
            # Leaf: recompute the canonical ascending-order chain (the
            # float sequence the reference built along its path) and
            # run the witness scan against it — emission decisions are
            # bit-identical to the reference's.
            if clique_len >= min_size:
                order = sorted(clique)
                prob = 1.0
                for j in range(clique_len):
                    vj = order[j]
                    pi = 1.0
                    for i in range(j):
                        pi *= rows[order[i]][vj]
                    prob = prob * pi
                if prob >= tau_floor:  # repro-lint: ignore[RPL001]
                    wit = common & ~banned
                    blocked = False
                    base = 0
                    while wit:
                        chunk = wit & _CHUNK_MASK
                        wit >>= 64
                        while chunk:
                            low = chunk & -chunk
                            chunk ^= low
                            w = base + low.bit_length() - 1
                            pi = 1.0
                            for r in order:
                                pi *= rows[r][w]
                                # Hot path: precomputed threshold_floor.
                                if prob * pi < tau_floor:  # repro-lint: ignore[RPL001]
                                    break
                            else:
                                blocked = True
                                wit = 0
                                break
                        base += 64
                    if not blocked:
                        cliques += 1
                        out.append(frozenset(nodes[x] for x in clique))
            return

        nc = len(cands)
        if nc >= insearch_min_candidates and insearch and clique_len < min_size:
            # In-search (Top_k, tau)-core gate (Algorithm 4 lines
            # 12-15), the compiled twin of the reference's.
            cand_mask = 0
            for e in cands:
                cand_mask |= bits[e[0]]
            clique_mask = 0
            for r in clique:
                clique_mask |= bits[r]
            alive = topk_peel_masks(
                comp, clique_mask | cand_mask, clique_mask, k, tau_floor
            )
            if alive is None or alive.bit_count() < min_size:
                insearch_prunes += 1
                return
            pruned = alive & cand_mask
            if pruned != cand_mask:
                insearch_prunes += 1
                cands = [e for e in cands if pruned >> e[0] & 1]
                nc = len(cands)

        cand_mask = 0
        for e in cands:
            cand_mask |= bits[e[0]]

        # Pivot selection: max structural coverage by popcount, ties to
        # the lowest id (deterministic).  Then greedy absorption: grow T
        # inside C & Γ(u) while R + T + {u} stays a structural clique
        # whose running clique probability clears the safety-margined
        # floor — every sub-clique of R + T is then non-maximal (u
        # extends it), so T never branches.
        skip_mask = 0
        if nc > 1:
            best_u = -1
            best_pi = 1.0
            best_cover = -1
            for u, pi_u in cands:
                cover = (adj[u] & cand_mask).bit_count()
                if cover > best_cover:
                    best_cover = cover
                    best_u = u
                    best_pi = pi_u
            if best_cover > 0:
                t_adj = adj[best_u]
                budget = clique_prob * best_pi
                urow = rows[best_u]
                t_list: list[int] = []
                for v, pi_v in cands:
                    if v == best_u:
                        continue
                    bv = bits[v]
                    if not bv & t_adj:
                        continue
                    prod = budget * pi_v * urow[v]
                    if prod < skip_floor:  # repro-lint: ignore[RPL001]
                        continue
                    ok = True
                    vrow = rows[v]
                    for t in t_list:
                        prod *= vrow[t]
                        if prod < skip_floor:  # repro-lint: ignore[RPL001]
                            ok = False
                            break
                    if ok:
                        skip_mask |= bv
                        t_list.append(v)
                        t_adj &= adj[v]
                        budget = prod

        prune_live = clique_len + 1 < min_size
        need = min_size - clique_len - 1
        child_len = clique_len + 1
        rem_mask = cand_mask
        branched = 0
        for u, pi_u in cands:
            bu = bits[u]
            if bu & skip_mask:
                continue
            branched += 1
            rem_mask ^= bu
            if prune_live and (rem_mask & adj[u]).bit_count() < need:
                # Branch-size prune (Algorithm 4, line 19): the popcount
                # over-approximates the child candidate count (absorbed
                # vertices stay in rem_mask), so the bound is sound.
                branch_prunes += 1
                banned |= bu
                continue
            new_prob = clique_prob * pi_u
            urow = rows[u]
            new_cands = []
            for v, pi_v in cands:
                if not rem_mask & bits[v]:
                    continue  # already branched (or u itself)
                p = urow[v]
                if p:
                    piv = pi_v * p
                    if new_prob * piv >= tau_floor:  # repro-lint: ignore[RPL001]
                        new_cands.append((v, piv))
            if prune_live and len(new_cands) < need:
                branch_prunes += 1
                banned |= bu
                continue
            clique.append(u)
            rec(clique, child_len, new_prob, new_cands, common & adj[u],
                banned)
            clique.pop()
        pbranches += branched
        pskipped += nc - branched

    # Root branch loop over the plan's branch list, with silent replay
    # of the branches before ``start``.  Root pi values are exactly 1.0
    # and the root clique probability is 1.0, so the replayed threshold
    # verdict for a child candidate v of branch u is ``p(u, v) >=
    # tau_floor`` — the same float compare the live loop runs.
    need = min_size - 1
    prune_live = min_size > 1
    rem_mask = 0
    for e in cands:
        rem_mask |= bits[e[0]]
    banned = 0
    for idx in range(start):
        u = branches[idx]
        bu = bits[u]
        rem_mask ^= bu
        if not prune_live:
            continue
        if (rem_mask & adj[u]).bit_count() < need:
            banned |= bu
            continue
        urow = rows[u]
        survivors = 0
        for v, _pi_v in cands:
            if not rem_mask & bits[v]:
                continue
            p = urow[v]
            # Replayed verdict of the live filter below; counting can
            # stop at ``need`` because the filter is append-only.
            if p and p >= tau_floor:  # repro-lint: ignore[RPL001]
                survivors += 1
                if survivors >= need:
                    break
        if survivors < need:
            banned |= bu
    full = comp.full_mask
    clique: list[int] = []
    for idx in range(start, stop):
        u = branches[idx]
        bu = bits[u]
        rem_mask ^= bu
        if prune_live and (rem_mask & adj[u]).bit_count() < need:
            branch_prunes += 1
            banned |= bu
            continue
        urow = rows[u]
        new_cands = []
        for v, pi_v in cands:
            if not rem_mask & bits[v]:
                continue
            p = urow[v]
            if p:
                piv = pi_v * p
                # Root clique_prob is exactly 1.0: new_prob == pi_u == 1.0.
                if piv >= tau_floor:  # repro-lint: ignore[RPL001]
                    new_cands.append((v, piv))
        if prune_live and len(new_cands) < need:
            branch_prunes += 1
            banned |= bu
            continue
        clique.append(u)
        rec(clique, 1, 1.0, new_cands, full & adj[u], banned)
        clique.pop()

    stats.search_calls += calls
    stats.insearch_prunes += insearch_prunes
    stats.branch_size_prunes += branch_prunes
    stats.cliques += cliques
    stats.pivot_branches += pbranches
    stats.pivot_skipped += pskipped
    return out


# ----------------------------------------------------------------------
# Maximum: the MaxUC+ color-bound branch-and-bound over bitmask state
# ----------------------------------------------------------------------

def maximum_compiled(
    comp: CompiledComponent,
    color: list[int],
    k: int,
    tau_floor: float,
    min_size: int,
    best_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """MaxUC+ search of one *already compiled* component.

    ``color[i]`` is the greedy color of node id ``i``.  Mirrors the
    dict search of ``repro.reference`` exactly, including the order in
    which the three color bounds and the in-search peel fire and every
    float they produce (the bounds are the compiled twins of
    :mod:`repro.core.bounds`).  There is no maximality test here, so the
    candidate loop matches the reference's shape with dense rows and the bound
    bookkeeping batched into local counters.
    """
    n = comp.n
    rows = comp.rows
    bits = comp.bits
    nodes = comp.nodes
    # Batched stats (flushed once per component; as in enumerate_pivot_range).
    calls = size_prunes = basic_prunes = adv1_prunes = 0
    adv2_prunes = ins_prunes = 0

    best: list[Node] | None = None

    def search(
        clique: list[int],
        clique_mask: int,
        clique_prob: float,
        cids: list[int],
        cpis: list[float],
        cand_mask: int,
    ) -> None:
        nonlocal best, best_size, calls, size_prunes, basic_prunes
        nonlocal adv1_prunes, adv2_prunes, ins_prunes
        calls += 1
        clique_len = len(clique)
        if clique_len > best_size:
            best = [nodes[i] for i in clique]
            best_size = clique_len
        if not cids:
            return

        # Bounds, cheapest first (Section V implementation details).
        if clique_len + len({color[v] for v in cids}) <= best_size:
            basic_prunes += 1
            return
        if use_advanced_one:
            best_per_color: dict[int, float] = {}
            for j in range(len(cids)):
                c = color[cids[j]]
                pi_v = cpis[j]
                if pi_v > best_per_color.get(c, 0.0):
                    best_per_color[c] = pi_v
            bound = _prefix_budget(
                sorted(best_per_color.values(), reverse=True),
                clique_prob, tau_floor,
            )
            if clique_len + bound <= best_size:
                adv1_prunes += 1
                return
        if use_advanced_two and clique:
            tightest: int | None = None
            for w in clique:
                wrow = rows[w]
                best_per_color = {}
                for v in cids:
                    p = wrow[v]
                    if not p:
                        continue  # v cannot join anyway; skip for w's budget
                    c = color[v]
                    if p > best_per_color.get(c, 0.0):
                        best_per_color[c] = p
                budget = _prefix_budget(
                    sorted(best_per_color.values(), reverse=True),
                    clique_prob, tau_floor,
                )
                if tightest is None or budget < tightest:
                    tightest = budget
                    if tightest == 0:
                        break
            bound = tightest if tightest is not None else 0
            if clique_len + bound <= best_size:
                adv2_prunes += 1
                return

        if insearch and clique_len < min_size:
            members = clique_mask | cand_mask
            alive = topk_peel_masks(comp, members, clique_mask, k, tau_floor)
            if alive is None or alive.bit_count() < min_size:
                ins_prunes += 1
                return
            if alive != members:
                ins_prunes += 1
                pruned = alive & cand_mask
                if pruned != cand_mask:
                    cand_mask = pruned
                    keep_ids: list[int] = []
                    keep_pis: list[float] = []
                    for j in range(len(cids)):
                        v = cids[j]
                        if pruned >> v & 1:
                            keep_ids.append(v)
                            keep_pis.append(cpis[j])
                    cids = keep_ids
                    cpis = keep_pis

        nc = len(cids)
        rem_mask = cand_mask
        i = 0
        while i < nc:
            if clique_len + nc - i <= best_size:
                size_prunes += 1
                return
            u = cids[i]
            pi_u = cpis[i]
            i += 1
            rem_mask ^= bits[u]
            new_prob = clique_prob * pi_u
            new_ids: list[int] = []
            new_pis: list[float] = []
            new_mask = 0
            urow = rows[u]
            for j in range(i, nc):
                v = cids[j]
                p = urow[v]
                if p:
                    piv = cpis[j] * p
                    # Hot path: tau_floor = threshold_floor(tau).
                    if new_prob * piv >= tau_floor:  # repro-lint: ignore[RPL001]
                        new_ids.append(v)
                        new_pis.append(piv)
                        new_mask |= bits[v]
            clique.append(u)
            search(
                clique, clique_mask | bits[u], new_prob, new_ids, new_pis,
                new_mask,
            )
            clique.pop()

    search([], 0, 1.0, list(range(n)), [1.0] * n, comp.full_mask)
    stats.search_calls += calls
    stats.size_bound_prunes += size_prunes
    stats.basic_color_prunes += basic_prunes
    stats.advanced_one_prunes += adv1_prunes
    stats.advanced_two_prunes += adv2_prunes
    stats.insearch_prunes += ins_prunes
    return best, best_size


def _prefix_budget(
    values: list[float], clique_prob: float, tau_floor: float
) -> int:
    """Longest prefix of descending ``values`` whose running product with
    ``clique_prob`` stays at least tau — the compiled twin of
    :func:`repro.core.bounds._prefix_budget` (same floats, same order)."""
    count = 0
    running = clique_prob
    for value in values:
        running *= value
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        if running < tau_floor:  # repro-lint: ignore[RPL001]
            break
        count += 1
    return count
