"""Array-compiled graph artifact: flat CSR lowering for prune *and* search.

The search stage has run on a compiled bitset kernel since PR 2
(:mod:`repro.core.kernel`), and since PR 5 the *pruning* stage — the
paper's headline ``O(m * delta)`` DPCore+ peel (Algorithm 2), the
dominating (Top_k, tau)-core rule (Algorithm 3) and the cut
optimization's fringe peels — runs over a flat whole-graph CSR built
here.  Originally the two sides compiled independently, so a cold query
lowered every graph twice.  This module now owns the **unified**
artifact: a stdlib-only, zero-dependency compiler that lowers an
:class:`~repro.uncertain.graph.UncertainGraph` **once** into dense int
ids plus flat CSR adjacency/probability layouts that serve both sides —
the peels read the insertion-order and ascending rows directly, and the
search kernel *derives* its per-component
:class:`~repro.core.kernel.CompiledComponent` views (bitmask rows,
descending-prob CSR) from the precomputed ``sort_rank`` array and the
lazily-memoized per-row :meth:`CompiledGraph.desc_row` sorts — only
rows that survive pruning ever pay the descending sort
(:func:`repro.core.kernel.derive_component_view`).  The peel loops run
entirely over the flat structures:

* :func:`survival_peel` — DPCore+: the forward survival DP of Eq. (5)
  written into a preallocated flat row buffer, the Eq. (6) deletion
  update applied in place with the ``STABLE_P_LIMIT`` rebuild fallback,
  a bucketed worklist (per-round frontier lists drained in sequence)
  instead of the deque, and the verify-before-peel + final verification
  sweep discipline preserved — so the canonical core is identical to the
  reference peel on every input.
* :func:`distribution_peel` — the Bonchi et al. [16] DPCore baseline
  (Eqs. 3 and 4) over the same compiled form, with reused column
  scratch buffers instead of per-column allocations.
* :func:`topk_peel` — Algorithm 3's (Top_k, tau)-core peel over
  precompiled ascending probability rows, including the ``fixed``
  (``V_I``) abort the in-search pruning needs.

All three accept an optional ``members`` subset so the session layer's
monotone-seeded peels (PR 4) can replay over the *same* compiled arrays
instead of building an induced scratch subgraph per seed — one compile
per graph version serves every prune of every query.

Parity contract
---------------
The peels converge to the same canonical node sets as the dict-based
reference peels of :mod:`repro.reference.peels`, bit for bit:

* the survival condition of every rule is monotone under node removal,
  and every condemnation is confirmed by a fresh, division-free DP over
  the currently-live neighbors, so each peel terminates at the unique
  maximal fixpoint — independent of worklist order, seeding, or
  implementation;
* fresh DPs iterate incident rows in the graph's insertion order
  (filtered by liveness), multiplying the exact float sequences the
  reference code reads out of ``incident(u).values()``;
* every threshold test compares against ``threshold_floor(tau)``, the
  exact fast path of :func:`~repro.utils.validation.prob_at_least` /
  ``prob_below``.

The randomized suite ``tests/core/test_prune_kernel_parity.py`` pins
this contract, including ``p == 1.0`` edges and probabilities straddling
``STABLE_P_LIMIT``.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left, insort
from typing import AbstractSet, Any, Iterable

from repro.core.tau_degree import STABLE_P_LIMIT
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.validation import threshold_floor, validate_k, validate_tau

__all__ = [
    "CompiledGraph",
    "node_sort_key",
    "compile_graph",
    "survival_peel",
    "distribution_peel",
    "topk_peel",
]

def node_sort_key(node: Node) -> tuple[str, str]:
    """Deterministic total order over arbitrary hashable nodes.

    Single definition of the library's node order; the search drivers,
    the search kernel and the whole-graph compiler below share it, and
    compilation evaluates it exactly once per node.
    """
    return (type(node).__name__, str(node))


class CompiledGraph:
    """A whole graph lowered to flat CSR lists for peeling *and* search.

    Nodes are densely renumbered in graph iteration order; adjacency and
    edge probabilities live in parallel CSR layouts sharing one
    ``row_offsets`` list:

    * ``nbr_ids`` / ``nbr_probs`` — **incident order** (the graph's
      insertion order), which is what the fresh survival / distribution
      DPs must multiply in to match the reference float sequences;
    * :meth:`desc_row` — the same row sorted by **descending
      probability**, ties by the neighbor's ``sort_rank``, computed
      **lazily on first use** and memoized per row.  Filtering a row to
      a component's member set yields that component's search CSR
      (descending probability, ties by local id) verbatim — the key
      that lets :func:`repro.core.kernel.derive_component_view` build a
      search view per component without sorting anything.  Laziness is
      load-bearing: pruning discards most rows before any search looks
      at them, so an eager whole-graph descending sort would pay the
      (dominant) tuple-sort cost for nodes no query ever visits;
    * ``asc_rows`` — one **ascending-sorted** probability list per row,
      the precomputed form of the ``sorted(incident.values())`` lists
      the (Top_k, tau)-core peel consumes (peels copy a row before
      mutating it — compiled state is only ever appended to by the
      lazy memos, never rewritten).  Equal floats are interchangeable,
      so the value sequence matches the reference sort exactly.

    ``sort_rank[i]`` is the position of node ``i`` in the library's
    deterministic :func:`node_sort_key` order over the whole graph.
    Restricted to any component's members, ascending rank equals the
    component's own ascending sort — so component views renumber by one
    rank sort instead of re-deriving string keys per node.

    The flat layouts are plain Python lists rather than ``array``
    typecode buffers: the peels index them millions of times, and a
    list read hands back the stored object while an ``array('d')`` read
    boxes a fresh float each time — lists measure ~30% faster end to
    end and make the compile itself ~2x cheaper (no per-element type
    conversion on build).  ``array`` is kept where it earns its keep:
    the compact memoized core-number vector.

    Deterministic core numbers (the DPCore+ truncation bound) are
    computed lazily on first use via a bucket peel over the CSR itself —
    (Top_k, tau)-only workloads never pay for them.

    The compile is pure data tied to one graph ``version``; the session
    layer memoizes it under ``(version, "compile")`` so every prune and
    every search of every query shares a single lowering.  The artifact
    is **picklable** — only the node labels, the insertion-order CSR and
    the version cross the pipe (``__getstate__``); every derived form is
    rebuilt on unpickle.
    """

    __slots__ = (
        "nodes",
        "index",
        "n",
        "row_offsets",
        "nbr_ids",
        "nbr_probs",
        "sort_rank",
        "asc_rows",
        "version",
        "_desc_rows",
        "_core_ids",
    )

    def __init__(
        self,
        nodes: tuple[Node, ...],
        row_offsets: list[int],
        nbr_ids: list[int],
        nbr_probs: list[float],
        version: int,
    ) -> None:
        self.nodes = nodes
        self.row_offsets = row_offsets
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.version = version
        self._build_derived()

    def _build_derived(self) -> None:
        """Rebuild every derived form from the canonical flat state."""
        nodes = self.nodes
        n = len(nodes)
        self.n = n
        self.index = {u: i for i, u in enumerate(nodes)}
        order = sorted(range(n), key=lambda i: node_sort_key(nodes[i]))
        rank = [0] * n
        for r, i in enumerate(order):
            rank[i] = r
        self.sort_rank = rank
        rf = self.row_offsets
        ps = self.nbr_probs
        # Values only — cheap float sorts.  The id-carrying descending
        # rows are per-row lazy (see desc_row); only survivors pay.
        self.asc_rows = [
            sorted(ps[rf[i]:rf[i + 1]]) for i in range(n)
        ]
        self._desc_rows: list[tuple[list[int], list[float]] | None] = (
            [None] * n
        )
        self._core_ids: "array[int] | None" = None

    def desc_row(self, i: int) -> tuple[list[int], list[float]]:
        """Row ``i`` as ``(neighbor ids, probabilities)`` sorted by
        ``(-probability, sort_rank)`` — the search-CSR order — computed
        on first use and memoized.

        Negating a float flips only the sign bit, so ``-(-p)`` is ``p``
        bit for bit, and the rank tie-break gives the exact
        ``(-p, local_id)`` order of any member restriction.
        """
        row = self._desc_rows[i]
        if row is None:
            rf = self.row_offsets
            ids = self.nbr_ids
            ps = self.nbr_probs
            rank = self.sort_rank
            entries = sorted(
                (-ps[j], rank[ids[j]], ids[j])
                for j in range(rf[i], rf[i + 1])
            )
            row = ([e[2] for e in entries], [-e[0] for e in entries])
            self._desc_rows[i] = row
        return row

    def __getstate__(
        self,
    ) -> tuple[tuple[Node, ...], list[int], list[int], list[float], int]:
        # Labels + insertion-order CSR + version only; every derived
        # form (index, sort_rank, desc/asc rows, core numbers) is
        # rebuilt in __setstate__.
        return (
            self.nodes, self.row_offsets, self.nbr_ids, self.nbr_probs,
            self.version,
        )

    def __setstate__(
        self,
        state: tuple[
            tuple[Node, ...], list[int], list[int], list[float], int
        ],
    ) -> None:
        nodes, row_offsets, nbr_ids, nbr_probs, version = state
        self.nodes = nodes
        self.row_offsets = row_offsets
        self.nbr_ids = nbr_ids
        self.nbr_probs = nbr_probs
        self.version = version
        self._build_derived()

    def degree(self, i: int) -> int:
        """Full degree of compiled node ``i``."""
        return self.row_offsets[i + 1] - self.row_offsets[i]

    def core_ids(self) -> "array[int]":
        """Deterministic core number per compiled node (lazy, memoized).

        Batagelj-Zaversnik bucket peeling over the CSR; the values equal
        :func:`repro.deterministic.core_decomposition.core_numbers` on
        the source graph (the decomposition is a canonical function of
        the graph, pinned by the parity suite).
        """
        if self._core_ids is not None:
            return self._core_ids
        n = self.n
        rf = self.row_offsets
        ids = self.nbr_ids
        remaining = [rf[i + 1] - rf[i] for i in range(n)]
        core = array("l", [0] * n)
        max_degree = max(remaining, default=0)
        buckets: list[list[int]] = [[] for _ in range(max_degree + 1)]
        for i in range(n):
            buckets[remaining[i]].append(i)
        removed = bytearray(n)
        peeled = 0
        current = 0
        pointer = 0
        while peeled < n:
            if pointer > max_degree:
                break
            bucket = buckets[pointer]
            if not bucket:
                pointer += 1
                continue
            u = bucket.pop()
            if removed[u] or remaining[u] != pointer:
                continue  # stale entry: u was re-bucketed lower
            if pointer > current:
                current = pointer
            core[u] = current
            removed[u] = 1
            peeled += 1
            for j in range(rf[u], rf[u + 1]):
                v = ids[j]
                if removed[v]:
                    continue
                d = remaining[v] - 1
                remaining[v] = d
                buckets[d].append(v)
                if d < pointer:
                    pointer = d
        self._core_ids = core
        return core

    # ------------------------------------------------------------------
    # Delta compile
    # ------------------------------------------------------------------

    #: Mutation-log ops :meth:`apply_delta` can patch in place.
    #: ``remove_node`` is deliberately absent: deleting a row renumbers
    #: every dense id, which is a full re-lower by definition.
    _DELTA_OPS = frozenset(
        {"set_probability", "add_edge", "remove_edge", "add_node"}
    )

    def apply_delta(self, ops: Iterable[tuple[Any, ...]]) -> bool:
        """Patch the artifact in place with a mutation-log slice.

        ``ops`` is the tuple returned by
        :meth:`repro.uncertain.graph.UncertainGraph.mutations_since` for
        this artifact's :attr:`version`.  Returns ``True`` when every op
        was applied — the patched artifact is then equivalent to
        :func:`compile_graph` on the mutated graph (same node order, same
        insertion-order CSR float sequences, same ascending rows; lazily
        memoized descending rows and core numbers are invalidated only
        for touched rows) — or ``False`` without touching anything when
        the slice contains an op the patcher does not support
        (``remove_node``), in which case the caller must re-lower.

        Reweights are ``O(d + log d)`` (two row writes plus an
        ascending-row bisect); structural single-edge ops splice the flat
        lists (``O(m)`` worst case) — still far cheaper than a full
        compile, which pays the per-row sorts on top.
        """
        ops = tuple(ops)
        for entry in ops:
            if entry[1] not in self._DELTA_OPS:
                return False
        for entry in ops:
            op = entry[1]
            if op == "set_probability":
                _, _, u, v, old_p, new_p = entry
                self._patch_reweight(u, v, old_p, new_p)
            elif op == "add_edge":
                _, _, u, v, p, new_u, new_v = entry
                # The graph creates ``u`` before ``v`` (setdefault
                # order), so the dense numbering must append in the same
                # order to match a cold compile.
                if new_u:
                    self._append_node(u)
                if new_v:
                    self._append_node(v)
                self._insert_edge(u, v, p)
            elif op == "remove_edge":
                _, _, u, v, p = entry
                self._delete_edge(u, v, p)
            else:  # add_node
                self._append_node(entry[2])
        if ops:
            self.version = ops[-1][0]
        return True

    def _append_node(self, node: Node) -> None:
        """Append an isolated node (new dense id, empty row)."""
        i = self.n
        self.nodes = self.nodes + (node,)
        self.index[node] = i
        self.n = i + 1
        self.row_offsets.append(self.row_offsets[-1])
        self.asc_rows.append([])
        self._desc_rows.append(None)
        # Appending a node shifts later sort ranks monotonically:
        # relative order of pre-existing nodes is preserved, so memoized
        # descending rows (rank is only the tie-break) stay valid.
        nodes = self.nodes
        order = sorted(range(self.n), key=lambda j: node_sort_key(nodes[j]))
        rank = [0] * self.n
        for r, j in enumerate(order):
            rank[j] = r
        self.sort_rank = rank
        if self._core_ids is not None:
            self._core_ids.append(0)

    def _row_pos(self, i: int, nbr_id: int) -> int:
        """Flat position of neighbor ``nbr_id`` within row ``i``."""
        rf = self.row_offsets
        ids = self.nbr_ids
        for j in range(rf[i], rf[i + 1]):
            if ids[j] == nbr_id:
                return j
        raise KeyError((self.nodes[i], self.nodes[nbr_id]))

    def _patch_reweight(
        self, u: Node, v: Node, old_p: float, new_p: float
    ) -> None:
        iu = self.index[u]
        iv = self.index[v]
        self.nbr_probs[self._row_pos(iu, iv)] = new_p
        self.nbr_probs[self._row_pos(iv, iu)] = new_p
        for i in (iu, iv):
            row = self.asc_rows[i]
            row.pop(bisect_left(row, old_p))
            insort(row, new_p)
            self._desc_rows[i] = None
        # Reweights leave the deterministic structure — and therefore the
        # memoized core numbers — untouched.

    def _splice_in(self, i: int, nbr_id: int, p: float) -> None:
        # The graph appends a new edge at the end of each endpoint's
        # adjacency dict, so the row end is the insertion-order position.
        pos = self.row_offsets[i + 1]
        self.nbr_ids.insert(pos, nbr_id)
        self.nbr_probs.insert(pos, p)
        rf = self.row_offsets
        for t in range(i + 1, len(rf)):
            rf[t] += 1

    def _splice_out(self, i: int, nbr_id: int) -> None:
        pos = self._row_pos(i, nbr_id)
        del self.nbr_ids[pos]
        del self.nbr_probs[pos]
        rf = self.row_offsets
        for t in range(i + 1, len(rf)):
            rf[t] -= 1

    def _insert_edge(self, u: Node, v: Node, p: float) -> None:
        iu = self.index[u]
        iv = self.index[v]
        self._splice_in(iu, iv, p)
        self._splice_in(iv, iu, p)
        for i in (iu, iv):
            insort(self.asc_rows[i], p)
            self._desc_rows[i] = None
        self._core_ids = None

    def _delete_edge(self, u: Node, v: Node, p: float) -> None:
        iu = self.index[u]
        iv = self.index[v]
        self._splice_out(iu, iv)
        self._splice_out(iv, iu)
        for i in (iu, iv):
            row = self.asc_rows[i]
            row.pop(bisect_left(row, p))
            self._desc_rows[i] = None
        self._core_ids = None


def compile_graph(graph: UncertainGraph) -> CompiledGraph:
    """Lower ``graph`` into the unified :class:`CompiledGraph` (one pass).

    Runs in ``O(m log d_max)`` (the per-row sort dominates); the result
    references nothing of the source graph, so later graph mutations
    cannot corrupt it — the embedded ``version`` is what the session
    layer keys the artifact by.
    """
    nodes = tuple(graph.nodes())
    index = {u: i for i, u in enumerate(nodes)}
    row_offsets = [0]
    nbr_ids: list[int] = []
    nbr_probs: list[float] = []
    id_of = index.__getitem__
    for u in nodes:
        inc = graph.incident(u)
        nbr_ids.extend(map(id_of, inc))
        nbr_probs.extend(inc.values())
        row_offsets.append(len(nbr_ids))
    return CompiledGraph(nodes, row_offsets, nbr_ids, nbr_probs,
                         graph.version)


def _initial_dead(
    cpg: CompiledGraph, members: Iterable[Node] | None
) -> bytearray:
    """Liveness seed: everything alive, or only ``members`` when given."""
    if members is None:
        return bytearray(cpg.n)
    dead = bytearray(b"\x01" * cpg.n)
    index = cpg.index
    for u in members:
        dead[index[u]] = 0
    return dead


def _frontier_seeds(
    cpg: CompiledGraph,
    frontier: Iterable[Node],
    dead: bytearray,
) -> list[int]:
    """Deduplicated compiled ids of live frontier nodes, in given order.

    Frontier nodes absent from the graph or outside the member set are
    ignored — a maintainer's dirty endpoints may have been deleted or
    may never have been part of the seeded core.
    """
    index_get = cpg.index.get
    seeds: list[int] = []
    seen: set[int] = set()
    for u in frontier:
        i = index_get(u)
        if i is not None and not dead[i] and i not in seen:
            seen.add(i)
            seeds.append(i)
    return seeds


def survival_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    frontier: Iterable[Node] | None = None,
) -> set[Node]:
    """DPCore+ (Algorithm 2) over the compiled arrays.

    Semantically identical to the reference verified peel
    (:func:`repro.reference.peels.dp_core_plus`):
    the deterministic-core prefilter, the Eq. (5) forward survival DP as
    the fresh (division-free) state builder, the Eq. (6) in-place
    deletion update with the ``STABLE_P_LIMIT`` rebuild fallback,
    verify-before-condemn, and a final verification sweep repeated to a
    clean fixpoint.  ``members`` restricts the peel to a node subset
    (the session layer's monotone seeds); peeling any superset of the
    core converges to the same unique fixpoint, so the result set is
    independent of the seed.

    ``frontier`` turns the peel into a **seeded re-peel**: only frontier
    nodes get an initial fresh DP; every other member is *trusted* — it
    satisfied the peel condition in a previous fixpoint whose live set
    restricted to its (unchanged) incident row can only shrink through
    the cascade, or grow monotonically when re-admitting a region — and
    is evaluated lazily, with a fresh DP, the first time a dying
    neighbor touches it.  The caller's contract: ``frontier`` must cover
    every member whose incident edges changed since the trusted state
    was a fixpoint.  Untouched trusted nodes then survive by
    construction, so the seeded re-peel converges to exactly the full
    peel's fixpoint while visiting only the dirty region.  The
    deterministic-core prefilter is skipped in frontier mode — it would
    condemn nodes without notifying their neighbors, which is only sound
    when every live node gets an initial DP.

    Two flat-array specifics beyond the reference code, neither of which
    can change the fixpoint:

    * per-node DP rows live in one preallocated float buffer with a
      uniform ``k + 1`` stride;
    * the final sweep rebuilds only *stale* nodes (those holding an
      incremental Eq. (6) update since their last fresh DP): a node
      untouched since its rebuild would reproduce that division-free DP
      bit for bit, so re-running it cannot change the decision.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    tau_floor = threshold_floor(tau)
    rf = cpg.row_offsets
    ids = cpg.nbr_ids
    ps = cpg.nbr_probs

    dead = _initial_dead(cpg, members)
    if frontier is None:
        core = cpg.core_ids()
        for i in range(n):
            # Definition 6 prefilter: xi_u <= c_u, so core number < k
            # means the node cannot survive any (k, tau)-peel.
            if core[i] < k:
                dead[i] = 1

    stride = k + 1
    state = [0.0] * (n * stride)
    zero_row = [0.0] * k
    tau_deg = [0] * n
    stale = bytearray(n)
    queued = bytearray(n)
    known = bytearray(n)
    p_limit = STABLE_P_LIMIT

    def rebuild(i: int) -> int:
        """Fresh Eq. (5) DP over live incident edges, in incident order."""
        off = i * stride
        state[off] = 1.0
        state[off + 1 : off + stride] = zero_row
        h = 0
        for j in range(rf[i], rf[i + 1]):
            if dead[ids[j]]:
                continue
            p = ps[j]
            q = 1.0 - p
            h += 1
            top = h if h < k else k
            for x in range(off + top, off, -1):
                state[x] = p * state[x - 1] + q * state[x]
        r = 0
        for x in range(off + 1, off + stride):
            # Hot path: tau_floor = threshold_floor(tau), the exact
            # prob_at_least comparison.
            if state[x] >= tau_floor:  # repro-lint: ignore[RPL001]
                r += 1
            else:
                break
        tau_deg[i] = r
        stale[i] = 0
        known[i] = 1
        return r

    if frontier is None:
        seeds = [i for i in range(n) if not dead[i]]
    else:
        seeds = _frontier_seeds(cpg, frontier, dead)
    worklist: list[int] = []
    for i in seeds:
        if rebuild(i) < k:
            queued[i] = 1
            worklist.append(i)
    frontier_bucket = worklist

    while True:
        # Bucketed worklist: drain the current frontier, collecting the
        # next round's condemnations into a fresh bucket (FIFO semantics
        # without the deque).
        while frontier_bucket:
            bucket: list[int] = []
            for i in frontier_bucket:
                dead[i] = 1
                for j in range(rf[i], rf[i + 1]):
                    v = ids[j]
                    if dead[v] or queued[v]:
                        continue
                    if not known[v]:
                        # Trusted member touched for the first time:
                        # evaluate with a fresh DP (no state to patch).
                        if rebuild(v) < k:
                            queued[v] = 1
                            bucket.append(v)
                        continue
                    p = ps[j]
                    if p < p_limit:
                        # Eq. (6) in place: read each old entry before
                        # overwriting, tracking the updated predecessor.
                        upto = tau_deg[v]
                        off = v * stride
                        q = 1.0 - p
                        prev = state[off]
                        new_deg = upto
                        x = off
                        for t in range(1, upto + 1):
                            x += 1
                            val = (state[x] - p * prev) / q
                            state[x] = val
                            prev = val
                            # Hot path: threshold_floor(tau) comparison.
                            if val < tau_floor:  # repro-lint: ignore[RPL001]
                                new_deg = t - 1
                                break
                        stale[v] = 1
                        if new_deg >= k:
                            tau_deg[v] = new_deg
                            continue
                    # p too close to 1 for the division, or the update
                    # claims v fell below k: verify with a fresh,
                    # division-free DP before condemning.
                    if rebuild(v) < k:
                        queued[v] = 1
                        bucket.append(v)
            frontier_bucket = bucket

        # Final verification sweep: recompute survivors whose state
        # carries incremental drift; continue peeling to a clean
        # fixpoint.  Trusted members never touched by the cascade have
        # ``stale == 0`` and are skipped — their survival is the seeded
        # re-peel's invariant, not something to recheck.
        frontier_bucket = []
        for i in range(n):
            if dead[i] or not stale[i]:
                continue
            if rebuild(i) < k:
                queued[i] = 1
                frontier_bucket.append(i)
        if not frontier_bucket:
            nodes = cpg.nodes
            return {nodes[i] for i in range(n) if not dead[i]}


def distribution_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    frontier: Iterable[Node] | None = None,
) -> set[Node]:
    """DPCore (the Bonchi et al. [16] baseline) over the compiled arrays.

    Semantics of :func:`repro.reference.peels.dp_core`: per-node
    state is the ``Pr(d = i)`` prefix up
    to the current tau-degree, built lazily column by column (Eq. 3)
    and updated on deletion with Eq. (4), under the same
    verify-before-condemn + final-sweep discipline.  The two column
    scratch buffers are preallocated once at the maximum degree and
    reused across every rebuild (each rebuild writes the ``0..d`` prefix
    it reads, so reuse is float-exact).

    ``frontier`` requests a seeded re-peel with the same trusted-member
    contract as :func:`survival_peel`: only frontier members get an
    initial DP, everyone else is evaluated lazily when the cascade first
    touches them.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    tau_floor = threshold_floor(tau)
    rf = cpg.row_offsets
    ids = cpg.nbr_ids
    ps = cpg.nbr_probs

    dead = _initial_dead(cpg, members)
    max_degree = 0
    for i in range(n):
        d = rf[i + 1] - rf[i]
        if d > max_degree:
            max_degree = d
    col_buf = [0.0] * (max_degree + 1)
    nxt_buf = [0.0] * (max_degree + 1)

    state: list[list[float]] = [[] for _ in range(n)]
    tau_deg = [0] * n
    stale = bytearray(n)
    queued = bytearray(n)
    known = bytearray(n)
    p_limit = STABLE_P_LIMIT

    def rebuild(i: int) -> int:
        """Fresh lazy Eq. (3) prefix DP over live incident edges."""
        probs = [
            ps[j] for j in range(rf[i], rf[i + 1]) if not dead[ids[j]]
        ]
        d = len(probs)
        col = col_buf
        nxt = nxt_buf
        col[0] = 1.0
        for h in range(1, d + 1):
            col[h] = col[h - 1] * (1.0 - probs[h - 1])
        eq = [col[d]]
        survival = 1.0
        r = 0
        for t in range(d):
            survival -= eq[t]
            # Hot path: prob_below(survival, tau) exactly.
            if survival < tau_floor:  # repro-lint: ignore[RPL001]
                break
            r = t + 1
            nxt[0] = 0.0
            for h in range(1, d + 1):
                p = probs[h - 1]
                nxt[h] = p * col[h - 1] + (1.0 - p) * nxt[h - 1]
            col, nxt = nxt, col
            eq.append(col[d])
        state[i] = eq
        tau_deg[i] = r
        stale[i] = 0
        known[i] = 1
        return r

    if frontier is None:
        seeds = [i for i in range(n) if not dead[i]]
    else:
        seeds = _frontier_seeds(cpg, frontier, dead)
    frontier_bucket: list[int] = []
    for i in seeds:
        if rebuild(i) < k:
            queued[i] = 1
            frontier_bucket.append(i)

    while True:
        while frontier_bucket:
            bucket: list[int] = []
            for i in frontier_bucket:
                dead[i] = 1
                for j in range(rf[i], rf[i + 1]):
                    v = ids[j]
                    if dead[v] or queued[v]:
                        continue
                    if not known[v]:
                        if rebuild(v) < k:
                            queued[v] = 1
                            bucket.append(v)
                        continue
                    p = ps[j]
                    if p < p_limit:
                        # Eq. (4) in place on the prefix.
                        deg = tau_deg[v]
                        eq = state[v]
                        q = 1.0 - p
                        prev = eq[0] / q
                        eq[0] = prev
                        for t in range(1, deg + 1):
                            prev = (eq[t] - p * prev) / q
                            eq[t] = prev
                        survival = 1.0
                        r = 0
                        for t in range(deg):
                            survival -= eq[t]
                            # Hot path: prob_below(survival, tau).
                            if survival < tau_floor:  # repro-lint: ignore[RPL001]
                                break
                            r = t + 1
                        stale[v] = 1
                        if r >= k:
                            tau_deg[v] = r
                            continue
                    if rebuild(v) < k:
                        queued[v] = 1
                        bucket.append(v)
            frontier_bucket = bucket

        frontier_bucket = []
        for i in range(n):
            if dead[i] or not stale[i]:
                continue
            if rebuild(i) < k:
                queued[i] = 1
                frontier_bucket.append(i)
        if not frontier_bucket:
            nodes = cpg.nodes
            return {nodes[i] for i in range(n) if not dead[i]}


def topk_peel(
    cpg: CompiledGraph,
    k: int,
    tau: float,
    members: Iterable[Node] | None = None,
    fixed: AbstractSet[Node] | None = None,
    frontier: Iterable[Node] | None = None,
) -> frozenset[Node] | None:
    """Algorithm 3's (Top_k, tau)-core peel over the compiled arrays.

    Each survival check multiplies the ``k`` highest live incident
    probabilities in ascending order — the exact float sequence of the
    reference ``math.prod(sorted(probs)[-k:])`` — against
    ``threshold_floor(tau)``.  The peel condition is monotone under node
    removal, so the surviving fixpoint is unique regardless of worklist
    order, and a ``fixed`` node (the paper's ``V_I``) is condemned under
    *some* order iff it lies outside that fixpoint — the early ``None``
    abort is therefore order-independent too.

    ``members`` restricts the peel to an induced subset (ascending rows
    are then re-gathered from live entries); ``fixed`` nodes absent from
    the graph or the member set never abort, matching the reference peel
    over an induced subgraph that simply does not contain them.

    ``frontier`` requests a seeded re-peel (trusted-member contract of
    :func:`survival_peel`): only frontier members are checked up front,
    every other member's ascending live row is gathered lazily the first
    time the cascade touches it.  Lazy gathers exclude exactly the
    neighbors whose bisect-pop can no longer arrive — non-members and
    already-*drained* condemned nodes — while a condemned-but-undrained
    neighbor stays in the gathered row because its pop is still coming:
    that bookkeeping keeps every row consistent with the pops the drain
    will actually perform, so the fixpoint matches the eager peel's.
    """
    validate_k(k)
    tau = validate_tau(tau)
    n = cpg.n
    nodes = cpg.nodes
    if k == 0:
        # pi_0 is the empty product 1.0, which clears any valid tau.
        if members is None:
            return frozenset(nodes)
        return frozenset(members)
    tau_floor = threshold_floor(tau)
    rf = cpg.row_offsets
    ids = cpg.nbr_ids
    ps = cpg.nbr_probs

    condemned = _initial_dead(cpg, members)
    is_fixed = bytearray(n)
    if fixed:
        index_get = cpg.index.get
        for u in fixed:
            i = index_get(u)
            if i is not None and not condemned[i]:
                is_fixed[i] = 1

    def below(values: list[float]) -> bool:
        # pi_k as the reference peel computes it: math.prod of the
        # ascending top-k slice multiplies left to right.
        nv = len(values)
        if nv < k:
            return True
        product = 1.0
        for p in values[nv - k :]:
            product *= p
        # Hot path: tau_floor = threshold_floor(tau) fast path.
        return product < tau_floor  # repro-lint: ignore[RPL001]

    if frontier is not None:
        # Seeded re-peel: no pristine-row prefilter (it condemns without
        # notifying neighbors, which is only sound when every member is
        # checked up front) and no eager gather.
        outside = bytes(condemned)
        gathered = bytearray(n)
        drained = bytearray(n)
        vals: list[list[float]] = [[] for _ in range(n)]

        def gather(i: int) -> list[float]:
            row = sorted(
                ps[j]
                for j in range(rf[i], rf[i + 1])
                if not outside[ids[j]] and not drained[ids[j]]
            )
            vals[i] = row
            gathered[i] = 1
            return row

        stack: list[int] = []
        for i in _frontier_seeds(cpg, frontier, condemned):
            if below(gather(i)):
                if is_fixed[i]:
                    return None
                condemned[i] = 1
                stack.append(i)

        while stack:
            u = stack.pop()
            drained[u] = 1
            for j in range(rf[u], rf[u + 1]):
                v = ids[j]
                if condemned[v]:
                    continue
                if not gathered[v]:
                    # Trusted member touched for the first time: the
                    # fresh gather already excludes u (just drained).
                    if below(gather(v)):
                        if is_fixed[v]:
                            return None
                        condemned[v] = 1
                        stack.append(v)
                    continue
                vv = vals[v]
                idx = bisect_left(vv, ps[j])
                vv.pop(idx)
                if idx <= len(vv) - k:
                    continue
                if below(vv):
                    if is_fixed[v]:
                        return None
                    condemned[v] = 1
                    stack.append(v)

        return frozenset(
            nodes[i] for i in range(n) if not condemned[i]
        )

    # Phase 1 — prefilter on the pristine full rows.  pi_k over the
    # whole row upper-bounds pi_k under any node removals (probabilities
    # only leave the top-k window), so a node below tau on its full row
    # is below tau in every restriction: condemning it is sound for the
    # full peel and for any members= subset.  On the registry graphs
    # this one pass settles ~95% of nodes without copying a row or
    # popping a value; phase-1 losers never enter the worklist, so the
    # drain below never walks their edges either — their absence is
    # baked into the phase-2 gather instead.
    asc_rows = cpg.asc_rows
    for i in range(n):
        if condemned[i]:
            continue
        if below(asc_rows[i]):
            if is_fixed[i]:
                return None
            condemned[i] = 1

    # Phase 2 — ascending sorted *live* probabilities for the remnant
    # (the exact state the reference peel keeps), gathered before any
    # further condemnation so the drain's bisect-pops stay consistent.
    vals: list[list[float]] = [[] for _ in range(n)]
    for i in range(n):
        if condemned[i]:
            continue
        vals[i] = sorted(
            ps[j]
            for j in range(rf[i], rf[i + 1])
            if not condemned[ids[j]]
        )

    stack: list[int] = []
    for i in range(n):
        if condemned[i]:
            continue
        if below(vals[i]):
            if is_fixed[i]:
                return None
            condemned[i] = 1
            stack.append(i)

    while stack:
        u = stack.pop()
        for j in range(rf[u], rf[u + 1]):
            v = ids[j]
            if condemned[v]:
                continue
            vv = vals[v]
            idx = bisect_left(vv, ps[j])
            vv.pop(idx)
            # The top-k product reads only the last k entries; removing
            # a value strictly below that window leaves v's survival
            # unchanged, so the recheck is skipped (equal floats are
            # interchangeable in a product, so the bisect removal is
            # safe for duplicates).
            if idx <= len(vv) - k:
                continue
            if below(vv):
                if is_fixed[v]:
                    return None
                condemned[v] = 1
                stack.append(v)

    return frozenset(nodes[i] for i in range(n) if not condemned[i])
