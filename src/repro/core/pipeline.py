"""Composable stages of the clique-search flow: prune, cut, compile, search.

The monolithic drivers (``maximal_cliques``, ``max_uc_plus``) are decomposed
here into explicit stages, each a pure function from graph state and
parameters to a deterministic artifact:

* :func:`prune_stage` — core-based preprocessing (Lemmas 1 and 4); returns
  the surviving nodes **in graph iteration order**, so the artifact is
  reproducible no matter which cached seed the session layer supplied.
* :func:`cut_stage` — cut optimization / component split (Lemma 5) over
  the :func:`compile_stage` artifact; returns the component subgraphs plus
  the counters the stats objects report.
* :func:`compile_stage` — the **single whole-graph lowering**: one
  parameter-free :class:`~repro.core.prune_kernel.CompiledGraph` per graph
  version serves the prune peels *and* the per-component search views, so
  a cold query compiles the graph exactly once.
* :func:`compile_enumeration_stage` / :func:`compile_maximum_stage` —
  per-component search preparation: the picklable
  :class:`~repro.core.kernel.CompiledComponent` views (plus color arrays
  for the maximum search), *derived* from the :func:`compile_stage`
  artifact (member-filtered rows, no recompilation).
* :func:`enumeration_search_stage` / :func:`maximum_search_stage` — the
  actual search, sequential or process-parallel, consuming the compile
  artifacts.

Stage artifacts carry **no counters and no wall clocks** — those belong to
the per-run stats objects, which the search stages fill identically on
every run.  That split is what makes memoization sound: replaying a cached
artifact through the search stage yields bit-identical cliques, yield
order, and stats counters to a cold run.

Inside :mod:`repro.core` the only intended caller is the session layer
(:class:`repro.core.session.PreparedGraph`), which memoizes the artifacts
keyed by the graph's :attr:`~repro.uncertain.graph.UncertainGraph.version`;
repro-lint rule RPL007 flags direct stage calls that bypass it.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import AbstractSet, Iterator, Sequence

from repro.core.cut_pruning import compiled_cut, component_pieces
from repro.core.enumeration import EnumerationStats, _muc_component
from repro.core.kernel import (
    CompiledComponent,
    derive_component_view,
    enum_root_prep,
    enumerate_pivot_range,
    maximum_compiled,
    pivot_root_plan,
)
from repro.core.maximum import MaximumSearchStats
from repro.core.prune_kernel import (
    CompiledGraph,
    compile_graph,
    survival_peel,
    topk_peel,
)
from repro.deterministic.coloring import greedy_coloring
from repro.uncertain.graph import Node, UncertainGraph
from repro.utils.timing import Stopwatch

__all__ = [
    "CutArtifact",
    "compile_stage",
    "prune_stage",
    "cut_stage",
    "compile_enumeration_stage",
    "compile_maximum_stage",
    "enumeration_search_stage",
    "maximum_search_stage",
]


# ----------------------------------------------------------------------
# Stage 0: compile (shared by prune and search)
# ----------------------------------------------------------------------

def compile_stage(graph: UncertainGraph) -> CompiledGraph:
    """Lower the graph into the unified flat-CSR artifact **once**.

    Parameter-free (no ``k``, no ``tau``): one compile per graph version
    serves every prune of every query *and* every search-view derivation,
    which is why the session layer memoizes this artifact under
    ``(version, "compile")`` and hands it to each :func:`prune_stage`
    call — including the monotone-seeded peels, which replay over the
    same arrays via ``members=`` — and to the search compile stages,
    which derive their per-component :class:`CompiledComponent` views
    from the whole-graph rows instead of recompiling the subgraphs.
    """
    return compile_graph(graph)


def prune_stage(
    graph: UncertainGraph,
    k: int,
    tau: float,
    rule: str,
    compiled: CompiledGraph | None = None,
    members: Sequence[Node] | None = None,
) -> tuple[Node, ...]:
    """Core-based preprocessing: the nodes surviving ``rule`` at (k, tau).

    ``rule`` is ``"topk"`` ((Top_k, tau)-core, Lemma 4), ``"ktau"``
    ((k, tau)-core via DPCore+, Lemma 1) or ``"none"``.  The survivors are
    returned as a tuple **in the iteration order of ``graph``** — both
    peels produce the same unique fixpoint *set* whichever cached seed
    the session layer supplied, and normalizing the order makes the
    artifact independent of the peel's internal set layout, so a cached
    artifact reproduces a cold run's downstream component order exactly.

    ``compiled`` supplies the :func:`compile_stage` artifact the peels
    replay over, and ``members`` restricts the peel to a node subset
    (the session's monotone seed) without building an induced subgraph.
    """
    if rule == "none":
        return tuple(graph.nodes())
    if compiled is None:
        compiled = compile_graph(graph)
    survivors: AbstractSet[Node]
    if rule == "topk":
        peeled = topk_peel(compiled, k, tau, members=members)
        assert peeled is not None  # no fixed set -> never aborts
        survivors = peeled
    elif rule == "ktau":
        survivors = survival_peel(compiled, k, tau, members=members)
    else:
        raise ValueError(f"unknown pruning rule {rule!r}")
    if members is None and len(survivors) == graph.num_nodes:
        return tuple(graph.nodes())
    return tuple(u for u in graph if u in survivors)


# ----------------------------------------------------------------------
# Stage 2: cut
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class CutArtifact:
    """Outcome of :func:`cut_stage`, ready for memoization.

    ``components`` are independent induced subgraphs (never mutated by the
    search stages, so they can be replayed across runs); the counter
    fields carry everything the enumeration stats report about the
    pre-search phases, so a warm run fills its stats object identically
    to the cold run that built the artifact.
    """

    components: tuple[UncertainGraph, ...]
    cuts_found: int
    edges_removed: int
    nodes_after_pruning: int


def cut_stage(
    graph: UncertainGraph,
    compiled: CompiledGraph,
    members: Sequence[Node],
    k: int,
    tau: float,
    cut: bool,
) -> CutArtifact:
    """Split the subgraph induced by ``members`` into search components
    (Lemma 5).

    With ``cut=True`` runs the cut-based optimization over ``compiled``
    (the :func:`compile_stage` artifact of ``graph``) without building
    any intermediate subgraph; otherwise a plain connected-component
    split.  ``members`` should be in graph iteration order; each final
    piece becomes one induced subgraph of ``graph``, members in graph
    order.
    """
    if cut:
        split = compiled_cut(compiled, members, k, tau)
        pieces = split.pieces
        cuts_found = split.cuts_found
        edges_removed = split.edges_removed
    else:
        pieces = component_pieces(compiled, members)
        cuts_found = edges_removed = 0
    return CutArtifact(
        components=tuple(graph.induced_subgraph(piece) for piece in pieces),
        cuts_found=cuts_found,
        edges_removed=edges_removed,
        nodes_after_pruning=len(members),
    )


# ----------------------------------------------------------------------
# Stage 3: compile
# ----------------------------------------------------------------------

def _component_view(
    component: UncertainGraph, artifact: CompiledGraph
) -> CompiledComponent:
    """The search view of one component, derived from the whole-graph
    artifact (member-filtered rows, no recompilation — sound because
    pruning removes nodes only and every cut edge crosses component
    boundaries)."""
    return derive_component_view(artifact, list(component.nodes()))


def compile_enumeration_stage(
    components: Sequence[UncertainGraph],
    min_size: int,
    component_limit: int,
    artifact: CompiledGraph,
) -> tuple[CompiledComponent | None, ...]:
    """Derive the view of each component the pivot kernel will search.

    One slot per component, in order: a picklable
    :class:`~repro.core.kernel.CompiledComponent` when the component is
    searchable by the compiled kernel (``min_size <= n <= limit``), else
    ``None`` — the search stage re-derives *why* a slot is ``None`` from
    the component size (too small: skipped; too large: the ``_muc``
    fallback).  ``artifact`` is the :func:`compile_stage` whole-graph
    lowering the views are projected from.
    """
    compiled: list[CompiledComponent | None] = []
    for component in components:
        if min_size <= component.num_nodes <= component_limit:
            compiled.append(_component_view(component, artifact))
        else:
            compiled.append(None)
    return tuple(compiled)


def _maximum_entry(
    component: UncertainGraph, artifact: CompiledGraph
) -> tuple[CompiledComponent, list[int]]:
    """A component's view plus its greedy coloring in view id order."""
    comp = _component_view(component, artifact)
    coloring = greedy_coloring(component)
    return comp, [coloring[u] for u in comp.nodes]


def compile_maximum_stage(
    components: Sequence[UncertainGraph],
    k: int,
    artifact: CompiledGraph,
) -> tuple[tuple[CompiledComponent, list[int]] | None, ...]:
    """Eagerly compile each component the maximum search could visit.

    A component can only be searched when it beats the starting incumbent
    (``n > k``); eligible slots hold the compiled component plus its
    greedy-coloring mapped onto the compiled node order (the exact pair
    :func:`repro.core.kernel.maximum_compiled` consumes and the parallel
    layer ships to workers).

    This is the eager whole-front variant; the session layer instead
    memoizes on demand through :func:`maximum_search_stage`, because the
    sequential search skips components the growing incumbent dominates
    and never needs their compile.
    """
    return tuple(
        _maximum_entry(component, artifact)
        if component.num_nodes > k else None
        for component in components
    )


# ----------------------------------------------------------------------
# Stage 4: search
# ----------------------------------------------------------------------

def _timed_search(
    found: Iterator[frozenset[Node]], timings: Stopwatch
) -> Iterator[frozenset[Node]]:
    """Re-yield ``found``, adding the time spent *inside* it — not the
    consumer's time between items — to the ``"search"`` lap.  The lap is
    recorded even when the consumer abandons the generator early."""
    spent = 0.0
    t_start = perf_counter()
    try:
        for clique in found:
            spent += perf_counter() - t_start
            yield clique
            t_start = perf_counter()
        spent += perf_counter() - t_start
    finally:
        timings.add("search", spent)


def enumeration_search_stage(
    components: Sequence[UncertainGraph],
    compiled: Sequence[CompiledComponent | None],
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    n_jobs: int,
    component_limit: int,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """Run the per-component enumeration over the compile artifacts.

    Components are searched in order: a compiled view through the pivot
    kernel, a component above ``component_limit`` through the ``_muc``
    dict recursion (counted in ``stats.fallback_components``), and
    ``n_jobs > 1`` through the deterministic-merge parallel layer, which
    yields the sequential sequence.  All counters accrue to ``stats`` on
    every run (they are never part of a cached artifact).
    """
    if n_jobs > 1:
        from repro.core.parallel import enumerate_parallel

        yield from _timed_search(
            enumerate_parallel(
                components, compiled, k, tau_floor, min_size, insearch,
                insearch_min_candidates, component_limit, n_jobs, stats,
            ),
            stats.timings,
        )
        return

    for ordinal, component in enumerate(components):
        if component.num_nodes < min_size:
            continue
        if component.num_nodes > component_limit:
            # Size-selected fallback: the dict recursion, interleaved
            # with the consumer.
            yield from _timed_search(
                _muc_component(
                    component, k, tau_floor, min_size, insearch, stats
                ),
                stats.timings,
            )
            continue
        comp = compiled[ordinal]
        assert comp is not None  # min_size <= n <= component_limit
        t_start = perf_counter()
        out: list[frozenset[Node]] = []
        cands = enum_root_prep(
            comp, k, tau_floor, min_size, insearch,
            insearch_min_candidates, stats,
        )
        if cands is not None:
            branches = pivot_root_plan(
                comp, k, tau_floor, min_size, cands, stats,
            )
            out = enumerate_pivot_range(
                comp, k, tau_floor, min_size, insearch,
                insearch_min_candidates, cands, branches,
                0, len(branches), stats,
            )
        stats.timings.add("search", perf_counter() - t_start)
        yield from out


def _compiled_maximum_entry(
    memo: dict[int, tuple[CompiledComponent, list[int]]] | None,
    ordinal: int,
    component: UncertainGraph,
    stats: MaximumSearchStats,
    artifact: CompiledGraph,
) -> tuple[CompiledComponent, list[int]]:
    """The (compiled component, color list) pair for one component,
    derived on demand and memoized.

    Derivation stays **lazy with respect to the evolving incumbent**:
    a component is only compiled once the search actually reaches it
    with ``n > best_size``.  An eager compile-everything stage would pay
    derivation and coloring for every component a growing incumbent
    later skips.
    """
    entry = memo.get(ordinal) if memo is not None else None
    if entry is None:
        t_start = perf_counter()
        entry = _maximum_entry(component, artifact)
        stats.timings.add("compile", perf_counter() - t_start)
        if memo is not None:
            memo[ordinal] = entry
    return entry


def maximum_search_stage(
    components: Sequence[UncertainGraph],
    compiled: dict[int, tuple[CompiledComponent, list[int]]] | None,
    k: int,
    tau_floor: float,
    min_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    n_jobs: int,
    stats: MaximumSearchStats,
    artifact: CompiledGraph,
) -> tuple[list[Node] | None, int]:
    """Run the MaxUC+ component loop, compiling on demand into the memo.

    Returns ``(best, best_size)``: components in order under the evolving
    incumbent, each through :func:`repro.core.kernel.maximum_compiled`,
    ``n_jobs > 1`` through the two-phase speculative parallel layer.

    ``compiled`` is a mutable memo dict (ordinal -> compile artifact),
    filled lazily as the incumbent chain reaches components — the
    session layer caches the dict object, so a warm run finds the cold
    run's entries and the cold run never compiles a component the
    incumbent skips.  The search path is deterministic, so which
    ordinals get filled is too.  Pass ``None`` to disable memoization.
    """
    if n_jobs > 1:
        from repro.core.parallel import maximum_parallel

        # The speculative phase A searches every eligible component, so
        # the full precompile is real work, not waste; route it through
        # the memo so a sequential warm run still benefits.
        precompiled: list[tuple[CompiledComponent, list[int]] | None] = [
            _compiled_maximum_entry(compiled, ordinal, component, stats,
                                    artifact)
            if component.num_nodes > k
            else None
            for ordinal, component in enumerate(components)
        ]
        t_start = perf_counter()
        result = maximum_parallel(
            components, precompiled, k, tau_floor, min_size,
            use_advanced_one, use_advanced_two, insearch, n_jobs, stats,
        )
        stats.timings.add("search", perf_counter() - t_start)
        return result

    best: list[Node] | None = None
    best_size = k
    for ordinal, component in enumerate(components):
        if component.num_nodes <= best_size:
            continue
        comp, color = _compiled_maximum_entry(
            compiled, ordinal, component, stats, artifact
        )
        t_start = perf_counter()
        improved, best_size = maximum_compiled(
            comp, color, k, tau_floor, min_size, best_size,
            use_advanced_one, use_advanced_two, insearch, stats,
        )
        stats.timings.add("search", perf_counter() - t_start)
        if improved is not None:
            best = improved
    return best, best_size
