"""Property-based parity: the production search vs the reference oracle.

Every query runs one production path: compiled peels, the absorbing
pivot kernel on every component up to ``KERNEL_COMPONENT_LIMIT`` (one
sub-problem view per vertex of a degeneracy order above it), and the
compiled MaxUC+.  These properties check it against
:mod:`repro.reference` — the dict-based peels and the dict MUC
recursion on every component:

* enumeration yields the reference's clique *set*, each clique exactly
  once, with the same pre-search counters — also when the kernel limit
  is forced below the component sizes, so the decomposition runs;
* the maximum search returns a valid (k, tau)-clique of the reference's
  size, and never pivots — decomposed or not;
* the one-shot and session maximum searches return the identical
  clique with identical counters.

The generated graphs deliberately stress the known hazards:

* duplicate edge probabilities (the dict in-search peel removes sorted
  values by bisect; the kernel indexes by node id — interchangeable only
  because equal floats multiply identically);
* non-integer node labels mixed with integers (the deterministic node
  order sorts by type name first, so mixed labels exercise the compile
  step's ordering);
* thresholds around knife-edge products (tau values from tiny to large
  against a small probability palette).
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from dataclasses import asdict
from typing import Iterator

import pytest
from hypothesis import given, settings, strategies as st

import repro.core.enumeration as enumeration_mod
from repro import UncertainGraph, is_k_tau_clique
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from repro.core.session import PreparedGraph
from repro import reference

# A small palette forces many duplicate probabilities in one graph.
PROBABILITY_PALETTE = (0.25, 0.4, 0.4, 0.5, 0.7, 0.7, 0.9, 1.0)
TAUS = (0.01, 0.1, 0.3, 0.6)


def _labels(n: int, mixed: bool) -> list[object]:
    if not mixed:
        return list(range(n))
    # Half ints, half strings: exercises the (type name, str) node order.
    return [i if i % 2 == 0 else f"n{i}" for i in range(n)]


@st.composite
def uncertain_graphs(draw: st.DrawFn) -> UncertainGraph:
    n = draw(st.integers(min_value=0, max_value=12))
    mixed = draw(st.booleans())
    nodes = _labels(n, mixed)
    graph = UncertainGraph(nodes=nodes)
    for u, v in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            probability = draw(st.sampled_from(PROBABILITY_PALETTE))
            graph.add_edge(u, v, probability)
    return graph


@contextmanager
def patched(name: str, value: int) -> Iterator[None]:
    """Set an enumeration-module knob for the duration of the block."""
    original = getattr(enumeration_mod, name)
    setattr(enumeration_mod, name, value)
    try:
        yield
    finally:
        setattr(enumeration_mod, name, original)


PRE_SEARCH = (
    "nodes_after_pruning", "components", "cuts_found", "cut_edges_removed",
)


def assert_same_cliques(
    found: list[frozenset[object]],
    stats: EnumerationStats,
    expected: list[frozenset[object]],
    expected_stats: EnumerationStats,
) -> None:
    assert len(found) == len(set(found))  # no duplicate emissions
    assert set(found) == set(expected)
    assert stats.cliques == expected_stats.cliques == len(expected)
    for field in PRE_SEARCH:
        assert getattr(stats, field) == getattr(expected_stats, field)


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
    cut=st.booleans(),
)
def test_enumeration_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    stats = EnumerationStats()
    found = list(
        maximal_cliques(graph, k, tau, cut=cut, insearch=insearch, stats=stats)
    )
    assert stats.decomposed_components == stats.subproblems == 0
    oracle_stats = EnumerationStats()
    oracle = reference.maximal_cliques(
        graph, k, tau, cut=cut, insearch=insearch, stats=oracle_stats
    )
    assert_same_cliques(found, stats, oracle, oracle_stats)


@settings(max_examples=40, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_enumeration_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search peel runs at every search call, so the
    # kernel's mask peel and the reference's sorted-list peel are
    # compared on every recursion level, duplicates included.
    with patched("_INSEARCH_MIN_CANDIDATES", 0):
        stats = EnumerationStats()
        found = list(maximal_cliques(graph, k, tau, stats=stats))
        oracle_stats = EnumerationStats()
        oracle = reference.maximal_cliques(graph, k, tau, stats=oracle_stats)
    assert_same_cliques(found, stats, oracle, oracle_stats)


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
)
def test_maximum_engines_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool
) -> None:
    stats = MaximumSearchStats()
    best = max_uc_plus(graph, k, tau, stats=stats, insearch=insearch)
    oracle = reference.max_uc_plus(graph, k, tau, insearch=insearch)
    if oracle is None:
        assert best is None
    else:
        assert best is not None and len(best) == len(oracle)
        assert is_k_tau_clique(graph, best, k, tau)
    # The branch-and-bound's DFS-first answer depends on branch order,
    # so the maximum search never pivots.
    assert stats.pivot_branches == 0
    assert stats.pivot_skipped == 0


@settings(max_examples=40, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_maximum_pivot_is_exactly_bitset(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # The branch-and-bound's DFS-first output depends on branch order,
    # so every maximum query runs the exact non-pivoting bitset search:
    # the one-shot call and a session's cold and warm calls return the
    # identical clique with identical counters, pivot counters pinned
    # to zero.
    stats = MaximumSearchStats()
    best = max_uc_plus(graph, k, tau, stats=stats)
    session = PreparedGraph(graph)
    for _ in ("cold", "warm"):
        session_stats = MaximumSearchStats()
        assert session.max_uc_plus(k, tau, stats=session_stats) == best
        assert asdict(session_stats) == asdict(stats)
    assert stats.pivot_branches == 0
    assert stats.pivot_skipped == 0


def test_oversized_component_is_decomposed() -> None:
    # With the kernel limit below the component size, the K6 must be
    # decomposed — counted in decomposed_components — and still yield
    # the reference's cliques.
    graph = UncertainGraph()
    for u, v in itertools.combinations(range(6), 2):
        graph.add_edge(u, v, 0.9)
    oracle = set(reference.maximal_cliques(graph, 2, 0.3))
    assert oracle  # a K6 at tau=0.3 must produce output

    compiled_stats = EnumerationStats()
    compiled = set(maximal_cliques(graph, 2, 0.3, stats=compiled_stats))
    with patched("KERNEL_COMPONENT_LIMIT", 3):
        forced_stats = EnumerationStats()
        forced = list(maximal_cliques(graph, 2, 0.3, stats=forced_stats))
    assert compiled_stats.decomposed_components == 0
    assert forced_stats.decomposed_components == 1
    # Vertices 0..3 each have at least two later neighbours.
    assert forced_stats.subproblems == 4
    assert len(forced) == len(set(forced))
    assert compiled == set(forced) == oracle


def assert_decomposed(stats: EnumerationStats, found: bool) -> None:
    """Counters of a run with the kernel limit forced to zero: every
    component big enough to search was decomposed, and a clique can only
    come out of a searched sub-problem."""
    assert stats.decomposed_components <= stats.components
    if found:
        assert stats.decomposed_components >= 1
        assert stats.subproblems >= 1


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
    cut=st.booleans(),
    limit=st.sampled_from((0, 2, 3)),
)
def test_pivot_engine_set_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool,
    limit: int,
) -> None:
    # The decomposition against the oracle: with the limit forced below
    # the component sizes, components run as degeneracy sub-problems
    # inside the production pipeline.
    with patched("KERNEL_COMPONENT_LIMIT", limit):
        stats = EnumerationStats()
        found = list(
            maximal_cliques(
                graph, k, tau, cut=cut, insearch=insearch, stats=stats,
            )
        )
    oracle_stats = EnumerationStats()
    oracle = reference.maximal_cliques(
        graph, k, tau, cut=cut, insearch=insearch, stats=oracle_stats
    )
    assert_same_cliques(found, stats, oracle, oracle_stats)
    if limit == 0:
        assert_decomposed(stats, bool(found))


@settings(max_examples=40, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_pivot_set_identical_with_forced_insearch_gate(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    # Gate at zero: the in-search peel runs at every pivot recursion
    # node, so the leaf-first ordering (leaves must emit before the
    # gate can peel an empty candidate set) is exercised everywhere —
    # also inside the sub-problem views, whose witnesses the peel must
    # never treat as members.
    with patched("_INSEARCH_MIN_CANDIDATES", 0):
        with patched("KERNEL_COMPONENT_LIMIT", 0):
            stats = EnumerationStats()
            found = list(maximal_cliques(graph, k, tau, stats=stats))
        oracle_stats = EnumerationStats()
        oracle = reference.maximal_cliques(graph, k, tau, stats=oracle_stats)
    assert_same_cliques(found, stats, oracle, oracle_stats)
    assert_decomposed(stats, bool(found))


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
    limit=st.sampled_from((0, 2, 3)),
)
def test_decomposed_maximum_matches_reference(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, limit: int
) -> None:
    with patched("KERNEL_COMPONENT_LIMIT", limit):
        stats = MaximumSearchStats()
        best = max_uc_plus(graph, k, tau, stats=stats, insearch=insearch)
        session = PreparedGraph(graph)
        for _ in ("cold", "warm"):
            session_stats = MaximumSearchStats()
            assert session.max_uc_plus(
                k, tau, stats=session_stats, insearch=insearch
            ) == best
            assert asdict(session_stats) == asdict(stats)
    oracle = reference.max_uc_plus(graph, k, tau, insearch=insearch)
    if oracle is None:
        assert best is None
    else:
        assert best is not None and len(best) == len(oracle)
        assert is_k_tau_clique(graph, best, k, tau)
    assert stats.pivot_branches == stats.pivot_skipped == 0
    if limit == 0 and best is not None:
        assert stats.decomposed_components >= 1
        assert stats.subproblems >= 1


def _duplicate_probability_graph() -> UncertainGraph:
    # Every edge shares one probability value: any bisect-by-value
    # removal in the dict peels hits an arbitrary duplicate, which must
    # not matter.  Star spokes die under the (Top_2, tau)-core, the
    # triangle survives.
    graph = UncertainGraph()
    for spoke in ("s1", "s2", "s3"):
        graph.add_edge("hub", spoke, 0.6)
    graph.add_edge("hub", "t1", 0.6)
    for u, v in itertools.combinations(("t1", "t2", "t3"), 2):
        graph.add_edge(u, v, 0.6)
    return graph


@pytest.mark.parametrize("engine", ["decomposed", "pivot", "reference"])
def test_duplicate_probability_peel_is_engine_independent(
    engine: str,
) -> None:
    # "decomposed" is the production pipeline with the limit forced to
    # zero, "pivot" the compiled kernel on whole components,
    # "reference" the oracle driver with the dict peels.
    graph = _duplicate_probability_graph()
    if engine == "reference":
        found = reference.maximal_cliques(graph, 2, 0.2)
    else:
        limit = 0 if engine == "decomposed" else enumeration_mod.KERNEL_COMPONENT_LIMIT
        with patched("KERNEL_COMPONENT_LIMIT", limit):
            found = list(maximal_cliques(graph, 2, 0.2))
    assert sorted(found, key=sorted) == [frozenset({"t1", "t2", "t3"})]


# ----------------------------------------------------------------------
# Pinned decomposition cases
# ----------------------------------------------------------------------

def _small_graphs() -> list[UncertainGraph]:
    edge = UncertainGraph(nodes=[0, 1])
    edge.add_edge(0, 1, 0.5)
    pair = UncertainGraph(nodes=[0, 1])  # no edge: two singletons
    path = UncertainGraph(nodes=[0, 1, 2])
    path.add_edge(0, 1, 0.5)
    path.add_edge(1, 2, 0.9)
    triangle = UncertainGraph(nodes=[0, 1, 2])
    for u, v in itertools.combinations(range(3), 2):
        triangle.add_edge(u, v, 0.7)
    return [edge, pair, path, triangle]


@pytest.mark.parametrize("graph_index", range(4))
@pytest.mark.parametrize("k", [0, 1])
@pytest.mark.parametrize("tau", [0.1, 0.4, 0.6])
@pytest.mark.parametrize("limit", [0, 1, 2])
def test_tiny_graphs_witness_filter(
    graph_index: int, k: int, tau: float, limit: int
) -> None:
    # k = 0 and k = 1 make min_size - 1 <= 0 for the witness filter:
    # every earlier strong neighbour must stay a witness, or a 2-node
    # graph at k = 0 would emit {1} beside {0, 1}.
    graph = _small_graphs()[graph_index]
    with patched("KERNEL_COMPONENT_LIMIT", limit):
        for pruning in ("topk", "none"):
            stats = EnumerationStats()
            found = list(maximal_cliques(
                graph, k, tau, pruning=pruning, cut=pruning == "topk",
                stats=stats,
            ))
            oracle_stats = EnumerationStats()
            oracle = reference.maximal_cliques(
                graph, k, tau, pruning=pruning, cut=pruning == "topk",
                stats=oracle_stats,
            )
            assert_same_cliques(found, stats, oracle, oracle_stats)
            best = max_uc_plus(graph, k, tau)
            expected = reference.max_uc_plus(graph, k, tau)
            assert (best is None) == (expected is None)
            if best is not None and expected is not None:
                assert len(best) == len(expected)


def test_k0_edge_emits_only_the_edge() -> None:
    graph = _small_graphs()[0]
    with patched("KERNEL_COMPONENT_LIMIT", 0):
        found = list(maximal_cliques(graph, 0, 0.4, pruning="none"))
    assert found == [frozenset({0, 1})]


def _hub_graph() -> UncertainGraph:
    # A hub with five pendant spokes and a triangle: after the spokes
    # peel, the hub and the triangle form a K4 whose vertices all have
    # strong degree 3, so the hub ("h" sorts first) comes first in the
    # degeneracy order.  The triangle's own sub-problem (t1's) can only
    # learn that {t1, t2, t3} is not maximal from the hub — its one
    # witness, which comes earlier.
    graph = UncertainGraph()
    for i in range(1, 6):
        graph.add_edge("h", f"l{i}", 0.9)
    for t in ("t1", "t2", "t3"):
        graph.add_edge("h", t, 0.9)
    for u, v in itertools.combinations(("t1", "t2", "t3"), 2):
        graph.add_edge(u, v, 0.9)
    return graph


def test_hub_witness_earlier_in_degeneracy_order() -> None:
    from repro.core.decompose import plan_decomposition
    from repro.core.prune_kernel import compile_graph

    graph = _hub_graph()
    plan = plan_decomposition(
        compile_graph(graph), list(graph.nodes()), 3, 0.3
    )
    by_root = {
        plan.nodes[sub.cands[sub.root]]: sub for sub in plan.subproblems
    }
    assert set(by_root) == {"h", "t1"}
    t1 = by_root["t1"]
    assert [plan.nodes[g] for g in t1.cands] == ["t1", "t2", "t3"]
    assert [plan.nodes[g] for g in t1.witnesses] == ["h"]

    k4 = frozenset({"h", "t1", "t2", "t3"})
    for pruning in ("none", "topk"):
        oracle = reference.maximal_cliques(
            graph, 2, 0.3, pruning=pruning, cut=False
        )
        with patched("KERNEL_COMPONENT_LIMIT", 0):
            stats = EnumerationStats()
            found = list(maximal_cliques(
                graph, 2, 0.3, pruning=pruning, cut=False, stats=stats,
            ))
        assert found == oracle == [k4]
        assert stats.decomposed_components == 1


def test_duplicate_and_certain_edges_decompose() -> None:
    # p == 1.0 edges multiply exactly and duplicate probabilities tie in
    # every row sort; the decomposition must still match the oracle.
    graph = UncertainGraph()
    for u, v in itertools.combinations(range(5), 2):
        graph.add_edge(u, v, 1.0)
    for u, v in itertools.combinations(range(4, 9), 2):
        if (u, v) != (4, 5):
            graph.add_edge(u, v, 0.5)
    graph.add_edge(2, 7, 0.5)
    graph.add_edge(3, 7, 0.5)
    for k in (0, 1, 2, 3):
        for tau in (0.01, 0.0625, 0.25, 1.0):
            with patched("KERNEL_COMPONENT_LIMIT", 0):
                stats = EnumerationStats()
                found = list(maximal_cliques(graph, k, tau, stats=stats))
                best = max_uc_plus(graph, k, tau)
            oracle_stats = EnumerationStats()
            oracle = reference.maximal_cliques(
                graph, k, tau, stats=oracle_stats
            )
            assert_same_cliques(found, stats, oracle, oracle_stats)
            expected = reference.max_uc_plus(graph, k, tau)
            assert (best is None) == (expected is None)
            if best is not None and expected is not None:
                assert len(best) == len(expected)
                assert is_k_tau_clique(graph, best, k, tau)


@pytest.mark.parametrize("first", ["enumeration", "maximum"])
def test_session_plans_once_for_both_searches(
    first: str, monkeypatch: pytest.MonkeyPatch
) -> None:
    # Enumeration and maximum queries at one (k, tau) search the same
    # components, so a session plans each decomposed component once,
    # whichever query comes first, and answers as the one-shot calls do.
    import repro.core.pipeline as pipeline_mod

    calls: list[int] = []
    plan = pipeline_mod.plan_decomposition

    def counting(*args: object) -> object:
        calls.append(1)
        return plan(*args)  # type: ignore[arg-type]

    monkeypatch.setattr(pipeline_mod, "plan_decomposition", counting)
    graph = _hub_graph()
    with patched("KERNEL_COMPONENT_LIMIT", 0):
        expected_cliques = list(maximal_cliques(graph, 2, 0.3))
        expected_best = max_uc_plus(graph, 2, 0.3)
        calls.clear()
        session = PreparedGraph(graph)
        for query in (first, "enumeration", "maximum"):
            if query == "enumeration":
                assert list(session.maximal_cliques(2, 0.3)) == expected_cliques
            else:
                assert session.max_uc_plus(2, 0.3) == expected_best
    assert expected_cliques == [frozenset({"h", "t1", "t2", "t3"})]
    assert len(calls) == 1
