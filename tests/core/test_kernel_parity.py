"""Property-based parity: the production search vs the reference oracle.

Every query runs one production path: compiled peels, the absorbing
pivot kernel on every component up to ``KERNEL_COMPONENT_LIMIT`` (the
dict recursion ``_muc`` above it), and the compiled MaxUC+.  These
properties check it against :mod:`repro.reference` — the dict-based
peels and the ``_muc`` recursion on every component:

* enumeration yields the reference's clique *set*, each clique exactly
  once, with the same pre-search counters — also when the kernel limit
  is forced below the component sizes, so the fallback runs;
* the maximum search returns a valid (k, tau)-clique of the reference's
  size, and never pivots;
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
    assert stats.fallback_components == 0
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


def test_oversized_component_routes_to_legacy_fallback() -> None:
    # With the kernel limit below the component size, the K6 must run
    # the _muc fallback — counted in fallback_components — and still
    # yield the reference's cliques.
    graph = UncertainGraph()
    for u, v in itertools.combinations(range(6), 2):
        graph.add_edge(u, v, 0.9)
    oracle = set(reference.maximal_cliques(graph, 2, 0.3))
    assert oracle  # a K6 at tau=0.3 must produce output

    compiled_stats = EnumerationStats()
    compiled = set(maximal_cliques(graph, 2, 0.3, stats=compiled_stats))
    with patched("KERNEL_COMPONENT_LIMIT", 3):
        fallback_stats = EnumerationStats()
        fallback = set(maximal_cliques(graph, 2, 0.3, stats=fallback_stats))
    assert compiled_stats.fallback_components == 0
    assert fallback_stats.fallback_components == 1
    assert compiled == fallback == oracle


@settings(max_examples=60, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
    insearch=st.booleans(),
    cut=st.booleans(),
)
def test_pivot_engine_set_identical(
    graph: UncertainGraph, k: int, tau: float, insearch: bool, cut: bool
) -> None:
    # The pivot kernel against the forced fallback: with the limit at
    # zero every component runs _muc inside the production pipeline.
    stats = EnumerationStats()
    found = list(
        maximal_cliques(graph, k, tau, cut=cut, insearch=insearch, stats=stats)
    )
    with patched("KERNEL_COMPONENT_LIMIT", 0):
        fallback_stats = EnumerationStats()
        fallback = list(
            maximal_cliques(
                graph, k, tau, cut=cut, insearch=insearch,
                stats=fallback_stats,
            )
        )
    assert_same_cliques(found, stats, fallback, fallback_stats)
    assert fallback_stats.pivot_branches == fallback_stats.pivot_skipped == 0


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
    # gate can peel an empty candidate set) is exercised everywhere.
    with patched("_INSEARCH_MIN_CANDIDATES", 0):
        stats = EnumerationStats()
        found = list(maximal_cliques(graph, k, tau, stats=stats))
        with patched("KERNEL_COMPONENT_LIMIT", 0):
            fallback_stats = EnumerationStats()
            fallback = list(maximal_cliques(graph, k, tau, stats=fallback_stats))
    assert_same_cliques(found, stats, fallback, fallback_stats)


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


@pytest.mark.parametrize("engine", ["legacy", "pivot", "reference"])
def test_duplicate_probability_peel_is_engine_independent(
    engine: str,
) -> None:
    # "legacy" is the _muc recursion as the production fallback (limit
    # forced to zero), "pivot" the compiled kernel, "reference" the
    # oracle driver with the dict peels.
    graph = _duplicate_probability_graph()
    if engine == "reference":
        found = reference.maximal_cliques(graph, 2, 0.2)
    else:
        limit = 0 if engine == "legacy" else enumeration_mod.KERNEL_COMPONENT_LIMIT
        with patched("KERNEL_COMPONENT_LIMIT", limit):
            found = list(maximal_cliques(graph, 2, 0.2))
    assert sorted(found, key=sorted) == [frozenset({"t1", "t2", "t3"})]
