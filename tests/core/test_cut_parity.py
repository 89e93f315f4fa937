"""Parity: the compiled cut vs the dict-based reference cut.

The production cut (:func:`repro.core.cut_pruning.compiled_cut`) runs
over the compiled graph and drops edges by piece labels; the reference
(:func:`repro.reference.cut.cut_optimize`) deletes them from a working
copy.  Under the shared deterministic start rule both must emit the same
pieces — same members, same order — and the same ``cuts_found``,
``edges_removed`` and ``fringe_nodes_peeled``.  The generated graphs are
clusters joined by weak edges, so sweeps really find cuts, and they
stress:

* deterministic edges (``p == 1.0``) and duplicate probabilities (heap
  ties in the sweep, bisect removals in the fringe peel);
* disconnected inputs and isolated nodes;
* ``k = 0`` (nothing is ever low) and ``k = 1``;
* string labels mixed with ints (the order is graph order, not a sort);
* a ``members`` subset of a larger compiled graph (the session's path).
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro import UncertainGraph
from repro.core import pipeline
from repro.core.cut_pruning import compiled_cut, cut_optimize
from repro.core.prune_kernel import compile_graph, topk_peel
from repro.datasets.registry import DATASETS, load_dataset
from repro.reference.cut import cut_optimize as reference_cut

STRONG = (0.7, 0.8, 0.9, 0.9, 1.0, 1.0)
WEAK = (0.05, 0.1, 0.2, 0.2, 0.3)
TAUS = (0.05, 0.1, 0.2, 0.5)


@st.composite
def clustered_graphs(draw: st.DrawFn) -> UncertainGraph:
    """Dense clusters of mixed labels, joined by sparse weak edges."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    graph = UncertainGraph()
    clusters: list[list[object]] = []
    label = 0
    for size in sizes:
        cluster: list[object] = []
        for _ in range(size):
            cluster.append(label if label % 3 else f"n{label}")
            label += 1
        for node in cluster:
            graph.add_node(node)
        for u, v in itertools.combinations(cluster, 2):
            if draw(st.integers(0, 9)) < 8:
                graph.add_edge(u, v, draw(st.sampled_from(STRONG)))
        clusters.append(cluster)
    for a, b in itertools.combinations(clusters, 2):
        for u in a:
            for v in b:
                if draw(st.integers(0, 9)) < 2:
                    graph.add_edge(u, v, draw(st.sampled_from(WEAK)))
    if draw(st.booleans()):
        graph.add_node("isolated")
    return graph


def _pieces(result) -> list[list[object]]:
    return [component.nodes() for component in result.components]


def _counters(result) -> tuple[int, int, int]:
    return (
        result.cuts_found,
        result.edges_removed,
        result.fringe_nodes_peeled,
    )


def _assert_parity(graph: UncertainGraph, k: int, tau: float) -> None:
    compiled = cut_optimize(graph, k, tau)
    oracle = reference_cut(graph, k, tau)
    assert _pieces(compiled) == _pieces(oracle)
    assert _counters(compiled) == _counters(oracle)
    assert compiled.components == oracle.components


@settings(max_examples=150, deadline=None)
@given(
    graph=clustered_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_compiled_cut_matches_reference(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    _assert_parity(graph, k, tau)


@settings(max_examples=60, deadline=None)
@given(
    graph=clustered_graphs(),
    k=st.integers(min_value=1, max_value=3),
    tau=st.sampled_from(TAUS),
    data=st.data(),
)
def test_member_subset_matches_reference_on_induced_subgraph(
    graph: UncertainGraph, k: int, tau: float, data: st.DataObject
) -> None:
    nodes = graph.nodes()
    chosen = data.draw(
        st.sets(st.sampled_from(nodes)) if nodes else st.just(set())
    )
    members = [u for u in graph if u in chosen]
    artifact = pipeline.cut_stage(
        graph, compile_graph(graph), members, k, tau, True
    )
    oracle = reference_cut(graph.induced_subgraph(members), k, tau)
    assert [c.nodes() for c in artifact.components] == _pieces(oracle)
    assert artifact.cuts_found == oracle.cuts_found
    assert artifact.edges_removed == oracle.edges_removed
    assert list(artifact.components) == oracle.components


@pytest.mark.parametrize("k", [0, 1])
def test_low_k_on_a_weak_bridge(k: int) -> None:
    graph = UncertainGraph(
        edges=[
            ("a", "b", 1.0), ("b", "c", 1.0), ("a", "c", 0.9),
            ("c", 1, 0.05),
            (1, 2, 0.9), (2, 3, 0.9), (1, 3, 0.9),
        ]
    )
    _assert_parity(graph, k, 0.5)
    if k == 0:
        # pi_0 is 1.0: no cut is ever low.
        assert cut_optimize(graph, 0, 0.5).cuts_found == 0


def test_disconnected_input_pieces_in_graph_order() -> None:
    graph = UncertainGraph(
        edges=[(9, 8, 0.9), ("x", "y", 0.9), (8, 7, 0.9), (7, 9, 0.9)]
    )
    result = cut_optimize(graph, 1, 0.5)
    assert _pieces(result) == [[9, 8, 7], ["x", "y"]]
    _assert_parity(graph, 1, 0.5)


#: Found by search: at (1, 0.5) the sweep from ``"n0"`` sees no low
#: boundary, the sweep from ``7`` cuts ``{"n6", 7}`` off (1 cut, 3 edges).
START_RULE_NODES = ["n0", 1, 2, "n3", 4, 5, "n6", 7]
START_RULE_EDGES = [
    ("n0", 1, 0.7), ("n0", "n3", 0.3), ("n0", 2, 0.5), ("n0", "n6", 0.3),
    (1, "n6", 0.4), (2, "n3", 1.0), (2, 4, 0.9), (2, 5, 0.9),
    ("n3", 4, 0.8), ("n3", 5, 1.0), (4, 5, 1.0), (5, 7, 0.4),
    ("n6", 7, 0.8),
]


@pytest.mark.parametrize(
    "first,expected",
    [
        ("n0", ([START_RULE_NODES], (0, 0, 0))),
        (7, ([[7, "n6"], ["n0", 1, 2, "n3", 4, 5]], (1, 3, 0))),
    ],
)
def test_sweep_starts_at_the_first_node_in_graph_order(
    first: object, expected: tuple[list[list[object]], tuple[int, int, int]]
) -> None:
    # Same rows either way; only the first node in graph order differs.
    order = [first] + [u for u in START_RULE_NODES if u != first]
    graph = UncertainGraph(nodes=order, edges=START_RULE_EDGES)
    result = cut_optimize(graph, 1, 0.5)
    assert (_pieces(result), _counters(result)) == expected
    _assert_parity(graph, 1, 0.5)


@pytest.mark.parametrize("name", sorted(DATASETS))
@pytest.mark.parametrize("k,tau", [(4, 0.2), (10, 0.1)])
def test_registry_datasets_match_reference(
    name: str, k: int, tau: float
) -> None:
    graph = load_dataset(name)
    cpg = compile_graph(graph)
    survivors = topk_peel(cpg, k, tau)
    assert survivors is not None
    members = [u for u in graph if u in survivors]
    split = compiled_cut(cpg, members, k, tau)
    oracle = reference_cut(graph.induced_subgraph(members), k, tau)
    assert [list(piece) for piece in split.pieces] == _pieces(oracle)
    assert (
        split.cuts_found,
        split.edges_removed,
        split.fringe_nodes_peeled,
    ) == _counters(oracle)
