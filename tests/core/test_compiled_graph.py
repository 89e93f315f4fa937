"""The unified per-version compile artifact.

One :class:`~repro.core.prune_kernel.CompiledGraph` per graph version
serves both halves of every query: the prune peels replay over its flat
CSR, and the search stage derives per-component
:class:`~repro.core.kernel.CompiledComponent` views from the same arrays
via :func:`~repro.core.kernel.derive_component_view` instead of
recompiling each component from its subgraph.  This suite pins the
contracts that make that sound:

* the derived view is **bit-identical** to the reference
  ``compile_component`` on the induced subgraph — same nodes, ids, CSR rows and float values — for
  arbitrary member subsets (pruning removes nodes only, so any
  survivor set is an induced-subgraph restriction);
* a session performs exactly **one** compile per graph version across
  prune, enumeration and maximum queries;
* the artifact survives the process boundary (pickle roundtrip), and
  the parallel layer's submissions stay clean under the RPL013
  pickle-safety rule.
"""

from __future__ import annotations

import pickle
from pathlib import Path

from hypothesis import given, settings, strategies as st

from repro import PreparedGraph, UncertainGraph
from repro.core.kernel import CompiledComponent, derive_component_view
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.deterministic.components import connected_components
from repro.reference import compile_component

PROBABILITY_PALETTE = (0.25, 0.4, 0.4, 0.5, 0.7, 0.7, 0.9, 1.0)


def _labels(n: int, mixed: bool) -> list[object]:
    if not mixed:
        return list(range(n))
    return [i if i % 2 == 0 else f"n{i}" for i in range(n)]


@st.composite
def uncertain_graphs(draw: st.DrawFn) -> UncertainGraph:
    n = draw(st.integers(min_value=0, max_value=12))
    mixed = draw(st.booleans())
    nodes = _labels(n, mixed)
    graph = UncertainGraph(nodes=nodes)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1:]:
            if draw(st.booleans()):
                graph.add_edge(u, v, draw(st.sampled_from(PROBABILITY_PALETTE)))
    return graph


def assert_views_bit_identical(
    derived: CompiledComponent, compiled: CompiledComponent
) -> None:
    """Exact equality on every field the search kernel reads."""
    assert derived.nodes == compiled.nodes
    assert derived.index == compiled.index
    assert derived.adj == compiled.adj
    assert derived.full_mask == compiled.full_mask
    assert derived.rows == compiled.rows
    assert derived.width == compiled.width
    assert list(derived.row_offsets) == list(compiled.row_offsets)
    assert list(derived.nbr_ids) == list(compiled.nbr_ids)
    assert list(derived.nbr_probs) == list(compiled.nbr_probs)


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs())
def test_derived_view_matches_component_compile(
    graph: UncertainGraph,
) -> None:
    artifact = compile_graph(graph)
    for members in connected_components(graph):
        component = graph.induced_subgraph(members)
        derived = derive_component_view(artifact, list(component.nodes()))
        assert_views_bit_identical(derived, compile_component(component))


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), data=st.data())
def test_derived_view_matches_on_arbitrary_member_subsets(
    graph: UncertainGraph, data: st.DataObject
) -> None:
    # Pruning removes nodes (never edges among survivors), so the stage
    # hands derive_component_view member sets that are arbitrary
    # restrictions of the compiled graph — not only whole components.
    nodes = list(graph.nodes())
    members = [u for u in nodes if data.draw(st.booleans(), label=str(u))]
    artifact = compile_graph(graph)
    component = graph.induced_subgraph(members)
    derived = derive_component_view(artifact, list(component.nodes()))
    assert_views_bit_identical(derived, compile_component(component))


@settings(max_examples=60, deadline=None)
@given(graph=uncertain_graphs(), data=st.data())
def test_restrict_matches_compiling_the_induced_subgraph(
    graph: UncertainGraph, data: st.DataObject
) -> None:
    # The projection the anchored child session starts from: same node
    # order, same insertion-order rows and floats as a fresh lowering.
    members = [
        u for u in graph.nodes() if data.draw(st.booleans(), label=str(u))
    ]
    restricted = compile_graph(graph).restrict(members)
    fresh = compile_graph(graph.induced_subgraph(members))
    assert restricted.nodes == fresh.nodes
    assert restricted.version == fresh.version
    assert restricted.row_offsets == fresh.row_offsets
    assert restricted.nbr_ids == fresh.nbr_ids
    assert restricted.nbr_probs == fresh.nbr_probs
    assert restricted.asc_rows == fresh.asc_rows


def _two_triangles() -> UncertainGraph:
    graph = UncertainGraph()
    for u, v in (("a", "b"), ("b", "c"), ("a", "c")):
        graph.add_edge(u, v, 0.9)
    for u, v in (("x", "y"), ("y", "z"), ("x", "z")):
        graph.add_edge(u, v, 0.8)
    return graph


def _compile_entries(session: PreparedGraph) -> list[tuple]:
    return [key for key in session._cache if key[1] == "compile"]


def test_session_compiles_once_per_version() -> None:
    # Enumeration, maximum search and a repeat query at different
    # parameters all share one (version, "compile") entry; a mutation
    # bumps the version and the superseded entry is delta-patched
    # forward in place — one entry, now at the new version, with no
    # second full lowering.
    graph = _two_triangles()
    session = PreparedGraph(graph)
    list(session.maximal_cliques(2, 0.3))
    assert len(_compile_entries(session)) == 1
    session.max_uc_plus(2, 0.3)
    list(session.maximal_cliques(1, 0.5))
    assert len(_compile_entries(session)) == 1
    assert session.cache_stats.full_compiles == 1

    session.graph.add_edge("c", "x", 0.7)
    list(session.maximal_cliques(2, 0.3))
    entries = _compile_entries(session)
    assert [key[0] for key in entries] == [session.version]
    assert session.cache_stats.delta_patches == 1
    assert session.cache_stats.full_compiles == 1


def test_cold_query_times_one_compile_and_warm_times_none() -> None:
    from repro.core.enumeration import EnumerationStats

    session = PreparedGraph(_two_triangles())
    cold = EnumerationStats()
    list(session.maximal_cliques(2, 0.3, stats=cold))
    assert cold.timings.seconds("compile") > 0.0
    warm = EnumerationStats()
    # A warm repeat reuses artifact and views: the compile lap stays 0.
    list(session.maximal_cliques(2, 0.3, stats=warm))
    assert warm.timings.seconds("compile") == 0.0
    # New parameters still derive fresh views (a nonzero compile lap)
    # but never re-lower the graph: one compile entry, no new lowering.
    fresh_params = EnumerationStats()
    list(session.maximal_cliques(1, 0.5, stats=fresh_params))
    assert len(_compile_entries(session)) == 1


def test_compiled_graph_pickle_roundtrip() -> None:
    graph = _two_triangles()
    artifact = compile_graph(graph)
    clone = pickle.loads(pickle.dumps(artifact))
    assert isinstance(clone, CompiledGraph)
    assert clone.nodes == artifact.nodes
    assert clone.version == artifact.version
    assert clone.index == artifact.index
    assert clone.sort_rank == artifact.sort_rank
    assert list(clone.row_offsets) == list(artifact.row_offsets)
    assert list(clone.nbr_ids) == list(artifact.nbr_ids)
    assert list(clone.nbr_probs) == list(artifact.nbr_probs)
    assert clone.asc_rows == artifact.asc_rows
    for i in range(artifact.n):
        assert clone.desc_row(i) == artifact.desc_row(i)
    # Derived views from the clone match the original's.
    members = ["a", "b", "c"]
    assert_views_bit_identical(
        derive_component_view(clone, members),
        derive_component_view(artifact, members),
    )


def test_parallel_layer_is_rpl013_clean() -> None:
    # The pickle-safety rule must stay quiet on the real parallel layer:
    # its workers are module-level and its payloads ship compiled-arrays
    # state only.  A dict-backed payload or nested worker regression
    # would surface here before it surfaced as a runtime slowdown.
    from repro.analysis import lint_file

    path = Path(__file__).parents[2] / "src" / "repro" / "core" / "parallel.py"
    findings = [f for f in lint_file(path) if f.rule == "RPL013"]
    assert findings == []
