"""Stateful model test for the graph-held lowering.

:func:`~repro.core.prune_kernel.compile_graph` copies the dense-id rows
an :class:`~repro.uncertain.graph.UncertainGraph` keeps from its first
compile until its next mutation, instead of re-interning the dict
adjacency.  This machine drives a small pool of graphs through every
mutator, ``copy()``, ``induced_subgraph()``, pickle round trips,
compiles and delta patches in any order, and checks after every step
that:

* each graph that holds rows compiles bit-identically to a from-scratch
  :func:`~repro.reference.lower_graph` (a graph without rows is only
  compiled by the ``compile`` rule, so the check itself never lowers a
  graph the machine has not compiled);
* every artifact compiled (or patched) earlier still equals the
  from-scratch lowering taken when it was made: the rows an artifact
  shares with its graph never change under later mutations of either.
"""

from __future__ import annotations

import pickle

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro import UncertainGraph
from repro.core.prune_kernel import CompiledGraph, compile_graph
from repro.reference import lower_graph
from tests.core.test_delta_compile import assert_bit_identical

#: Mixed int and string labels: both kinds share one graph.
NODES = st.sampled_from([0, 1, 2, 3, 4, 5, "a", "b", "c"])

#: ``p == 1.0`` and repeated values (equal floats in one ascending row)
#: next to arbitrary floats.
PROBS = st.one_of(
    st.sampled_from([1.0, 0.5, 0.25, 0.5]),
    st.floats(min_value=0.01, max_value=1.0),
)

MAX_GRAPHS = 4
MAX_ARTIFACTS = 6


class LoweringMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.graphs: list[UncertainGraph] = []
        # (graph, artifact, from-scratch lowering taken when it was made)
        self.artifacts: list[
            tuple[UncertainGraph, CompiledGraph, CompiledGraph]
        ] = []

    def _pick(self, data: st.DataObject) -> UncertainGraph:
        i = data.draw(st.integers(0, len(self.graphs) - 1), label="graph")
        return self.graphs[i]

    def _adopt(self, graph: UncertainGraph, data: st.DataObject) -> None:
        if len(self.graphs) < MAX_GRAPHS:
            self.graphs.append(graph)
        else:
            i = data.draw(st.integers(0, MAX_GRAPHS - 1), label="replace")
            self.graphs[i] = graph

    def _remember(self, graph: UncertainGraph, cpg: CompiledGraph) -> None:
        self.artifacts.append((graph, cpg, lower_graph(graph)))
        del self.artifacts[:-MAX_ARTIFACTS]

    @initialize(
        edges=st.lists(st.tuples(NODES, NODES, PROBS), max_size=10)
    )
    def seed(self, edges: list[tuple[object, object, float]]) -> None:
        graph = UncertainGraph()
        for u, v, p in edges:
            if u != v and not graph.has_edge(u, v):
                graph.add_edge(u, v, p)
        self.graphs.append(graph)

    # -- mutators ------------------------------------------------------

    @rule(data=st.data(), node=NODES)
    def add_node(self, data: st.DataObject, node: object) -> None:
        self._pick(data).add_node(node)

    @rule(data=st.data(), u=NODES, v=NODES, p=PROBS)
    def add_edge(
        self, data: st.DataObject, u: object, v: object, p: float
    ) -> None:
        # The label pool is small, so endpoints are a mix of existing
        # nodes, absent ones, and one of each.
        graph = self._pick(data)
        if u != v and not graph.has_edge(u, v):
            graph.add_edge(u, v, p)

    @rule(data=st.data())
    def remove_edge(self, data: st.DataObject) -> None:
        graph = self._pick(data)
        edges = [(u, v) for u, v, _ in graph.edges()]
        if edges:
            u, v = data.draw(st.sampled_from(edges), label="edge")
            graph.remove_edge(u, v)

    @rule(data=st.data(), p=PROBS)
    def set_probability(self, data: st.DataObject, p: float) -> None:
        graph = self._pick(data)
        edges = [(u, v) for u, v, _ in graph.edges()]
        if edges:
            u, v = data.draw(st.sampled_from(edges), label="edge")
            graph.set_probability(u, v, p)

    @rule(data=st.data(), node=NODES)
    def remove_node(self, data: st.DataObject, node: object) -> None:
        graph = self._pick(data)
        if graph.has_node(node):
            graph.remove_node(node)

    # -- derived graphs ------------------------------------------------

    @rule(data=st.data(), lower_first=st.booleans())
    def copy(self, data: st.DataObject, lower_first: bool) -> None:
        graph = self._pick(data)
        if lower_first:
            self._remember(graph, compile_graph(graph))
        self._adopt(graph.copy(), data)

    @rule(data=st.data())
    def induced_subgraph(self, data: st.DataObject) -> None:
        graph = self._pick(data)
        members = [
            u for u in graph.nodes()
            if data.draw(st.booleans(), label=f"keep {u!r}")
        ]
        self._adopt(graph.induced_subgraph(members), data)

    @rule(data=st.data())
    def pickle_round_trip(self, data: st.DataObject) -> None:
        graph = self._pick(data)
        self._adopt(pickle.loads(pickle.dumps(graph)), data)

    # -- compiles ------------------------------------------------------

    @rule(data=st.data())
    def compile(self, data: st.DataObject) -> None:
        graph = self._pick(data)
        cpg = compile_graph(graph)
        assert_bit_identical(cpg, lower_graph(graph))
        self._remember(graph, cpg)

    @precondition(lambda self: len(self.artifacts) > 0)
    @rule(data=st.data())
    def patch_forward(self, data: st.DataObject) -> None:
        i = data.draw(
            st.integers(0, len(self.artifacts) - 1), label="artifact"
        )
        graph, cpg, _ = self.artifacts.pop(i)
        ops = graph.mutations_since(cpg.version)
        if ops is not None and cpg.apply_delta(ops):
            assert_bit_identical(cpg, lower_graph(graph))
            self._remember(graph, cpg)

    # -- checks --------------------------------------------------------

    @invariant()
    def compiles_match_a_fresh_lowering(self) -> None:
        for graph in self.graphs:
            if graph._lowering is not None:
                assert_bit_identical(compile_graph(graph),
                                     lower_graph(graph))

    @invariant()
    def earlier_artifacts_are_unchanged(self) -> None:
        for _, cpg, snapshot in self.artifacts:
            assert_bit_identical(cpg, snapshot)


LoweringMachine.TestCase.settings = settings(
    max_examples=60,
    stateful_step_count=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestLowering = LoweringMachine.TestCase


def test_graph_rows_are_tuples_shared_with_the_artifact() -> None:
    # The graph hands its ascending rows to every artifact by reference;
    # only immutable rows make that sharing safe.
    graph = UncertainGraph([(1, 2, 0.5), (2, 3, 1.0), ("x", 1, 0.25)])
    first = compile_graph(graph)
    snapshot = lower_graph(graph)
    again = compile_graph(graph)
    assert all(type(row) is tuple for row in first.asc_rows)
    assert all(a is b for a, b in zip(first.asc_rows, again.asc_rows))
    assert graph.copy()._lowering is None
    graph.set_probability(1, 2, 0.75)
    graph.add_edge(3, "x", 1.0)
    assert again.apply_delta(graph.mutations_since(again.version) or ())
    assert_bit_identical(again, lower_graph(graph))
    assert_bit_identical(compile_graph(graph), lower_graph(graph))
    assert_bit_identical(first, snapshot)
