"""Sanity tests for the brute-force oracles themselves."""

import pytest

from repro import UncertainGraph
from repro.reference.bruteforce import (
    brute_force_maximal_cliques,
    brute_force_maximum_clique,
    brute_force_tau_degree,
)
from repro.errors import ParameterError
from tests.conftest import make_clique


class TestMaximalCliques:
    def test_two_groups(self, two_groups):
        cliques = brute_force_maximal_cliques(two_groups, 3, 0.7)
        assert cliques == {
            frozenset({"a1", "a2", "a3", "a4"}),
            frozenset({"b1", "b2", "b3", "b4"}),
        }

    def test_size_limit(self):
        g = UncertainGraph(nodes=range(30))
        with pytest.raises(ParameterError):
            brute_force_maximal_cliques(g, 1, 0.5)

    def test_no_cliques(self, path_graph):
        assert brute_force_maximal_cliques(path_graph, 2, 0.5) == set()

    def test_overlapping_cliques(self):
        # Two triangles sharing an edge; at tau where the 4-set fails.
        g = UncertainGraph()
        for u, v in [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]:
            g.add_edge(u, v, 0.8)
        cliques = brute_force_maximal_cliques(g, 2, 0.4)
        assert cliques == {frozenset({0, 1, 2}), frozenset({1, 2, 3})}


class TestMaximumClique:
    def test_finds_largest(self, two_groups):
        best = brute_force_maximum_clique(two_groups, 3, 0.7)
        assert best is not None and len(best) == 4

    def test_none_when_absent(self, path_graph):
        assert brute_force_maximum_clique(path_graph, 2, 0.5) is None

    def test_respects_tau(self):
        g = make_clique(5, 0.5)
        # CPr of the 5-clique is 0.5^10 ~ 0.00098 — fails tau = 0.01;
        # a triangle has 0.125.
        best = brute_force_maximum_clique(g, 2, 0.01)
        assert best is not None and len(best) == 4  # 0.5^6 = 0.0156

    def test_size_limit(self):
        g = UncertainGraph(nodes=range(30))
        with pytest.raises(ParameterError):
            brute_force_maximum_clique(g, 1, 0.5)


class TestTauDegree:
    def test_simple(self, triangle):
        # a: edges 0.9 and 0.5 -> Pr(>=1) = 0.95, Pr(>=2) = 0.45.
        assert brute_force_tau_degree(triangle, "a", 0.9) == 1
        assert brute_force_tau_degree(triangle, "a", 0.4) == 2
        assert brute_force_tau_degree(triangle, "a", 0.97) == 0

    def test_isolated(self):
        g = UncertainGraph(nodes=[1])
        assert brute_force_tau_degree(g, 1, 0.5) == 0
