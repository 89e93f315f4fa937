"""Unit tests for the cut-based optimization (Section III-C)."""

import pytest

from repro import UncertainGraph, cut_optimize
from repro.reference.bruteforce import brute_force_maximal_cliques
from repro.core.cut_pruning import cut_probability, is_low_probability_cut
from repro.errors import ParameterError
from tests.conftest import make_clique, make_random_graph


class TestCutProbability:
    def test_top_k_product(self):
        assert cut_probability([0.9, 0.5, 0.8], 2) == pytest.approx(0.72)

    def test_small_cut_is_zero(self):
        assert cut_probability([0.9], 2) == 0.0

    def test_k_zero_is_one(self):
        assert cut_probability([0.9], 0) == 1.0

    def test_empty_cut(self):
        assert cut_probability([], 1) == 0.0

    def test_negative_k_rejected(self):
        with pytest.raises(ParameterError):
            cut_probability([0.5], -1)


class TestIsLowProbabilityCut:
    def test_low(self):
        assert is_low_probability_cut([0.3, 0.3, 0.3], 3, 0.1)

    def test_not_low(self):
        assert not is_low_probability_cut([0.9, 0.9, 0.9], 3, 0.5)

    def test_small_cut_always_low(self):
        assert is_low_probability_cut([0.99], 2, 0.0001)


class TestCutOptimize:
    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        cut_optimize(two_groups, 3, 0.7)
        assert two_groups == before

    def test_weak_bridge_severed(self, two_groups):
        result = cut_optimize(two_groups, 3, 0.7)
        comp_sets = [set(c.nodes()) for c in result.components]
        groups_a = {"a1", "a2", "a3", "a4"}
        groups_b = {"b1", "b2", "b3", "b4"}
        assert any(groups_a <= cs and not (groups_b & cs) for cs in comp_sets)
        assert result.cuts_found >= 1
        assert result.edges_removed >= 1

    def test_strong_graph_untouched(self):
        g = make_clique(6, 0.95)
        result = cut_optimize(g, 3, 0.5)
        assert result.cuts_found == 0
        assert len(result.components) == 1
        assert result.components[0] == g

    def test_disconnected_input(self):
        g = UncertainGraph(edges=[(1, 2, 0.9), (3, 4, 0.9)])
        result = cut_optimize(g, 1, 0.5)
        assert len(result.components) == 2

    def test_empty_graph(self):
        result = cut_optimize(UncertainGraph(), 3, 0.5)
        assert result.components == []

    def test_all_nodes_preserved(self):
        g = make_random_graph(15, 0.4, seed=3)
        result = cut_optimize(g, 3, 0.3)
        seen = [u for c in result.components for u in c.nodes()]
        assert sorted(seen) == sorted(g.nodes())

    def test_components_are_edge_disjoint_pieces(self):
        g = make_random_graph(15, 0.4, seed=9)
        result = cut_optimize(g, 3, 0.3)
        total_edges = sum(c.num_edges for c in result.components)
        assert total_edges == g.num_edges - result.edges_removed

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k,tau", [(2, 0.3), (3, 0.1), (3, 0.6)])
    def test_lemma5_no_maximal_clique_lost(self, seed, k, tau):
        g = make_random_graph(12, 0.5, seed=seed)
        cliques = brute_force_maximal_cliques(g, k, tau)
        result = cut_optimize(g, k, tau)
        comp_sets = [set(c.nodes()) for c in result.components]
        for clique in cliques:
            assert any(clique <= cs for cs in comp_sets), (
                f"maximal clique {set(clique)} split by cut optimization"
            )

    def test_parameter_validation(self, triangle):
        with pytest.raises(ParameterError):
            cut_optimize(triangle, -1, 0.5)
        with pytest.raises(ParameterError):
            cut_optimize(triangle, 2, 1.5)
