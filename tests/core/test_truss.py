"""Unit and property tests for the uncertain truss extension."""

import pytest

from repro import (
    edge_gamma_support,
    truss_prune_for_cliques,
    uncertain_truss,
)
from repro.reference.bruteforce import brute_force_maximal_cliques
from repro.errors import ParameterError
from repro.uncertain.possible_worlds import enumerate_possible_worlds
from tests.conftest import make_clique, make_random_graph


class TestEdgeGammaSupport:
    def test_no_triangles(self, path_graph):
        assert edge_gamma_support(path_graph, 0, 1, 0.5) == 0

    def test_triangle_support(self, triangle):
        # Edge (a, b): one common neighbor c with p_ac * p_bc = 0.4.
        # p_ab = 0.9; need 0.9 * Pr(supp >= 1) = 0.9 * 0.4 = 0.36.
        assert edge_gamma_support(triangle, "a", "b", 0.3) == 1
        assert edge_gamma_support(triangle, "a", "b", 0.4) == 0

    def test_weak_edge_gives_zero(self, triangle):
        # p_ac = 0.5 < gamma: no support level is reliable.
        assert edge_gamma_support(triangle, "a", "c", 0.6) == 0

    def test_clique_support(self):
        g = make_clique(5, 0.9)
        # Each edge has 3 common neighbors with triangle prob 0.81.
        assert edge_gamma_support(g, 0, 1, 0.4) == 3
        assert edge_gamma_support(g, 0, 1, 0.8) >= 1

    def test_matches_possible_world_semantics(self, two_groups):
        # Pr(e exists and support >= s) summed over worlds must agree
        # with the independent-Bernoulli DP.
        sub = two_groups.induced_subgraph(["a1", "a2", "a3", "a4"])
        gamma = 0.5
        for s_expected in range(0, 3):
            by_worlds = 0.0
            for world in enumerate_possible_worlds(sub):
                if not world.has_edge("a1", "a2"):
                    continue
                support = sum(
                    1
                    for w in ("a3", "a4")
                    if world.has_edge("a1", w) and world.has_edge("a2", w)
                )
                if support >= s_expected:
                    by_worlds += world.probability
            # compare: supp_gamma >= s_expected iff p_e * Pr >= gamma
            dp_value = edge_gamma_support(sub, "a1", "a2", by_worlds)
            assert dp_value >= s_expected


class TestUncertainTruss:
    def test_parameter_validation(self, triangle):
        with pytest.raises(ParameterError):
            uncertain_truss(triangle, -1, 0.5)
        with pytest.raises(ParameterError):
            uncertain_truss(triangle, 1, 0.0)

    def test_strong_clique_survives(self):
        g = make_clique(5, 0.95)
        truss = uncertain_truss(g, 3, 0.5)
        assert set(truss.nodes()) == set(range(5))
        assert truss.num_edges == 10

    def test_path_has_no_truss(self, path_graph):
        truss = uncertain_truss(path_graph, 1, 0.1)
        assert truss.num_nodes == 0

    def test_weak_appendage_peeled(self):
        g = make_clique(5, 0.95)
        g.add_edge(0, 99, 0.9)
        g.add_edge(1, 99, 0.2)  # 99's only triangle is weak
        truss = uncertain_truss(g, 2, 0.5)
        assert 99 not in set(truss.nodes())

    def test_truss_is_subgraph(self):
        g = make_random_graph(14, 0.5, seed=6)
        truss = uncertain_truss(g, 1, 0.3)
        assert truss.is_subgraph_of(g)

    def test_fixpoint_property(self):
        # Every edge of the truss meets the support condition within it.
        g = make_random_graph(14, 0.6, seed=7)
        s, gamma = 2, 0.3
        truss = uncertain_truss(g, s, gamma)
        for u, v, _ in truss.edges():
            assert edge_gamma_support(truss, u, v, gamma) >= s

    def test_monotone_in_s(self):
        g = make_random_graph(14, 0.6, seed=8)
        bigger = uncertain_truss(g, 1, 0.3)
        smaller = uncertain_truss(g, 3, 0.3)
        assert smaller.is_subgraph_of(bigger)

    def test_s_zero_keeps_reliable_edges(self, triangle):
        truss = uncertain_truss(triangle, 0, 0.6)
        assert truss.has_edge("a", "b")  # 0.9
        assert truss.has_edge("b", "c")  # 0.8
        assert not truss.has_edge("a", "c")  # 0.5


class TestTrussPruneForCliques:
    def test_k_leq_one_keeps_all(self, path_graph):
        assert truss_prune_for_cliques(path_graph, 1, 0.5) == set(
            path_graph.nodes()
        )

    def test_prunes_weak_hub(self, two_groups):
        survivors = truss_prune_for_cliques(two_groups, 3, 0.7)
        assert "hub" not in survivors
        assert {"a1", "a2", "a3", "a4"} <= survivors

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("k,tau", [(2, 0.3), (3, 0.1), (3, 0.5)])
    def test_no_maximal_clique_lost(self, seed, k, tau):
        g = make_random_graph(12, 0.55, seed=seed)
        survivors = truss_prune_for_cliques(g, k, tau)
        for clique in brute_force_maximal_cliques(g, k, tau):
            assert clique <= survivors

    def test_incomparable_with_topk_core(self):
        # Sanity check of the docstring claim: neither rule dominates
        # the other universally — find a graph where they differ.
        from repro import topk_core

        g = make_random_graph(16, 0.5, seed=99)
        k, tau = 3, 0.3
        truss_nodes = truss_prune_for_cliques(g, k, tau)
        topk_nodes = set(topk_core(g, k, tau).nodes)
        # Both are sound, so both contain every maximal clique; they need
        # not be equal.
        for clique in brute_force_maximal_cliques(g, k, tau):
            assert clique <= truss_nodes
            assert clique <= topk_nodes
