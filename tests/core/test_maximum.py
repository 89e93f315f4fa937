"""Unit and integration tests for MaxUC / MaxRDS / MaxUC+ (Section V)."""

import pytest

from repro import (
    MaximumSearchStats,
    UncertainGraph,
    clique_probability,
    is_clique,
    max_rds,
    max_uc,
    max_uc_plus,
    maximum_clique,
    muce_plus_plus,
)
from repro.reference.bruteforce import brute_force_maximum_clique
from repro.utils.validation import prob_at_least
from tests.conftest import make_clique, make_random_graph

ALGORITHMS = [max_uc, max_rds, max_uc_plus]


class TestSmallGraphs:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_two_groups(self, two_groups, algorithm):
        best = algorithm(two_groups, 3, 0.7)
        assert best is not None
        assert len(best) == 4

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_no_valid_clique_returns_none(self, path_graph, algorithm):
        assert algorithm(path_graph, 2, 0.5) is None

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_empty_graph(self, algorithm):
        assert algorithm(UncertainGraph(), 1, 0.5) is None

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_exact_clique(self, algorithm):
        g = make_clique(6, 0.99)
        best = algorithm(g, 3, 0.5)
        assert best == frozenset(range(6))

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_result_is_valid_clique(self, algorithm):
        g = make_random_graph(13, 0.6, seed=8)
        k, tau = 2, 0.15
        best = algorithm(g, k, tau)
        if best is not None:
            assert is_clique(g, best)
            assert len(best) > k
            assert prob_at_least(clique_probability(g, best), tau)

    def test_input_not_modified(self, two_groups):
        before = two_groups.copy()
        for algorithm in ALGORITHMS:
            algorithm(two_groups, 3, 0.7)
        assert two_groups == before


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(10))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_random_graphs(self, seed, algorithm):
        g = make_random_graph(11, 0.55, seed=seed)
        k, tau = 2, 0.2
        expected = brute_force_maximum_clique(g, k, tau)
        got = algorithm(g, k, tau)
        expected_size = len(expected) if expected else 0
        got_size = len(got) if got else 0
        assert got_size == expected_size

    @pytest.mark.parametrize("tau", [0.01, 0.3, 0.7, 0.95])
    def test_tau_sweep_all_agree(self, tau):
        g = make_random_graph(12, 0.6, seed=55)
        sizes = {
            fn.__name__: len(fn(g, 1, tau) or ())
            for fn in ALGORITHMS
        }
        assert len(set(sizes.values())) == 1, sizes

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 5])
    def test_k_sweep_all_agree(self, k):
        g = make_random_graph(12, 0.6, seed=56)
        sizes = {
            fn.__name__: len(fn(g, k, 0.2) or ())
            for fn in ALGORITHMS
        }
        assert len(set(sizes.values())) == 1, sizes

    def test_maximum_equals_largest_enumerated(self):
        g = make_random_graph(13, 0.55, seed=20)
        k, tau = 2, 0.15
        enumerated = list(muce_plus_plus(g, k, tau))
        largest = max((len(c) for c in enumerated), default=0)
        best = max_uc_plus(g, k, tau)
        assert (len(best) if best else 0) == largest


class TestMaxUCPlusConfigurations:
    @pytest.mark.parametrize("adv_one", [True, False])
    @pytest.mark.parametrize("adv_two", [True, False])
    @pytest.mark.parametrize("insearch", [True, False])
    def test_bound_ablations_agree(self, adv_one, adv_two, insearch):
        g = make_random_graph(12, 0.6, seed=66)
        k, tau = 2, 0.15
        expected = brute_force_maximum_clique(g, k, tau)
        got = max_uc_plus(
            g, k, tau,
            use_advanced_one=adv_one,
            use_advanced_two=adv_two,
            insearch=insearch,
        )
        assert (len(got) if got else 0) == (
            len(expected) if expected else 0
        )

    def test_stats_populated(self, two_groups):
        stats = MaximumSearchStats()
        best = max_uc_plus(two_groups, 3, 0.7, stats=stats)
        assert best is not None
        assert stats.search_calls > 0
        assert stats.best_size == 4

    def test_bounds_reduce_search_calls(self):
        g = make_random_graph(16, 0.55, seed=12)
        k, tau = 2, 0.1
        with_bounds = MaximumSearchStats()
        max_uc_plus(g, k, tau, stats=with_bounds)
        without = MaximumSearchStats()
        max_uc_plus(
            g, k, tau,
            use_advanced_one=False,
            use_advanced_two=False,
            stats=without,
        )
        assert with_bounds.search_calls <= without.search_calls


class TestFrontDoor:
    def test_default_is_max_uc_plus(self, two_groups):
        best = maximum_clique(two_groups, 3, 0.7)
        assert best is not None and len(best) == 4

    @pytest.mark.parametrize(
        "name", ["max_uc", "max_rds", "max_uc_plus"]
    )
    def test_algorithm_selection(self, two_groups, name):
        best = maximum_clique(two_groups, 3, 0.7, algorithm=name)
        assert best is not None and len(best) == 4

    def test_unknown_algorithm(self, two_groups):
        with pytest.raises(ValueError):
            maximum_clique(two_groups, 3, 0.7, algorithm="bogus")
