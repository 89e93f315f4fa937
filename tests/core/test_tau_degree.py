"""Unit tests for the tau-degree DP algorithms (Section III-A)."""

import pytest

from repro import all_tau_degrees, tau_degree, truncated_tau_degree
from repro.reference.bruteforce import brute_force_tau_degree
from repro.core.tau_degree import (
    STABLE_P_LIMIT,
    degree_distribution_dp,
    distribution_prefix,
    remove_edge_from_distribution,
    remove_edge_from_survival,
    survival_dp,
    tau_degree_from_distribution,
    tau_degree_from_survival,
    update_distribution_prefix,
)
from repro.deterministic.core_decomposition import core_numbers
from tests.conftest import make_random_graph


class TestDegreeDistributionDP:
    def test_no_edges(self):
        assert degree_distribution_dp([]) == [1.0]

    def test_single_edge(self):
        dist = degree_distribution_dp([0.3])
        assert dist == pytest.approx([0.7, 0.3])

    def test_two_edges(self):
        dist = degree_distribution_dp([0.5, 0.8])
        assert dist == pytest.approx([0.1, 0.5, 0.4])

    def test_sums_to_one(self):
        dist = degree_distribution_dp([0.1, 0.5, 0.9, 0.33, 0.77])
        assert sum(dist) == pytest.approx(1.0)

    def test_certain_edges_shift(self):
        dist = degree_distribution_dp([1.0, 1.0])
        assert dist == pytest.approx([0.0, 0.0, 1.0])

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_exact_convolution(self, seed):
        from repro.uncertain.possible_worlds import exact_degree_distribution

        g = make_random_graph(10, 0.6, seed=seed)
        for u in g:
            expected = exact_degree_distribution(g, u)
            got = degree_distribution_dp(list(g.incident(u).values()))
            assert got == pytest.approx(expected)


class TestTauDegreeFromDistribution:
    def test_simple(self):
        dist = degree_distribution_dp([0.9, 0.9])
        # Pr(>=1) = 0.99, Pr(>=2) = 0.81.
        assert tau_degree_from_distribution(dist, 0.9) == 1
        assert tau_degree_from_distribution(dist, 0.8) == 2
        assert tau_degree_from_distribution(dist, 0.995) == 0

    def test_tau_one_with_certain_edges(self):
        dist = degree_distribution_dp([1.0, 1.0, 0.5])
        assert tau_degree_from_distribution(dist, 1.0) == 2


class TestSurvivalDP:
    def test_row_zero_is_one(self):
        row = survival_dp([0.5, 0.5], cap=2)
        assert row[0] == 1.0

    def test_matches_distribution_tail_sums(self):
        probs = [0.3, 0.8, 0.6, 0.9]
        dist = degree_distribution_dp(probs)
        row = survival_dp(probs, cap=4)
        for i in range(5):
            assert row[i] == pytest.approx(sum(dist[i:]))

    def test_cap_truncates_length(self):
        row = survival_dp([0.5] * 10, cap=3)
        assert len(row) == 4

    def test_cap_larger_than_degree(self):
        row = survival_dp([0.5], cap=5)
        assert len(row) == 2

    def test_monotone_non_increasing(self):
        row = survival_dp([0.2, 0.7, 0.9, 0.4], cap=4)
        assert all(a >= b - 1e-12 for a, b in zip(row, row[1:]))


class TestTauDegreeAgreement:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("tau", [0.05, 0.3, 0.7, 0.95])
    def test_old_dp_equals_new_dp_equals_bruteforce(self, seed, tau):
        g = make_random_graph(12, 0.5, seed=seed)
        cores = core_numbers(g)
        for u in g:
            expected = brute_force_tau_degree(g, u, tau)
            assert tau_degree(g, u, tau) == expected
            truncated = truncated_tau_degree(g, u, tau, cores[u])
            assert truncated == min(cores[u], expected)

    def test_all_tau_degrees(self, two_groups):
        degrees = all_tau_degrees(two_groups, 0.5)
        assert degrees == {
            u: brute_force_tau_degree(two_groups, u, 0.5)
            for u in two_groups
        }

    def test_truncated_computes_core_numbers_if_missing(self, triangle):
        value = truncated_tau_degree(triangle, "a", 0.4)
        assert value == min(2, brute_force_tau_degree(triangle, "a", 0.4))


class TestDistributionPrefix:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("tau", [0.05, 0.4, 0.9])
    def test_prefix_tau_degree_matches_full(self, seed, tau):
        g = make_random_graph(12, 0.5, seed=seed)
        for u in g:
            probs = list(g.incident(u).values())
            eq, r = distribution_prefix(probs, tau)
            full = degree_distribution_dp(probs)
            assert r == tau_degree_from_distribution(full, tau)
            assert eq == pytest.approx(full[: len(eq)])

    def test_prefix_covers_tau_degree(self):
        eq, r = distribution_prefix([0.9, 0.9, 0.9], 0.5)
        assert len(eq) >= r + 1

    def test_empty(self):
        assert distribution_prefix([], 0.5) == ([1.0], 0)


class TestDeletionUpdates:
    def test_distribution_update_matches_rebuild(self):
        probs = [0.3, 0.8, 0.6]
        dist = degree_distribution_dp(probs)
        updated = remove_edge_from_distribution(dist, 0.6)
        expected = degree_distribution_dp([0.3, 0.8])
        assert updated[: len(expected)] == pytest.approx(expected)

    def test_distribution_update_refuses_near_one(self):
        dist = degree_distribution_dp([0.5, 1.0])
        assert remove_edge_from_distribution(dist, 1.0) is None
        assert remove_edge_from_distribution(dist, STABLE_P_LIMIT) is None

    def test_prefix_update_matches_rebuild(self):
        probs = [0.3, 0.8, 0.6, 0.7]
        eq, r = distribution_prefix(probs, 0.2)
        updated = update_distribution_prefix(eq, r, 0.6, 0.2)
        assert updated is not None
        new_eq, new_r = updated
        expected_eq, expected_r = distribution_prefix([0.3, 0.8, 0.7], 0.2)
        assert new_r == expected_r
        assert new_eq[: new_r + 1] == pytest.approx(
            expected_eq[: new_r + 1]
        )

    def test_survival_update_matches_rebuild(self):
        probs = [0.3, 0.8, 0.6, 0.7]
        row = survival_dp(probs, cap=3)
        tau = 0.2
        upto = tau_degree_from_survival(row, tau)
        updated = remove_edge_from_survival(row, 0.6, upto, tau)
        assert updated is not None
        new_row, new_deg = updated
        expected = survival_dp([0.3, 0.8, 0.7], cap=3)
        expected_deg = tau_degree_from_survival(expected, tau)
        assert new_deg == expected_deg
        assert new_row[: new_deg + 1] == pytest.approx(
            expected[: new_deg + 1]
        )

    def test_survival_update_refuses_near_one(self):
        row = survival_dp([1.0, 0.5], cap=2)
        assert remove_edge_from_survival(row, 1.0, 1, 0.5) is None
