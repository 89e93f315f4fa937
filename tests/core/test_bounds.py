"""Unit tests for the color-based upper bounds (Section V)."""

import pytest

from repro import UncertainGraph, clique_probability
from repro.core.bounds import (
    advanced_color_bound_one,
    advanced_color_bound_two,
    basic_color_bound,
)
from repro.reference.bruteforce import brute_force_maximal_cliques
from repro.deterministic.coloring import greedy_coloring
from tests.conftest import make_random_graph


class TestBasicColorBound:
    def test_counts_distinct_colors(self):
        colors = {1: 0, 2: 1, 3: 0}
        assert basic_color_bound(colors, [1, 2, 3]) == 2

    def test_empty(self):
        assert basic_color_bound({}, []) == 0


class TestAdvancedBoundOne:
    def test_never_exceeds_basic(self):
        g = make_random_graph(14, 0.5, seed=1)
        colors = greedy_coloring(g)
        candidates = [(v, 0.5) for v in g.nodes()]
        basic = basic_color_bound(colors, (v for v, _ in candidates))
        advanced = advanced_color_bound_one(colors, candidates, 1.0, 0.3)
        assert advanced <= basic

    def test_probability_constraint_tightens(self):
        colors = {1: 0, 2: 1, 3: 2}
        candidates = [(1, 0.5), (2, 0.5), (3, 0.5)]
        # With CPr(R) = 1 and tau = 0.2: 0.5 ok, 0.25 ok, 0.125 < 0.2.
        assert advanced_color_bound_one(colors, candidates, 1.0, 0.2) == 2

    def test_zero_when_nothing_fits(self):
        colors = {1: 0}
        assert advanced_color_bound_one(colors, [(1, 0.1)], 1.0, 0.5) == 0

    def test_takes_best_per_color(self):
        colors = {1: 0, 2: 0}
        candidates = [(1, 0.2), (2, 0.9)]
        # Only one member per color group counts; the best (0.9) is used.
        assert advanced_color_bound_one(colors, candidates, 1.0, 0.5) == 1

    def test_empty_candidates(self):
        assert advanced_color_bound_one({}, [], 1.0, 0.5) == 0


class TestAdvancedBoundTwo:
    def _graph(self):
        g = UncertainGraph()
        g.add_edge("r", 1, 0.9)
        g.add_edge("r", 2, 0.4)
        g.add_edge("r", 3, 0.3)
        g.add_edge(1, 2, 0.9)
        g.add_edge(1, 3, 0.9)
        g.add_edge(2, 3, 0.9)
        return g

    def test_per_member_budget(self):
        g = self._graph()
        colors = {1: 0, 2: 1, 3: 2, "r": 3}
        candidates = [(1, 0.9), (2, 0.4), (3, 0.3)]
        # For r: sorted maxima 0.9, 0.4, 0.3; prefix products 0.9,
        # 0.36, 0.108 — with tau = 0.2 only two fit.
        bound = advanced_color_bound_two(
            g, colors, ["r"], candidates, 1.0, 0.2
        )
        assert bound == 2

    def test_empty_clique_falls_back_to_color_count(self):
        g = self._graph()
        colors = greedy_coloring(g)
        candidates = [(v, 1.0) for v in g.nodes()]
        bound = advanced_color_bound_two(g, colors, [], candidates, 1.0, 0.5)
        assert bound == basic_color_bound(colors, g.nodes())

    def test_tightest_member_wins(self):
        g = self._graph()
        g.add_edge("s", 1, 0.99)
        g.add_edge("s", 2, 0.99)
        g.add_edge("s", 3, 0.99)
        g.add_edge("s", "r", 0.99)
        colors = {1: 0, 2: 1, 3: 2, "r": 3, "s": 4}
        candidates = [(1, 0.9), (2, 0.4), (3, 0.3)]
        # s alone would allow 3; r limits the budget to 2.
        bound = advanced_color_bound_two(
            g, colors, ["s", "r"], candidates, 1.0, 0.2
        )
        assert bound == 2


class TestSoundness:
    """Lemmas 6 and 7: the bounds never under-estimate a real clique."""

    @pytest.mark.parametrize("seed", range(6))
    def test_bounds_admit_every_maximal_clique(self, seed):
        g = make_random_graph(12, 0.6, seed=seed)
        k, tau = 1, 0.15
        colors = greedy_coloring(g)
        for clique in brute_force_maximal_cliques(g, k, tau):
            members = sorted(clique, key=str)
            # Split the clique into a prefix R and the rest; the rest
            # must fit inside every bound computed for (R, C) when C
            # contains the remaining members.
            for cut_at in range(1, len(members)):
                prefix = members[:cut_at]
                rest = members[cut_at:]
                r_prob = clique_probability(g, prefix)
                candidates = []
                for v in rest:
                    pi = 1.0
                    for u in prefix:
                        pi *= g.probability(u, v)
                    candidates.append((v, pi))
                need = len(rest)
                b1 = basic_color_bound(colors, rest)
                b2 = advanced_color_bound_one(
                    colors, candidates, r_prob, tau
                )
                b3 = advanced_color_bound_two(
                    g, colors, prefix, candidates, r_prob, tau
                )
                assert b1 >= need
                assert b2 >= need
                assert b3 >= need
