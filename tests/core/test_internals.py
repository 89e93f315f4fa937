"""White-box tests for search/cut internals.

These pin down the behavior of the private helpers the hot paths rely
on, so refactors cannot silently change their contracts.
"""

import heapq
import math

import pytest

from repro import UncertainGraph
from repro.core.cut_pruning import (
    _INSIDE,
    _LocalGraph,
    _strong_floor,
    _top_k_below,
)
from repro.core.prune_kernel import compile_graph
from repro.core.enumeration import _insearch_topk_prune, _pi_k_ok
from repro.utils.validation import FLOAT_EPS, prob_at_least, prob_below
from tests.conftest import make_clique, make_random_graph


def _cut_heap(probs):
    """A cut heap holding one edge per probability, outside endpoint
    ``i + 100``, plus the weight map marking every endpoint outside S."""
    heap = [(-p, i + 100) for i, p in enumerate(probs)]
    heapq.heapify(heap)
    weight = {i + 100: 0.0 for i in range(len(probs))}
    return heap, weight


class TestCutTopK:
    def test_small_cut_is_low(self):
        heap, weight = _cut_heap([0.9])
        assert _top_k_below(heap, weight, 2, 0.5)

    def test_top_k_product(self):
        heap, weight = _cut_heap([0.9, 0.5, 0.8])
        # top-2 product = 0.72
        assert not _top_k_below(heap, weight, 2, 0.7)
        assert _top_k_below(heap, weight, 2, 0.73)

    def test_removal_changes_product(self):
        heap, weight = _cut_heap([0.9, 0.5, 0.8])
        weight[100] = _INSIDE  # drop the 0.9; top-2 = 0.4
        assert _top_k_below(heap, weight, 2, 0.5)
        assert not _top_k_below(heap, weight, 2, 0.3)

    def test_live_count_tracks(self):
        heap, weight = _cut_heap([0.5])
        assert not _top_k_below(heap, weight, 1, 0.01)
        weight[100] = _INSIDE
        assert _top_k_below(heap, weight, 1, 0.01)
        assert heap == []  # the dead entry was discarded for good

    def test_query_is_repeatable(self):
        heap, weight = _cut_heap([0.9, 0.8, 0.7])
        first = _top_k_below(heap, weight, 2, 0.71)
        second = _top_k_below(heap, weight, 2, 0.71)
        assert first == second == False  # noqa: E712 — explicit value
        assert len(heap) == 3

    @pytest.mark.parametrize("k", [1, 2, 4, 10, 50])
    @pytest.mark.parametrize("tau", [1e-12, 0.1, 0.2, 0.5, 0.99, 1.0])
    def test_strong_floor_is_the_smallest_clearing_float(self, k, tau):
        def power(s):
            product = 1.0
            for _ in range(k):
                product *= s
            return product

        s = _strong_floor(k, tau)
        assert 0.0 < s <= 1.0
        assert prob_at_least(power(s), tau)
        assert prob_below(power(math.nextafter(s, 0.0)), tau)


def _local(graph):
    """The whole graph as a sweep-ready local CSR, one piece per label."""
    local = _LocalGraph(compile_graph(graph), graph.nodes())
    return local, list(range(local.n))


class TestPiKOk:
    def test_short_list_fails(self):
        assert not _pi_k_ok([0.9], 2, 0.1)

    def test_top_k_product_checked(self):
        floor = 0.5 * (1 - FLOAT_EPS)
        assert _pi_k_ok([0.2, 0.8, 0.9], 2, floor)  # 0.72 >= 0.5
        assert _pi_k_ok([0.2, 0.6, 0.9], 2, floor)  # 0.54 >= 0.5
        assert not _pi_k_ok([0.2, 0.5, 0.9], 2, floor)  # 0.45 < 0.5

    def test_k_zero_always_ok_for_tau_leq_one(self):
        assert _pi_k_ok([], 0, 1.0 * (1 - FLOAT_EPS))


class TestInsearchPrune:
    def test_dead_branch_when_fixed_falls(self, two_groups):
        # Clique anchored at the hub cannot reach size 4 at tau 0.7.
        candidates = [
            (v, two_groups.probability("hub", v))
            for v in two_groups.neighbors("hub")
        ]
        result = _insearch_topk_prune(
            two_groups, ["hub"], candidates, 3,
            0.7 * (1 - FLOAT_EPS), 4,
        )
        assert result is None

    def test_shrinks_candidates(self, two_groups):
        candidates = [
            (v, 1.0) for v in two_groups.nodes()
        ]
        result = _insearch_topk_prune(
            two_groups, [], candidates, 3, 0.7 * (1 - FLOAT_EPS), 4
        )
        assert result is not None
        kept = {v for v, _ in result}
        assert "hub" not in kept
        assert {"a1", "a2", "a3", "a4"} <= kept

    def test_no_op_when_core_full(self):
        g = make_clique(6, 0.99)
        candidates = [(v, 1.0) for v in g.nodes()]
        result = _insearch_topk_prune(
            g, [], candidates, 3, 0.5 * (1 - FLOAT_EPS), 4
        )
        assert result is candidates  # identity: nothing was removed


class TestSweepSplit:
    def test_no_cut_in_strong_clique(self):
        local, piece = _local(make_clique(6, 0.95))
        segments, cuts, removed = local.sweep_split(piece, 3, 0.5)
        assert cuts == 0
        assert removed == 0
        assert segments == []

    def test_bridge_cut_found(self):
        # Two strong 4-cliques joined by a single weak edge.
        g = make_clique(4, 0.95)
        for u_off in range(4, 8):
            for v_off in range(u_off + 1, 8):
                g.add_edge(u_off, v_off, 0.95)
        g.add_edge(0, 4, 0.2)
        local, piece = _local(g)
        segments, cuts, removed = local.sweep_split(piece, 3, 0.5)
        assert cuts >= 1
        assert removed >= 1
        # Nothing is deleted; the weak edge crosses two segments.
        assert g.has_edge(0, 4)
        assert not any({0, 4} <= set(segment) for segment in segments)
        # Every segment is one of the two cliques (order-independent).
        for segment in segments:
            assert set(segment) <= {0, 1, 2, 3} or set(segment) <= {
                4, 5, 6, 7,
            }

    def test_disconnected_component_splits(self):
        g = UncertainGraph(edges=[(0, 1, 0.9), (2, 3, 0.9)])
        local, piece = _local(g)
        segments, cuts, removed = local.sweep_split(piece, 1, 0.5)
        assert cuts >= 1
        assert removed == 0  # no crossing edges existed
        groups = [set(s) for s in segments]
        assert {0, 1} in groups and {2, 3} in groups

    def test_all_edges_preserved_or_deleted_consistently(self):
        g = make_random_graph(14, 0.4, seed=5)
        local, _ = _local(g)
        total_removed = 0
        kept = 0
        for piece in local.split(list(range(local.n))):
            if len(piece) > 1:
                segments, _, removed = local.sweep_split(piece, 3, 0.5)
                total_removed += removed
                for segment in segments or [piece]:
                    inside = set(segment)
                    kept += sum(
                        1
                        for u in inside
                        for j in range(local.offsets[u], local.offsets[u + 1])
                        if local.nbrs[j] in inside
                    ) // 2
        assert kept == g.num_edges - total_removed


class TestInsearchPruneDuplicateProbabilities:
    """Pin the bisect-removal invariant of the dict in-search peel.

    When a peeled neighbor's probability is duplicated in a node's sorted
    incident-value list, ``_insearch_topk_prune`` removes *some* equal
    entry by bisect — sound only because equal floats are interchangeable
    in a product.  The compiled kernel peel never faces the ambiguity (it
    indexes by node id), so both must land on the same fixpoint.
    """

    @staticmethod
    def _duplicate_graph():
        from repro import UncertainGraph

        # v carries duplicate 0.5 edges to a (peeled: its only edge) and
        # to b (a core member).  Peeling a forces a bisect removal of one
        # of v's duplicated 0.5 values; v must survive on the other one:
        # top-2 = 0.5 * 0.8 = 0.4 >= tau_floor(0.4).
        graph = UncertainGraph()
        for u, v in (("t1", "t2"), ("t1", "t3"), ("t2", "t3")):
            graph.add_edge(u, v, 0.8)
        graph.add_edge("b", "t1", 0.8)
        graph.add_edge("b", "t2", 0.8)
        graph.add_edge("v", "t1", 0.8)
        graph.add_edge("v", "b", 0.5)
        graph.add_edge("v", "a", 0.5)
        return graph

    def test_duplicate_value_removal_keeps_survivor(self):
        graph = self._duplicate_graph()
        candidates = [(u, 1.0) for u in sorted(graph.nodes(), key=str)]
        result = _insearch_topk_prune(
            graph, [], candidates, 2, 0.4 * (1 - FLOAT_EPS), 3
        )
        assert result is not None
        kept = {u for u, _ in result}
        assert kept == {"t1", "t2", "t3", "b", "v"}

    def test_fixpoint_matches_compiled_peel(self):
        from repro.core.topk_core import topk_peel_masks
        from repro.reference import compile_component
        from repro.utils.validation import threshold_floor

        graph = self._duplicate_graph()
        candidates = [(u, 1.0) for u in sorted(graph.nodes(), key=str)]
        for tau in (0.2, 0.4, 0.41, 0.6):
            floor = threshold_floor(tau)
            legacy = _insearch_topk_prune(graph, [], candidates, 2, floor, 3)
            legacy_kept = (
                None if legacy is None else {u for u, _ in legacy}
            )
            comp = compile_component(graph)
            alive = topk_peel_masks(comp, comp.full_mask, 0, 2, floor)
            assert alive is not None
            kernel_kept = set(comp.decompile(alive))
            if kernel_kept and len(kernel_kept) >= 3:
                assert legacy_kept == kernel_kept
            else:
                # Fewer than min_size survivors: legacy reports a dead
                # branch instead of a set.
                assert legacy_kept is None
