"""Unit tests for the stats ``merge`` aggregation and phase timings.

``merge`` is what the process-parallel layer uses to fold per-task
counters back into the caller's stats object, and what the experiment
harness uses to aggregate counters across runs — so its semantics
(every counter sums; ``best_size`` takes the max; wall-clock laps sum
lap-wise and never participate in equality) are pinned here.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import asdict, fields

import pytest

from repro import UncertainGraph, reference
import repro.core.enumeration as enumeration_mod
from repro.core.enumeration import EnumerationStats, muce_plus_plus
from repro.core.maximum import MaximumSearchStats, max_uc_plus


def test_enumeration_merge_sums_every_counter() -> None:
    a = EnumerationStats(
        nodes_after_pruning=10, components=2, cuts_found=1,
        cut_edges_removed=3, search_calls=100, insearch_prunes=5,
        branch_size_prunes=7, pivot_branches=20, pivot_skipped=9,
        cliques=4,
    )
    b = EnumerationStats(
        nodes_after_pruning=1, components=1, cuts_found=0,
        cut_edges_removed=2, search_calls=50, insearch_prunes=1,
        branch_size_prunes=2, pivot_branches=6, pivot_skipped=4,
        cliques=3,
    )
    expected = {
        f.name: getattr(a, f.name) + getattr(b, f.name)
        for f in fields(EnumerationStats)
    }
    a.merge(b)
    assert asdict(a) == expected
    # The source of the merge is untouched.
    assert b.search_calls == 50


def test_maximum_merge_sums_counters_and_maxes_best_size() -> None:
    a = MaximumSearchStats(
        search_calls=10, size_bound_prunes=2, pivot_branches=5,
        pivot_skipped=2, best_size=5,
    )
    b = MaximumSearchStats(
        search_calls=3, basic_color_prunes=4, pivot_branches=1,
        pivot_skipped=3, best_size=7,
    )
    a.merge(b)
    assert a.search_calls == 13
    assert a.size_bound_prunes == 2
    assert a.basic_color_prunes == 4
    assert a.pivot_branches == 6
    assert a.pivot_skipped == 5
    assert a.best_size == 7  # max, not sum: it reports a result, not work
    a.merge(MaximumSearchStats(best_size=1))
    assert a.best_size == 7


def test_pivot_counters_recorded_by_the_default_engine() -> None:
    # The pivot kernel searches every component within the kernel limit:
    # a dense component must record at least one absorbed (skipped)
    # candidate.  Above the limit the component is decomposed: counted
    # in decomposed_components, one sub-problem per vertex with enough
    # later neighbours, and still the reference's cliques.
    graph = _triangle_graph()
    stats = EnumerationStats()
    found = set(muce_plus_plus(graph, 1, 0.5, stats=stats))
    assert stats.pivot_branches > 0
    assert stats.pivot_skipped > 0
    assert stats.decomposed_components == stats.subproblems == 0
    original = enumeration_mod.KERNEL_COMPONENT_LIMIT
    enumeration_mod.KERNEL_COMPONENT_LIMIT = 0
    try:
        decomposed = EnumerationStats()
        forced = list(muce_plus_plus(graph, 1, 0.5, stats=decomposed))
    finally:
        enumeration_mod.KERNEL_COMPONENT_LIMIT = original
    oracle = reference.maximal_cliques(graph, 1, 0.5)
    assert len(forced) == len(set(forced))
    assert set(forced) == found == set(oracle)
    assert decomposed.cliques == len(oracle)
    assert decomposed.decomposed_components == 1
    # Degeneracy order a, b, c, d, e: all but e have a later neighbour.
    assert decomposed.subproblems == 4


def test_merge_accumulates_timings_lap_wise() -> None:
    a = EnumerationStats()
    b = EnumerationStats()
    a.timings.add("search", 1.0)
    b.timings.add("search", 0.5)
    b.timings.add("compile", 0.25)
    a.merge(b)
    assert a.timings.seconds("search") == 1.5
    assert a.timings.seconds("compile") == 0.25


def test_timings_are_not_part_of_equality_or_asdict() -> None:
    # The parity suite and the bench identical_output check compare stats
    # via == / asdict; nondeterministic wall clocks must stay invisible.
    a = EnumerationStats(search_calls=1)
    b = EnumerationStats(search_calls=1)
    a.timings.add("search", 123.0)
    assert a == b
    assert "timings" not in asdict(a)
    m1 = MaximumSearchStats()
    m2 = MaximumSearchStats()
    m1.timings.add("compile", 9.0)
    assert m1 == m2
    assert "timings" not in asdict(m1)


def _triangle_graph() -> UncertainGraph:
    graph = UncertainGraph()
    graph.add_edge("a", "b", 0.9)
    graph.add_edge("b", "c", 0.9)
    graph.add_edge("a", "c", 0.9)
    graph.add_edge("c", "d", 0.8)
    graph.add_edge("d", "e", 0.8)
    graph.add_edge("c", "e", 0.8)
    return graph


def test_enumeration_records_phase_timings() -> None:
    stats = EnumerationStats()
    list(muce_plus_plus(_triangle_graph(), 2, 0.5, stats=stats))
    for phase in ("prune", "cut", "compile", "search"):
        assert phase in stats.timings.laps, phase
        assert stats.timings.seconds(phase) >= 0.0


def test_decomposed_component_records_search_lap(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # A component above the kernel limit is decomposed, and its
    # sub-problems yield as they finish, interleaved with the consumer:
    # the search lap must be recorded, and must cover the generator's
    # own work only — not the time the consumer spends between cliques.
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 2)
    graph = _graded_k6()
    stats = EnumerationStats()
    pause = 0.02
    found = []
    for clique in muce_plus_plus(graph, 1, 0.05, stats=stats):
        time.sleep(pause)
        found.append(clique)
    assert stats.decomposed_components == 1
    assert len(found) > 1
    assert set(found) == set(reference.maximal_cliques(graph, 1, 0.05))
    assert 0.0 < stats.timings.seconds("search") < pause * len(found)


def test_abandoned_decomposed_enumeration_stops_early(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # Enumeration streams per sub-problem: a consumer that stops after
    # the first clique leaves the later sub-problems unsearched, so it
    # pays fewer search calls than a full run — and the lap of the work
    # it did pay is still recorded.
    monkeypatch.setattr(enumeration_mod, "KERNEL_COMPONENT_LIMIT", 2)
    graph = _graded_k6()
    full = EnumerationStats()
    assert len(list(muce_plus_plus(graph, 1, 0.05, stats=full))) > 1
    partial = EnumerationStats()
    search = muce_plus_plus(graph, 1, 0.05, stats=partial)
    next(search)
    search.close()
    assert partial.decomposed_components == 1
    assert 0 < partial.subproblems < full.subproblems
    assert 0 < partial.search_calls < full.search_calls
    assert "search" in partial.timings.laps


def _graded_k6() -> UncertainGraph:
    # Distinct edge probabilities: at tau = 0.05 the K6 splits into many
    # maximal cliques, spread over several sub-problems.
    graph = UncertainGraph()
    for u, v in itertools.combinations(range(6), 2):
        graph.add_edge(u, v, 0.5 + 0.01 * (u + v))
    return graph


def test_maximum_records_phase_timings() -> None:
    stats = MaximumSearchStats()
    max_uc_plus(_triangle_graph(), 2, 0.5, stats=stats)
    for phase in ("prune", "cut", "compile", "search"):
        assert phase in stats.timings.laps, phase
        assert stats.timings.seconds(phase) >= 0.0
