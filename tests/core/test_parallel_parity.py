"""Parity suite for the process-parallel layer: ``jobs=N`` must be
indistinguishable from ``jobs=1``.

The contract is exact, not approximate: bit-identical cliques, identical
yield order, and identical merged stats counters for both
``maximal_cliques`` and ``max_uc_plus``.  The property tests run few
examples (every example pays a worker-pool spawn) but force the
stress-relevant configuration: the branch-split threshold is dropped so
even tiny components are carved into root ranges, which exercises the
silent prefix replay and the deterministic ``(ordinal, start)`` merge on
every example.
"""

from __future__ import annotations

import itertools
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import repro.core.enumeration as enumeration_mod
import repro.core.parallel as parallel_mod
from repro import UncertainGraph, reference
from repro.core.enumeration import EnumerationStats, maximal_cliques
from repro.core.kernel import (
    enum_root_prep,
    enumerate_pivot_range,
    pivot_root_plan,
)
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from repro.core.parallel import branch_ranges, resolve_jobs
from repro.reference import compile_component
from repro.utils.validation import threshold_floor

PROBABILITY_PALETTE = (0.25, 0.4, 0.4, 0.5, 0.7, 0.7, 0.9, 1.0)
TAUS = (0.01, 0.1, 0.3, 0.6)


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
    for u, v in itertools.combinations(nodes, 2):
        if draw(st.booleans()):
            probability = draw(st.sampled_from(PROBABILITY_PALETTE))
            graph.add_edge(u, v, probability)
    return graph


@pytest.fixture
def force_branch_splitting() -> None:
    # Split even tiny components into root ranges so every example with a
    # component exercises replay + merge, not just the whole-component
    # fast path.
    original = parallel_mod._MIN_SPLIT_ROOTS
    parallel_mod._MIN_SPLIT_ROOTS = 2
    yield
    parallel_mod._MIN_SPLIT_ROOTS = original


@settings(
    max_examples=15,
    deadline=None,
    # The fixture is a module-level monkeypatch that stays in place for
    # the whole test; once-per-function setup is exactly what it needs.
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_enumeration_jobs_parity(
    force_branch_splitting: None, graph: UncertainGraph, k: int, tau: float
) -> None:
    sequential_stats = EnumerationStats()
    sequential = list(maximal_cliques(graph, k, tau, stats=sequential_stats))
    parallel_stats = EnumerationStats()
    parallel = list(
        maximal_cliques(graph, k, tau, stats=parallel_stats, jobs=2)
    )
    assert parallel == sequential
    assert asdict(parallel_stats) == asdict(sequential_stats)


@settings(max_examples=15, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=4),
    tau=st.sampled_from(TAUS),
)
def test_maximum_jobs_parity(
    graph: UncertainGraph, k: int, tau: float
) -> None:
    sequential_stats = MaximumSearchStats()
    sequential = max_uc_plus(graph, k, tau, stats=sequential_stats)
    parallel_stats = MaximumSearchStats()
    parallel = max_uc_plus(graph, k, tau, stats=parallel_stats, jobs=2)
    assert parallel == sequential
    assert asdict(parallel_stats) == asdict(sequential_stats)


def _two_triangles() -> UncertainGraph:
    graph = UncertainGraph()
    for u, v in itertools.combinations(("a", "b", "c", "d"), 2):
        graph.add_edge(u, v, 0.9)
    for u, v in itertools.combinations(("x", "y", "z"), 2):
        graph.add_edge(u, v, 0.8)
    return graph


def test_oversized_components_fall_back_and_interleave_in_order() -> None:
    # With the kernel limit squeezed below one component's size, jobs=2
    # must decompose that component in the driver, one sub-problem view
    # per vertex, while the other still runs on the pool — and the
    # merged output, counters included, must equal the squeezed
    # sequential run and the reference's clique set.
    graph = _two_triangles()
    original = enumeration_mod.KERNEL_COMPONENT_LIMIT
    enumeration_mod.KERNEL_COMPONENT_LIMIT = 3
    try:
        sequential_stats = EnumerationStats()
        sequential = list(
            maximal_cliques(graph, 2, 0.3, stats=sequential_stats)
        )
        mixed_stats = EnumerationStats()
        mixed = list(
            maximal_cliques(graph, 2, 0.3, stats=mixed_stats, jobs=2)
        )
    finally:
        enumeration_mod.KERNEL_COMPONENT_LIMIT = original
    assert mixed == sequential
    assert asdict(mixed_stats) == asdict(sequential_stats)
    # The 4-node component was decomposed: a's sub-problem holds the
    # K4, b's finds {b, c, d} vetoed by its witness a, and c's and d's
    # are too small for k = 2.  The triangle ran compiled.
    assert sequential_stats.decomposed_components == 1
    assert sequential_stats.subproblems == 2
    assert len(sequential) == len(set(sequential))
    assert set(sequential) == set(reference.maximal_cliques(graph, 2, 0.3))
    assert sequential.index(frozenset("abcd")) < sequential.index(
        frozenset("xyz")
    )


@settings(max_examples=25, deadline=None)
@given(
    graph=uncertain_graphs(),
    k=st.integers(min_value=0, max_value=3),
    tau=st.sampled_from(TAUS),
    limit=st.sampled_from((0, 2, 3)),
)
def test_decomposed_maximum_jobs_parity(
    graph: UncertainGraph, k: int, tau: float, limit: int
) -> None:
    # Decomposed components never go to the pool: the driver searches
    # them under the sequential incumbent while replaying the chain, so
    # answer and counters still equal jobs=1.
    original = enumeration_mod.KERNEL_COMPONENT_LIMIT
    enumeration_mod.KERNEL_COMPONENT_LIMIT = limit
    try:
        sequential_stats = MaximumSearchStats()
        sequential = max_uc_plus(graph, k, tau, stats=sequential_stats)
        parallel_stats = MaximumSearchStats()
        parallel = max_uc_plus(
            graph, k, tau, stats=parallel_stats, jobs=2
        )
    finally:
        enumeration_mod.KERNEL_COMPONENT_LIMIT = original
    assert parallel == sequential
    assert asdict(parallel_stats) == asdict(sequential_stats)


def test_range_partition_concatenates_to_sequential_output() -> None:
    # Kernel-level check without a pool: enum_root_prep + pivot_root_plan
    # + any partition of the root branch list must concatenate to the
    # whole-range cliques with stats summing to the whole-range totals.
    graph = UncertainGraph()
    for u, v in itertools.combinations(range(7), 2):
        if (u + v) % 3:
            graph.add_edge(u, v, PROBABILITY_PALETTE[(u * 7 + v) % 8])
    k, tau, min_size = 2, 0.1, 3
    tau_floor = threshold_floor(tau)
    comp = compile_component(graph)

    def search(partition: int) -> tuple[list[frozenset[object]], dict]:
        stats = EnumerationStats()
        cands = enum_root_prep(comp, k, tau_floor, min_size, True, 0, stats)
        assert cands is not None
        branches = pivot_root_plan(comp, k, tau_floor, min_size, cands,
                                   stats)
        out = []
        for start, stop in branch_ranges(len(branches), partition):
            out.extend(
                enumerate_pivot_range(
                    comp, k, tau_floor, min_size, True, 0, cands, branches,
                    start, stop, stats,
                )
            )
        return out, asdict(stats)

    whole = search(1)
    assert whole[0]
    assert search(3) == whole


def test_branch_ranges_partition_evenly() -> None:
    for n_roots in (0, 1, 5, 16, 17, 100):
        for n_ranges in (1, 2, 3, 7, 200):
            ranges = branch_ranges(n_roots, n_ranges)
            # Contiguous partition of [0, n_roots) in order.
            assert ranges[0][0] == 0
            assert ranges[-1][1] == n_roots
            for (_, stop), (start, _) in zip(ranges, ranges[1:]):
                assert stop == start
            sizes = [stop - start for start, stop in ranges]
            assert max(sizes) - min(sizes) <= 1
            assert len(ranges) <= max(1, min(n_ranges, n_roots))


def test_resolve_jobs_semantics(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    assert resolve_jobs(1) == 1
    assert resolve_jobs(4) == 4
    assert resolve_jobs(None) >= 1  # cpu_count
    with pytest.raises(ValueError):
        resolve_jobs(0)
    with pytest.raises(ValueError):
        resolve_jobs(-2)

    monkeypatch.setenv("REPRO_JOBS", "3")
    assert resolve_jobs(1) == 3  # env overrides the default
    assert resolve_jobs(None) == 3
    assert resolve_jobs(2) == 2  # explicit > 1 wins over env

    monkeypatch.setenv("REPRO_JOBS", "auto")
    assert resolve_jobs(1) >= 1
    monkeypatch.setenv("REPRO_JOBS", "0")
    assert resolve_jobs(1) >= 1
    monkeypatch.setenv("REPRO_JOBS", "banana")
    with pytest.raises(ValueError):
        resolve_jobs(1)
    monkeypatch.setenv("REPRO_JOBS", "-1")
    with pytest.raises(ValueError):
        resolve_jobs(1)


def test_repro_jobs_env_routes_the_default_path(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    # jobs is left at its default: the env var alone must opt the run
    # into the parallel path and still produce the sequential answer.
    graph = _two_triangles()
    monkeypatch.delenv("REPRO_JOBS", raising=False)
    sequential_stats = EnumerationStats()
    sequential = list(maximal_cliques(graph, 2, 0.3, stats=sequential_stats))
    monkeypatch.setenv("REPRO_JOBS", "2")
    env_stats = EnumerationStats()
    via_env = list(maximal_cliques(graph, 2, 0.3, stats=env_stats))
    assert via_env == sequential
    assert asdict(env_stats) == asdict(sequential_stats)


def test_compiled_component_pickle_roundtrip() -> None:
    import pickle

    graph = _two_triangles()
    comp = compile_component(graph)
    clone = pickle.loads(pickle.dumps(comp))
    assert clone.nodes == comp.nodes
    assert clone.index == comp.index
    assert clone.adj == comp.adj
    assert clone.width == comp.width
    assert clone.rows == comp.rows
    assert clone.full_mask == comp.full_mask
    assert list(clone.row_offsets) == list(comp.row_offsets)
    assert list(clone.nbr_ids) == list(comp.nbr_ids)
    assert list(clone.nbr_probs) == list(comp.nbr_probs)
