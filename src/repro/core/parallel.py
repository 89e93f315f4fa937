"""Process-parallel execution layer for the compiled search kernels.

After (Top_k, tau)-core pruning and cut optimization the graph splits
into independent components, and each component's top-level ``(R, C, X)``
branches are themselves independent subtrees — the search is
embarrassingly parallel at both granularities.  This module fans that
work over a :class:`~concurrent.futures.ProcessPoolExecutor`:

* **work units** are whole small components plus *top-level branch
  ranges* of large components (component sizes are heavily skewed, so
  component granularity alone cannot balance load).  A task is
  ``(compiled component, root candidates, root branch list, start,
  stop)`` run by :func:`repro.core.kernel.enumerate_pivot_range`; the
  driver does the root-call bookkeeping once via
  :func:`repro.core.kernel.enum_root_prep` and
  :func:`repro.core.kernel.pivot_root_plan` so per-range counters sum
  to the sequential totals.
* **what crosses the pipe** is the picklable
  :class:`~repro.core.kernel.CompiledComponent` (node labels + CSR
  arrays; every derived form is rebuilt worker-side) — never graph
  objects.
* **merging is deterministic**: tasks are keyed by
  ``(component ordinal, range start)`` and their outputs re-emitted in
  exactly that order, which *is* the sequential yield order; per-task
  stats fold into the caller's object via ``EnumerationStats.merge`` /
  ``MaximumSearchStats.merge``.  ``jobs=N`` is therefore bit-identical
  to ``jobs=1`` in cliques, order, and counters (pinned by
  ``tests/core/test_parallel_parity.py``).

For the branch-and-bound maximum search the component searches are *not*
independent — component ``i``'s pruning depends on the incumbent built
by components before it.  :func:`maximum_parallel` restores exact
sequential semantics with a speculative two-phase scheme:

1. **Phase A** searches every eligible component in parallel with the
   initial incumbent ``k``.  A component's result is its true maximum
   clique size whenever that exceeds ``k`` (upper-bound prunes can never
   cut a branch holding a clique larger than the incumbent, and the
   branch order is fixed, so the *first* maximum-size clique in DFS
   order is found under any incumbent below the true maximum — the same
   clique the sequential search reports).
2. The driver then **replays the incumbent chain** from the Phase A
   sizes, which determines exactly which components the sequential loop
   would have skipped and which incumbent each search would have seen.
3. **Phase B** re-runs, again in parallel, only the components whose
   sequential incumbent differs from ``k``; with the prescribed
   incumbent each re-run reproduces the sequential search call for call,
   so the merged counters equal the sequential ones exactly.  Components
   whose sequential incumbent *is* ``k`` reuse their Phase A stats.

A component above the kernel size limit is decomposed
(:mod:`repro.core.decompose`) and never shipped: the driver searches it
in place — the enumeration interleaves its sub-problems with the
consumer, and the maximum search runs it under the exact sequential
incumbent while replaying the chain, so it needs no Phase B.

The price of speculation is bounded re-search of non-first components;
in the benchmark graphs one skewed component dominates the runtime, so
the overlap is small compared to the fan-out win.
"""

from __future__ import annotations

import os
from concurrent.futures import Future, ProcessPoolExecutor
from typing import Iterator, Sequence

from repro.core.decompose import (
    DecomposedMaximum,
    DecompositionPlan,
    MaximumEntry,
    enumerate_decomposed,
    maximum_decomposed,
)
from repro.core.enumeration import EnumerationStats
from repro.core.kernel import (
    CompiledComponent,
    enum_root_prep,
    enumerate_pivot_range,
    maximum_compiled,
    pivot_root_plan,
)
from repro.core.maximum import MaximumSearchStats
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "resolve_jobs",
    "branch_ranges",
    "enumerate_parallel",
    "maximum_parallel",
]

#: Environment variable overriding the default ``jobs=1``: a positive
#: integer, or ``auto`` / ``0`` for ``os.cpu_count()``.
REPRO_JOBS_ENV = "REPRO_JOBS"

#: Components whose surviving root candidate list is shorter than this
#: run as a single task — splitting them buys nothing and pays the
#: per-task pickle + replay overhead.
_MIN_SPLIT_ROOTS = 16

#: Oversubscription factor: a splittable component is carved into up to
#: ``jobs * _TASKS_PER_JOB`` ranges so the pool can balance the heavily
#: skewed branch costs (early root branches own the longest tails).
_TASKS_PER_JOB = 4


def resolve_jobs(jobs: int | None) -> int:
    """Resolve the public ``jobs`` parameter to a concrete worker count.

    * ``jobs > 1`` — used as given (explicit wins over the environment);
    * ``jobs=None`` — ``REPRO_JOBS`` if set, else ``os.cpu_count()``;
    * ``jobs=1`` (the API default) — ``REPRO_JOBS`` if set, else ``1``,
      so scripts can opt whole pipelines into parallelism without code
      changes while direct callers keep the sequential default.

    ``REPRO_JOBS`` accepts a positive integer or ``auto`` / ``0``
    meaning ``os.cpu_count()``.
    """
    if jobs is not None and jobs != 1:
        if jobs < 1:
            raise ValueError(f"jobs must be >= 1 or None, got {jobs}")
        return jobs
    env = os.environ.get(REPRO_JOBS_ENV, "").strip()
    if env:
        if env.lower() in ("auto", "0"):
            return os.cpu_count() or 1
        try:
            value = int(env)
        except ValueError:
            raise ValueError(
                f"{REPRO_JOBS_ENV} must be a positive integer, 'auto' or "
                f"'0', got {env!r}"
            ) from None
        if value < 1:
            raise ValueError(
                f"{REPRO_JOBS_ENV} must be >= 1, 'auto' or '0', got {env!r}"
            )
        return value
    if jobs is None:
        return os.cpu_count() or 1
    return 1


def branch_ranges(n_roots: int, n_ranges: int) -> list[tuple[int, int]]:
    """Split ``range(n_roots)`` into at most ``n_ranges`` contiguous
    ``(start, stop)`` ranges whose sizes differ by at most one (earlier
    ranges take the remainder).  Always returns at least one range; the
    ranges partition ``[0, n_roots)`` in order."""
    n_ranges = max(1, min(n_ranges, n_roots))
    base, extra = divmod(n_roots, n_ranges)
    ranges: list[tuple[int, int]] = []
    start = 0
    for i in range(n_ranges):
        stop = start + base + (1 if i < extra else 0)
        ranges.append((start, stop))
        start = stop
    return ranges


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------

def _pivot_task(
    comp: CompiledComponent,
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    cands: list[tuple[int, float]],
    branches: list[int],
    start: int,
    stop: int,
) -> tuple[list[frozenset[Node]], EnumerationStats]:
    """Worker: pivot search of one root *branch-list* range.

    The driver computed the root plan (pivot + absorption) once and
    ships the resulting branch list; the range function replays the
    branches before ``start`` silently, so per-range counters sum to the
    sequential totals.
    """
    stats = EnumerationStats()
    out = enumerate_pivot_range(
        comp, k, tau_floor, min_size, insearch, insearch_min_candidates,
        cands, branches, start, stop, stats,
    )
    return out, stats


def enumerate_parallel(
    components: Sequence[UncertainGraph],
    compiled: Sequence[CompiledComponent | DecompositionPlan | None],
    k: int,
    tau_floor: float,
    min_size: int,
    insearch: bool,
    insearch_min_candidates: int,
    component_limit: int,
    n_jobs: int,
    stats: EnumerationStats,
) -> Iterator[frozenset[Node]]:
    """Fan the per-component enumeration over ``n_jobs`` processes.

    Yields exactly the sequential clique sequence: tasks are emitted in
    ``(component ordinal, range start)`` order, and ranges within a
    component always see the same root state the sequential loop built
    (see :func:`repro.core.kernel.enumerate_pivot_range`).  ``stats``
    ends up identical to a ``jobs=1`` run: the driver does the root-call
    bookkeeping per component, workers count their range, and ``merge``
    folds the rest back in.

    ``compiled`` is the compile-stage artifact of
    :func:`repro.core.pipeline.compile_enumeration_stage`: a
    :class:`CompiledComponent` per component the kernel searches whole,
    a :class:`~repro.core.decompose.DecompositionPlan` per component
    above ``component_limit``, ``None`` for components below
    ``min_size``.  Each compiled component's root *branch list* comes
    from :func:`repro.core.kernel.pivot_root_plan`, run once in the
    driver, so the replayed root state of every range honors the root
    pivot's absorption.  A decomposed component runs in the driver
    process, one sub-problem at a time and interleaved with the consumer
    exactly as in the sequential loop, while the pool keeps chewing on
    compiled tasks.
    """
    # One slot per searched component, in order: either a decomposition
    # plan or the list of branch-range payloads.
    plan_slot: dict[int, DecompositionPlan] = {}
    task_slot: dict[int, list[tuple[CompiledComponent, list[tuple[int, float]], list[int], int, int]]] = {}
    slot_order: list[int] = []
    for ordinal, component in enumerate(components):
        if component.num_nodes < min_size:
            continue
        comp = compiled[ordinal]
        if isinstance(comp, DecompositionPlan):
            plan_slot[ordinal] = comp
            slot_order.append(ordinal)
            continue
        assert comp is not None  # min_size <= n <= component_limit
        cands = enum_root_prep(
            comp, k, tau_floor, min_size, insearch,
            insearch_min_candidates, stats,
        )
        if cands is None:
            continue
        # Root plan in the driver (counted once); ranges partition the
        # branch list, and absorbed candidates never split off.
        branches = pivot_root_plan(comp, k, tau_floor, min_size, cands,
                                   stats)
        n_roots = len(branches)
        if n_roots >= _MIN_SPLIT_ROOTS:
            ranges = branch_ranges(
                n_roots,
                min(n_jobs * _TASKS_PER_JOB, n_roots // _MIN_SPLIT_ROOTS),
            )
        else:
            ranges = [(0, n_roots)]
        task_slot[ordinal] = [
            (comp, cands, branches, start, stop) for start, stop in ranges
        ]
        slot_order.append(ordinal)

    def decomposed(ordinal: int) -> Iterator[frozenset[Node]]:
        return enumerate_decomposed(
            plan_slot[ordinal], k, tau_floor, min_size, insearch,
            insearch_min_candidates, stats,
        )

    if not task_slot:
        # Nothing to ship: run any decomposed components and return
        # without paying for a worker pool.
        for ordinal in slot_order:
            yield from decomposed(ordinal)
        return

    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        futures: dict[int, list[Future[tuple[list[frozenset[Node]], EnumerationStats]]]] = {
            ordinal: [
                pool.submit(
                    _pivot_task, comp, k, tau_floor, min_size, insearch,
                    insearch_min_candidates, cands, branches, start, stop,
                )
                for comp, cands, branches, start, stop in tasks
            ]
            for ordinal, tasks in task_slot.items()
        }
        for ordinal in slot_order:
            if ordinal in plan_slot:
                yield from decomposed(ordinal)
                continue
            for future in futures[ordinal]:
                cliques, task_stats = future.result()
                stats.merge(task_stats)
                yield from cliques


# ----------------------------------------------------------------------
# Maximum
# ----------------------------------------------------------------------

def _max_task(
    comp: CompiledComponent,
    color: list[int],
    k: int,
    tau_floor: float,
    min_size: int,
    best_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
) -> tuple[list[Node] | None, int, MaximumSearchStats]:
    """Worker: MaxUC+ search of one compiled component with a prescribed
    incumbent; returns the improvement (or ``None``) and the counters."""
    stats = MaximumSearchStats()
    best, new_size = maximum_compiled(
        comp, color, k, tau_floor, min_size, best_size, use_advanced_one,
        use_advanced_two, insearch, stats,
    )
    return best, new_size, stats


def maximum_parallel(
    components: Sequence[UncertainGraph],
    precompiled: Sequence[MaximumEntry | None],
    k: int,
    tau_floor: float,
    min_size: int,
    use_advanced_one: bool,
    use_advanced_two: bool,
    insearch: bool,
    n_jobs: int,
    stats: MaximumSearchStats,
) -> tuple[list[Node] | None, int]:
    """Fan the MaxUC+ component loop over ``n_jobs`` processes.

    Returns ``(best, best_size)`` exactly as the sequential component
    loop would, with ``stats`` counters identical to ``jobs=1`` — see
    the module docstring for the speculative two-phase argument.

    ``precompiled`` is the compile-stage artifact: one entry per
    component with more than ``k`` nodes (anything smaller is skipped
    under every incumbent the chain can produce), ``None`` for the rest.
    An entry is a ``(compiled component, color array)`` pair, or a
    :class:`~repro.core.decompose.DecomposedMaximum` for a component
    above the kernel size limit.  Decomposed components never go to the
    pool: the driver searches them while replaying the incumbent chain,
    under the exact sequential incumbent, so their counters need no
    re-measurement.
    """
    best: list[Node] | None = None
    best_size = k
    if not any(entry is not None for entry in precompiled):
        return best, best_size

    final_stats: list[MaximumSearchStats | None] = [None] * len(precompiled)
    with ProcessPoolExecutor(max_workers=n_jobs) as pool:
        # Phase A: every eligible compiled component, speculative
        # incumbent k.
        phase_a: dict[int, Future[tuple[list[Node] | None, int, MaximumSearchStats]]] = {}
        for i, entry in enumerate(precompiled):
            if entry is None or isinstance(entry, DecomposedMaximum):
                continue
            comp, color = entry
            phase_a[i] = pool.submit(
                _max_task, comp, color, k, tau_floor, min_size, k,
                use_advanced_one, use_advanced_two, insearch,
            )
        results_a = {i: future.result() for i, future in phase_a.items()}

        # Replay the sequential incumbent chain from the Phase A sizes.
        rerun: list[tuple[int, int, tuple[CompiledComponent, list[int]]]] = []
        for i, entry in enumerate(precompiled):
            if entry is None:
                continue
            if components[i].num_nodes <= best_size:
                continue  # the sequential loop skips it: no search, no stats
            if isinstance(entry, DecomposedMaximum):
                entry_stats = MaximumSearchStats()
                improved, best_size = maximum_decomposed(
                    entry, k, tau_floor, min_size, best_size,
                    use_advanced_one, use_advanced_two, insearch,
                    entry_stats,
                )
                final_stats[i] = entry_stats
                if improved is not None:
                    best = improved
                continue
            a_best, a_size, a_stats = results_a[i]
            if best_size == k:
                # Phase A ran with exactly the sequential incumbent —
                # its stats and result are the sequential ones.
                final_stats[i] = a_stats
                if a_best is not None:
                    best = a_best
                    best_size = a_size
            else:
                # Sequential incumbent differs: the counters must be
                # re-measured (Phase B), but the outcome is already
                # known — a_size is the component's true maximum when it
                # beats k, and B&B under any smaller incumbent finds the
                # same first maximum-size clique in DFS order.
                rerun.append((i, best_size, entry))
                if a_best is not None and a_size > best_size:
                    best = a_best
                    best_size = a_size

        # Phase B: exact sequential stats for the re-measured components.
        phase_b = [
            (i, pool.submit(
                _max_task, comp, color, k, tau_floor, min_size, incumbent,
                use_advanced_one, use_advanced_two, insearch,
            ))
            for i, incumbent, (comp, color) in rerun
        ]
        for i, future in phase_b:
            _, _, b_stats = future.result()
            final_stats[i] = b_stats

    for entry_stats in final_stats:
        if entry_stats is not None:
            stats.merge(entry_stats)
    return best, best_size
