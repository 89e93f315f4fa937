"""Answer checks, run after the clock stops.

The timed loop keeps each enumeration answer as an order-free digest
(see ``OpRecord.seal``) and keeps every other answer whole.  Once the
loop is over, :func:`check_records` holds them against references
computed here:

* an enumeration must be set-identical to the answer of a fresh, cold
  ``PreparedGraph`` on a copy of the same graph version, and that answer
  must pass ``verify_maximal_cliques``;
* a maximum answer must be a (k, tau)-clique as large as the largest
  clique that reference enumerates;
* a ``cliques_containing`` answer must equal the operation's standing
  enumeration filtered to the anchor node.

``verify_maximal_cliques`` checks maximality by scanning extensions, which
costs from 0.3 ms per clique on dblp_like to 7-36 ms on the hub-heavy
communication graphs, and the dense graphs hold tens of thousands of
cliques per point.  So an answer larger than :data:`VERIFY_CAP` is
verified on a seeded sample of that many cliques.  The digest comparison
with the cold reference always covers the whole answer.
"""

from __future__ import annotations

import multiprocessing
import random
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Iterable

from repro import PreparedGraph, is_k_tau_clique, verify_maximal_cliques

#: Most cliques of one answer that go through ``verify_maximal_cliques``.
VERIFY_CAP = 20

_MASK = (1 << 64) - 1


def digest(cliques: Iterable[frozenset[Any]]) -> tuple[int, int]:
    """Order-free digest of an answer: (count, sum of clique hashes)."""
    count = total = 0
    for clique in cliques:
        count += 1
        total = (total + hash(clique)) & _MASK
    return count, total


def verify(
    graph: Any, cliques: list[frozenset[Any]], k: int, tau: float,
    rng: random.Random,
) -> str | None:
    """``verify_maximal_cliques`` over (a sample of) ``cliques``."""
    sample = (
        cliques if len(cliques) <= VERIFY_CAP
        else rng.sample(cliques, VERIFY_CAP)
    )
    report = verify_maximal_cliques(graph, sample, k, tau)
    return None if report.ok else report.summary()


def cold_reference(graph: Any, k: int, tau: float) -> set[frozenset[Any]]:
    """The answer of a fresh session on a copy of ``graph``."""
    return set(PreparedGraph(graph.copy()).maximal_cliques(k, tau))


def check_enum(record: Any, reference: set[frozenset[Any]]) -> str | None:
    """An enumeration must be set-identical to its cold reference."""
    if record.digest != digest(reference):
        return (
            f"{record.digest[0]} cliques, not set-identical to the cold "
            f"reference ({len(reference)} cliques)"
        )
    return None


def check_max(
    graph: Any, record: Any, reference: set[frozenset[Any]]
) -> str | None:
    """A maximum answer: a (k, tau)-clique of the largest enumerated size."""
    largest = max((len(c) for c in reference), default=0)
    if record.best is None:
        return None if largest == 0 else f"no answer, expected size {largest}"
    if len(record.best) != largest:
        return f"size {len(record.best)}, largest enumerated is {largest}"
    if not is_k_tau_clique(graph, record.best, record.k, record.tau):
        return "not a (k, tau)-clique"
    return None


def check_anchored(record: Any) -> str | None:
    """``cliques_containing`` equals the standing answer filtered to the anchor."""
    if len(record.anchored) != len(set(record.anchored)):
        return "duplicate cliques in the anchored answer"
    if set(record.anchored) != set(record.anchor_hits):
        return (
            f"anchored answer has {len(record.anchored)} cliques, the "
            f"standing answer holds {len(record.anchor_hits)} with the anchor"
        )
    return None


#: Forked check processes.  Run serially, the check takes 22 s of a 50 s
#: ``dense_explore`` run and 29 s of a 50 s ``update_stream`` run (2-CPU
#: x86-64 host), mostly the cold reference enumerations; two workers
#: halve that, which keeps a full set of benchmark runs within its time
#: budget.
CHECK_WORKERS = 2


def check_records(
    records: list[Any],
    graph_at: Callable[[Any], Any],
    seed: int,
) -> dict[int, str]:
    """Check every record; return ``{op_id: reason}`` for the failures.

    Records are grouped by graph, version and point; each group shares
    one cold reference.  ``graph_at(record)`` returns the graph version
    the operation saw, and is called with versions in stream order, so a
    workload that replays a mutation stream can advance its replay as it
    goes.  The groups are split round-robin between
    :data:`CHECK_WORKERS` forked processes (each with its own copy of
    ``graph_at``'s state), which all end before this returns.
    """
    ordered = sorted(
        (r for r in records if r.kind != "error"),
        key=lambda r: (r.graph, r.step, r.k, r.tau, r.op_id),
    )
    groups: list[list[Any]] = []
    for record in ordered:
        if groups and _key(groups[-1][0]) == _key(record):
            groups[-1].append(record)
        else:
            groups.append([record])
    if len(groups) < 2:
        return _check_groups(groups, graph_at, seed)
    global _JOB
    _JOB = (groups, graph_at, seed)
    context = multiprocessing.get_context("fork")
    try:
        with ProcessPoolExecutor(CHECK_WORKERS, mp_context=context) as pool:
            shares = list(pool.map(_check_share, range(CHECK_WORKERS)))
    finally:
        _JOB = None
    failures: dict[int, str] = {}
    for share in shares:
        failures.update(share)
    return failures


#: The job the forked check workers inherit: groups, graph_at, seed.
_JOB: tuple[Any, ...] | None = None


def _key(record: Any) -> tuple[Any, ...]:
    return (record.graph, record.step, record.k, record.tau)


def _check_share(worker: int) -> dict[int, str]:
    assert _JOB is not None
    groups, graph_at, seed = _JOB
    return _check_groups(groups[worker::CHECK_WORKERS], graph_at, seed)


def _check_groups(
    groups: list[list[Any]], graph_at: Callable[[Any], Any], seed: int
) -> dict[int, str]:
    failures: dict[int, str] = {}
    for group in groups:
        first = group[0]
        graph = graph_at(first)
        reference = cold_reference(graph, first.k, first.tau)
        unsound = None
        if any(record.kind != "max" for record in group):
            rng = random.Random(f"verify:{seed}:{_key(first)}")
            unsound = verify(
                graph, sorted(reference, key=sorted), first.k, first.tau, rng
            )
        for record in group:
            if record.kind == "max":
                problem = check_max(graph, record, reference)
            else:
                problem = check_enum(record, reference) or unsound
                if problem is None and record.kind == "update":
                    problem = check_anchored(record)
            if problem is not None:
                failures[record.op_id] = f"{record.label}: {problem}"
    return failures
