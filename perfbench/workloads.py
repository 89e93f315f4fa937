"""The three closed-loop workloads: set-up, seeded rounds, one operation.

Each workload runs as one client in one process: the next operation is
sent only after the previous answer is back.  The operation sequence is
cut into *rounds*; a round is a seeded order of a fixed multiset of
operations, so every run does the same work whatever the seed.  How many
rounds a run makes follows from ``--seconds`` alone (see
:attr:`Workload.round_s`), never from how fast the rounds went, so a
faster host or a faster commit measures the same operations.

An operation returns an :class:`OpRecord`.  It carries what the answer
check needs (see ``answers.py``) and the library's own counters for the
operation (``stats.timings`` laps and ``cache_info()`` deltas), which the
traced run compares with the spans it measured from outside.  The loop
calls :meth:`OpRecord.seal` on it once the operation's clock stops.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

from repro import (
    EnumerationStats,
    KTauCoreMaintainer,
    MaximumSearchStats,
    PreparedGraph,
    dp_core_plus,
)
from repro.datasets.registry import load_dataset

from answers import digest

#: The (k, tau) points every workload visits.  (4, 0.1) is left out: one
#: wikitalk_like enumeration there takes about ten seconds on its own.
POINTS: tuple[tuple[int, float], ...] = (
    (4, 0.2), (4, 0.3), (5, 0.2), (6, 0.2),
    (6, 0.1), (10, 0.1), (10, 0.2), (10, 0.3),
)

#: The standing query of ``update_stream``.
STANDING = (4, 0.2)

#: Counters read from ``cache_info()`` around every operation.
CACHE_KEYS = ("hits", "misses", "evictions", "delta_patches", "full_compiles")


@dataclass
class OpRecord:
    """One operation's answers plus the library's own accounting."""

    op_id: int
    kind: str  # "enum" | "max" | "update"
    label: str
    graph: str
    k: int
    tau: float
    step: int = -1  # update_stream: index into the update stream
    cliques: list[frozenset[Any]] | None = None
    digest: tuple[int, int] | None = None
    best: frozenset[Any] | None = None
    anchor: Any = None
    anchored: list[frozenset[Any]] | None = None
    anchor_hits: list[frozenset[Any]] | None = None
    laps: dict[str, float] = field(default_factory=dict)
    cache: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)

    def seal(self) -> None:
        """Reduce the enumeration answer to what the check needs.

        Runs outside the operation's timing.  Keeping whole answers alive
        would make every later operation's garbage collections scan them,
        so the cost of an operation would depend on the ones before it.
        The digest stands in for the answer; the check verifies the cold
        reference it must equal.
        """
        if self.cliques is None:
            return
        self.digest = digest(self.cliques)
        if self.anchored is not None:
            self.anchor_hits = [c for c in self.cliques if self.anchor in c]
        self.cliques = None


def _cache_snapshot(session: PreparedGraph) -> dict[str, int]:
    info = session.cache_info()
    return {key: int(info[key]) for key in CACHE_KEYS}


def _cache_delta(
    before: dict[str, int], session: PreparedGraph
) -> dict[str, int]:
    after = _cache_snapshot(session)
    return {key: after[key] - before[key] for key in CACHE_KEYS}


def _enum_counters(stats: EnumerationStats) -> dict[str, int]:
    return {
        "enum_search_calls": stats.search_calls,
        "pivot_branches": stats.pivot_branches,
        "pivot_skipped": stats.pivot_skipped,
        "cliques": stats.cliques,
    }


def _max_counters(stats: MaximumSearchStats) -> dict[str, int]:
    return {
        "max_search_calls": stats.search_calls,
        "pivot_branches": stats.pivot_branches,
        "pivot_skipped": stats.pivot_skipped,
    }


class Workload:
    """Base class: a named set of graphs and a seeded round of operations."""

    name = ""
    datasets: tuple[str, ...] = ()

    #: Reference seconds one round took at the first baseline.  A run of
    #: ``seconds`` makes ``round(seconds / round_s)`` rounds, at least one.
    round_s = 1.0

    def __init__(self, scale: float, seed: int, seconds: float) -> None:
        self.scale = scale
        self.seed = seed
        self.rounds = max(1, round(seconds / self.round_s))
        self.rng = random.Random(f"{self.name}:{seed}")
        self.graphs: dict[str, Any] = {}

    def setup(self) -> float:
        """Build every input from scratch; return the ``load_dataset`` seconds.

        The graphs are the registry defaults whatever the workload seed:
        the seed picks the operation sequence only.  Graphs built from
        other dataset seeds differ too much in search cost (cahepth_like
        holds 34,118 cliques at (4, 0.2) with its default seed and 271
        with seed 200) for runs over different seeds to agree.

        Called several times per run (the median is ``setup_s``); each
        call replaces the previous inputs.
        """
        load_s = 0.0
        for name in self.datasets:
            t0 = perf_counter()
            self.graphs[name] = load_dataset(name, self.scale)
            load_s += perf_counter() - t0
        return load_s

    def prepare(self) -> None:
        """Untimed work between set-up and the first timed operation."""

    def round_ops(self, index: int) -> list[Any]:
        """The operation specs of round ``index``, in order."""
        raise NotImplementedError

    def run(self, op_id: int, spec: Any) -> OpRecord:
        raise NotImplementedError


def _query(
    session: PreparedGraph, op_id: int, graph: str, kind: str,
    k: int, tau: float,
) -> OpRecord:
    """One enumeration (fully consumed) or one maximum query."""
    before = _cache_snapshot(session)
    record = OpRecord(
        op_id, kind, f"{graph} {kind} ({k}, {tau})", graph, k, tau
    )
    if kind == "enum":
        estats = EnumerationStats()
        record.cliques = list(session.maximal_cliques(k, tau, stats=estats))
        record.laps = dict(estats.timings.laps)
        record.counters = _enum_counters(estats)
    else:
        mstats = MaximumSearchStats()
        record.best = session.max_uc_plus(k, tau, stats=mstats)
        record.laps = dict(mstats.timings.laps)
        record.counters = _max_counters(mstats)
    record.cache = _cache_delta(before, session)
    return record


class ColdSparse(Workload):
    name = "cold_sparse"
    datasets = ("askubuntu_like", "superuser_like", "dblp_like")
    round_s = 14.6

    def round_ops(self, index: int) -> list[Any]:
        """Round ``index``: both query kinds at every point on every
        graph, twice each, in a seeded order."""
        ops = [
            (graph, kind, k, tau)
            for graph in self.datasets
            for k, tau in POINTS
            for kind in ("enum", "max")
        ] * 2
        self.rng.shuffle(ops)
        return ops

    def run(self, op_id: int, spec: Any) -> OpRecord:
        graph, kind, k, tau = spec
        session = PreparedGraph(self.graphs[graph])
        return _query(session, op_id, graph, kind, k, tau)


class DenseExplore(Workload):
    name = "dense_explore"
    datasets = ("cahepth_like", "wikitalk_like")
    round_s = 18.8

    def prepare(self) -> None:
        self.sessions = {
            name: PreparedGraph(graph) for name, graph in self.graphs.items()
        }

    def round_ops(self, index: int) -> list[Any]:
        """Round ``index``: three passes over every point of every graph.

        The first pass, in a seeded order, visits each point with an
        enumeration and then a maximum query; the next two, each in
        another seeded order, revisit each point with a maximum query.
        The revisits find the point's prune and cut artifacts warm.
        Fixing which kind comes first keeps the cost of every operation
        independent of the seed.
        """
        visits = [(graph, k, tau) for graph in self.datasets
                  for k, tau in POINTS]
        self.rng.shuffle(visits)
        ops = [
            (graph, kind, k, tau)
            for graph, k, tau in visits
            for kind in ("enum", "max")
        ]
        for _ in range(2):
            self.rng.shuffle(visits)
            ops += [(graph, "max", k, tau) for graph, k, tau in visits]
        return ops

    def run(self, op_id: int, spec: Any) -> OpRecord:
        graph, kind, k, tau = spec
        return _query(self.sessions[graph], op_id, graph, kind, k, tau)


#: One update_stream round: 60% reweights, 20% inserts, 20% deletes.
UPDATE_ROUND = ("reweight",) * 48 + ("insert",) * 16 + ("delete",) * 16


class UpdateStream(Workload):
    name = "update_stream"
    datasets = ("dblp_like",)
    round_s = 11.8

    def setup(self) -> float:
        load_s = super().setup()
        self.stream = build_update_stream(
            self.graphs["dblp_like"],
            random.Random(f"{self.name}:{self.seed}:stream"),
            self.rounds,
        )
        return load_s

    def prepare(self) -> None:
        graph = self.graphs["dblp_like"]
        self.initial = graph.copy()
        self.session = PreparedGraph(graph)
        self.maintainer = KTauCoreMaintainer(self.session, *STANDING)

    def round_ops(self, index: int) -> list[Any]:
        size = len(UPDATE_ROUND)
        return list(range(index * size, (index + 1) * size))

    def run(self, op_id: int, step: Any) -> OpRecord:
        op, u, v, p = self.stream[step]
        k, tau = STANDING
        session = self.session
        before = _cache_snapshot(session)
        if op == "reweight":
            self.maintainer.set_probability(u, v, p)
        elif op == "insert":
            self.maintainer.add_edge(u, v, p)
        else:
            self.maintainer.remove_edge(u, v)
        estats = EnumerationStats()
        cliques = list(session.maximal_cliques(k, tau, stats=estats))
        anchored = list(session.cliques_containing(u, k, tau))
        record = OpRecord(
            op_id, "update", f"dblp_like {op} ({u}, {v})",
            "dblp_like", k, tau, step=step,
        )
        record.cliques = cliques
        record.anchor = u
        record.anchored = anchored
        record.laps = dict(estats.timings.laps)
        record.counters = _enum_counters(estats)
        record.cache = _cache_delta(before, session)
        return record


def apply_update(graph: Any, update: tuple[Any, ...]) -> None:
    """Apply one stream entry to a plain graph (the check's replay)."""
    op, u, v, p = update
    if op == "reweight":
        graph.set_probability(u, v, p)
    elif op == "insert":
        graph.add_edge(u, v, p)
    else:
        graph.remove_edge(u, v)


def build_update_stream(
    graph: Any, rng: random.Random, rounds: int
) -> list[tuple[Any, ...]]:
    """A seeded update stream, valid in order against ``graph``.

    Every round is a shuffled copy of :data:`UPDATE_ROUND`.  An edge is
    drawn by picking one endpoint -- half the time from the initial
    (4, 0.2)-core, where the cliques live, otherwise any node -- and then
    a current neighbour (reweight, delete) or a current non-neighbour
    (insert).  The first endpoint is the anchor of the operation's
    ``cliques_containing`` query.
    """
    hot = sorted(dp_core_plus(graph, *STANDING))
    nodes = graph.nodes()
    adj = {u: set(graph.incident(u)) for u in nodes}
    hot_set = set(hot)

    def endpoint(pool: list[Any]) -> Any:
        while True:
            u = rng.choice(pool)
            if adj[u]:
                return u

    stream: list[tuple[Any, ...]] = []
    for _ in range(rounds):
        ops = list(UPDATE_ROUND)
        rng.shuffle(ops)
        for op in ops:
            pool = hot if hot and rng.random() < 0.5 else nodes
            u = endpoint(pool)
            if op == "insert":
                targets = hot if pool is hot else nodes
                while True:
                    v = rng.choice(targets)
                    if v != u and v not in adj[u]:
                        break
                    targets = nodes
                adj[u].add(v)
                adj[v].add(u)
            else:
                nbrs = sorted(adj[u])
                if pool is hot:
                    inner = [w for w in nbrs if w in hot_set]
                    nbrs = inner or nbrs
                v = rng.choice(nbrs)
                if op == "delete":
                    adj[u].discard(v)
                    adj[v].discard(u)
            p = 0.0 if op == "delete" else round(rng.uniform(0.05, 0.99), 6)
            stream.append((op, u, v, p))
    return stream


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (ColdSparse, DenseExplore, UpdateStream)
}
