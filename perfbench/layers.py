"""Per-layer metrics and the instrument cross-check of a traced run.

Every ``*_s`` metric here is self seconds per operation, and every count
is per operation, so the figures do not depend on how many rounds a run
fits.  Times are reference seconds: each span is scaled by its
operation's calibration factor (see ``calibrate.py``).  The self-time
metrics partition the operations' wall time: their sum equals
``op.wall_s``.
"""

from __future__ import annotations

from typing import Any

from spans import Span, Tracer

#: Self-time metrics and the span layers each one sums.  Together they
#: cover every layer :func:`spans.install` records, plus the root.
SELF_TIME = {
    "graph.mutate_s": ("graph.mutate",),
    "graph.induced_subgraph_s": ("graph.induced_subgraph",),
    "graph.copy_s": ("graph.copy",),
    "compile.full_s": ("compile.full",),
    "compile.delta_s": ("compile.delta",),
    "prune.s": ("prune",),
    "cut.s": ("cut",),
    "views.s": ("views", "views.derive"),
    "search.enum_s": ("search.enum",),
    "search.max_s": ("search.max",),
    "session.self_s": ("session",),
    "maintain.s": ("maintain",),
    "anchored.s": ("anchored",),
    "unattributed_s": ("op",),
}

#: Span counts reported per operation.
SPAN_COUNTS = {
    "graph.mutations": "graph.mutate",
    "graph.induced_subgraph_calls": "graph.induced_subgraph",
    "compile.lowerings": "compile.full",
    "prune.calls": "prune",
    "cut.calls": "cut",
    "views.derived": "views.derive",
    "maintain.updates": "maintain",
    "anchored.calls": "anchored",
}

#: Every per-layer metric a traced run prints, with its unit.
PER_LAYER_UNITS = {
    "datasets.load_s": "s",
    "graph.mutate_s": "s/op",
    "graph.mutations": "1/op",
    "graph.induced_subgraph_s": "s/op",
    "graph.induced_subgraph_calls": "1/op",
    "graph.copy_s": "s/op",
    "compile.full_s": "s/op",
    "compile.lowerings": "1/op",
    "compile.delta_s": "s/op",
    "compile.delta_patches": "1/op",
    "prune.s": "s/op",
    "prune.calls": "1/op",
    "prune.survivor_ratio": "ratio",
    "cut.s": "s/op",
    "cut.calls": "1/op",
    "cut.components_out": "1/op",
    "cut.edges_removed": "1/op",
    "views.s": "s/op",
    "views.derived": "1/op",
    "search.enum_s": "s/op",
    "search.max_s": "s/op",
    "search.calls": "1/op",
    "search.pivot_branches": "1/op",
    "search.pivot_skipped": "1/op",
    "search.cliques": "1/op",
    "search.cliques_per_call": "1/call",
    "search.oversized_components": "1/op",
    "session.hits": "1/op",
    "session.misses": "1/op",
    "session.hit_rate": "ratio",
    "session.evictions": "1/op",
    "session.self_s": "s/op",
    "maintain.s": "s/op",
    "maintain.updates": "1/op",
    "anchored.s": "s/op",
    "anchored.calls": "1/op",
    "unattributed_s": "s/op",
    "op.wall_s": "s/op",
    "trace.ops_per_s": "1/s",
    "xcheck.compile_gap_s": "s/op",
    "xcheck.prune_gap_s": "s/op",
    "xcheck.cut_gap_s": "s/op",
    "xcheck.search_gap_s": "s/op",
    "xcheck.unlapped_s": "s/op",
    "xcheck.lowerings_gap": "1/op",
    "xcheck.delta_gap": "1/op",
}

_COMPILE_LIKE = {"compile.full", "compile.delta", "views", "views.derive"}
_SEARCH = {"search.enum", "search.max"}
_LAPPED = ("compile", "prune", "cut", "search")


def _sum(records: list[Any], part: str, key: str) -> int:
    return sum(getattr(r, part).get(key, 0) for r in records)


def layer_metrics(
    tracer: Tracer, records: list[Any], scales: list[float], load_s: float,
) -> tuple[dict[str, float], dict[str, Any]]:
    """The per-layer metrics and the cross-check report of one traced run.

    ``scales[op_id]`` is the operation's calibration factor.
    """
    ops = max(1, len(records))
    self_by: dict[str, float] = {}
    count_by: dict[str, int] = {}
    wall = 0.0
    for span in tracer.spans:
        scaled = span.self_time * scales[span.op]
        self_by[span.layer] = self_by.get(span.layer, 0.0) + scaled
        count_by[span.layer] = count_by.get(span.layer, 0) + 1
        if span.layer == "op":
            wall += span.active * scales[span.op]

    m: dict[str, float] = {"datasets.load_s": load_s}
    for name, layers in SELF_TIME.items():
        m[name] = sum(self_by.get(layer, 0.0) for layer in layers) / ops
    for name, layer in SPAN_COUNTS.items():
        m[name] = count_by.get(layer, 0) / ops
    counts = tracer.counts
    m["compile.delta_patches"] = _sum(records, "cache", "delta_patches") / ops
    m["prune.survivor_ratio"] = (
        counts.get("prune.out", 0) / counts["prune.in"]
        if counts.get("prune.in") else 0.0
    )
    m["cut.components_out"] = counts.get("cut.components_out", 0) / ops
    m["cut.edges_removed"] = counts.get("cut.edges_removed", 0) / ops
    enum_calls = _sum(records, "counters", "enum_search_calls")
    cliques = _sum(records, "counters", "cliques")
    m["search.calls"] = (
        enum_calls + _sum(records, "counters", "max_search_calls")
    ) / ops
    m["search.pivot_branches"] = (
        _sum(records, "counters", "pivot_branches") / ops
    )
    m["search.pivot_skipped"] = _sum(records, "counters", "pivot_skipped") / ops
    m["search.cliques"] = cliques / ops
    m["search.cliques_per_call"] = cliques / enum_calls if enum_calls else 0.0
    m["search.oversized_components"] = (
        counts.get("search.oversized_components", 0) / ops
    )
    hits = _sum(records, "cache", "hits")
    misses = _sum(records, "cache", "misses")
    m["session.hits"] = hits / ops
    m["session.misses"] = misses / ops
    m["session.hit_rate"] = hits / (hits + misses) if hits + misses else 0.0
    m["session.evictions"] = _sum(records, "cache", "evictions") / ops
    m["op.wall_s"] = wall / ops
    m["trace.ops_per_s"] = ops / wall if wall else 0.0

    xcheck, report = cross_check(tracer, records, scales)
    m.update({name: value / ops for name, value in xcheck.items()})
    report["partition_residual_s"] = (
        sum(m[name] for name in SELF_TIME) - m["op.wall_s"]
    )
    return m, report


def cross_check(
    tracer: Tracer, records: list[Any], scales: list[float]
) -> tuple[dict[str, float], dict[str, Any]]:
    """Where the library's own instruments disagree with the spans.

    For each operation's top-level queries it compares the
    ``stats.timings`` laps with the spans of the same stage (outside
    minus lap, so positive means time the laps do not show), and the
    ``cache_info()`` compile counters with the lowering and delta-patch
    spans.  Spans under an anchored query or a maintainer update are left
    out: the library laps neither.  Only reported, never corrected.
    """
    spans = tracer.spans
    by_op: dict[int, list[Span]] = {}
    for span in spans:
        by_op.setdefault(span.op, []).append(span)

    def chain(span: Span) -> set[str]:
        layers = set()
        parent = span.parent
        while parent >= 0:
            layers.add(spans[parent].layer)
            parent = spans[parent].parent
        return layers

    totals = {f"xcheck.{stage}_gap_s": 0.0 for stage in _LAPPED}
    totals.update({
        "xcheck.unlapped_s": 0.0,
        "xcheck.lowerings_gap": 0.0,
        "xcheck.delta_gap": 0.0,
    })
    per_op = []
    for record in records:
        op_spans = by_op.get(record.op_id, [])
        root = next((s for s in op_spans if s.layer == "op"), None)
        if root is None:
            continue
        outside = dict.fromkeys(_LAPPED, 0.0)
        session_s = 0.0
        for span in op_spans:
            if span.layer == "session" and span.parent == root.sid:
                session_s += span.active
            above = chain(span)
            if above & {"anchored", "maintain"}:
                continue
            if span.layer in ("prune", "cut") and span.layer not in above:
                outside[span.layer] += span.active
            elif span.layer in _SEARCH:
                outside["search"] += span.active
            elif span.layer in _COMPILE_LIKE and not (
                above & (_COMPILE_LIKE | {"prune", "cut"})
            ):
                outside["compile"] += span.active
                if above & _SEARCH:
                    outside["search"] -= span.active
        lowerings = sum(1 for s in op_spans if s.layer == "compile.full")
        patches = sum(1 for s in op_spans if s.layer == "compile.delta")
        scale = scales[record.op_id]
        gaps = {
            stage: (outside[stage] - record.laps.get(stage, 0.0)) * scale
            for stage in _LAPPED
        }
        for stage, gap in gaps.items():
            totals[f"xcheck.{stage}_gap_s"] += gap
        totals["xcheck.unlapped_s"] += (
            session_s - sum(record.laps.values())
        ) * scale
        totals["xcheck.lowerings_gap"] += (
            lowerings - record.cache.get("full_compiles", 0)
        )
        totals["xcheck.delta_gap"] += (
            patches - record.cache.get("delta_patches", 0)
        )
        per_op.append({
            "op": record.label,
            "search_span_s": round(outside["search"] * scale, 6),
            "search_lap_s": round(record.laps.get("search", 0.0) * scale, 6),
            "gaps_s": {s: round(g, 6) for s, g in gaps.items()},
            "lowerings": lowerings,
            "full_compiles_reported": record.cache.get("full_compiles", 0),
        })
    per_op.sort(key=lambda row: -row["gaps_s"]["search"])
    report = {"largest_search_gaps": per_op[:5]}
    return totals, report
