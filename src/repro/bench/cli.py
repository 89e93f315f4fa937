"""``repro-bench`` — benchmark runner.

Full mode (the default) reproduces the checked-in reports under
``benchmarks/perf/``: the dblp_like registry graph at full scale,
median of 5 interleaved repetitions per config, for both the enumeration
(``muce_plus_plus``) and maximum (``max_uc_plus``) drivers.

``--quick`` shrinks the dataset and repetition count to a CI-smoke-sized
run (~tens of seconds).  ``--check`` turns the run into a gate: exit
status 1 when any config's outputs or counters differ between worker
counts (``jobs=N`` must equal ``jobs=1``); the queries suite
additionally asserts the compile accounting (a cold session records one
nonzero compile lap, a warm session records exactly zero).

``--jobs`` is the scaling axis: a comma-separated list of worker counts
(full runs default to ``1,2,4``) runs one ``jN`` arm per count, and the
per-config ``jobs_speedup`` scaling curve lands in the report.
``--verbose`` prints the per-phase wall-clock breakdown (prune / cut /
compile / search) recorded by the stats timings.

``--suite`` selects which benchmarks run: ``engines`` (the default,
above), ``queries`` (the repeated-query cold-vs-warm session suite of
:mod:`repro.bench.queries`, written to ``BENCH_queries.json``),
``streaming`` (the edge-update maintain-vs-recompute suite of
:mod:`repro.bench.streaming`, written to ``BENCH_streaming.json``), or
``all``.  The streaming gates: the maintained core must be
set-identical to a cold recompute after every update, and on full-scale
runs the reweight stream's maintain arm must beat recompute by at
least 5x (the scoped-invalidation headline).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.bench.queries import QueriesReport, run_queries_bench
from repro.bench.runner import (
    BenchReport,
    run_enumeration_bench,
    run_maximum_bench,
)
from repro.bench.streaming import (
    FULL_UPDATES,
    QUICK_UPDATES,
    StreamingReport,
    run_streaming_bench,
)

__all__ = ["main"]

#: Headline config first: the enumeration speedup quoted in
#: docs/performance.md is this list's first entry.
ENUM_CONFIGS = [(4, 0.2), (6, 0.1), (5, 0.25)]
MAX_CONFIGS = [(4, 0.2), (6, 0.1)]

QUICK_SCALE = 0.3
QUICK_REPS = 3
FULL_REPS = 5

#: Scaling axis defaults: full runs record the jobs=1/2/4 curve the
#: checked-in reports carry; quick (CI smoke) runs stay sequential
#: unless --jobs asks otherwise.
FULL_JOBS = [1, 2, 4]
QUICK_JOBS = [1]

#: Full-scale gate for the streaming suite's headline: the reweight
#: stream's maintain arm must beat per-update recompute by this factor.
#: Quick runs shrink the graph until per-update recompute is too cheap
#: to promise a stable ratio, so the floor applies to full runs only.
STREAMING_HEADLINE_FLOOR = 5.0


def _parse_jobs(spec: str) -> list[int]:
    try:
        jobs = [int(part) for part in spec.split(",") if part.strip()]
    except ValueError:
        raise SystemExit(
            f"--jobs expects a comma-separated list of integers, got {spec!r}"
        ) from None
    if not jobs or any(j < 1 for j in jobs):
        raise SystemExit(f"--jobs entries must be >= 1, got {spec!r}")
    return jobs


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Benchmark the clique-search drivers.",
    )
    parser.add_argument(
        "--dataset", default="dblp_like", help="registry dataset name"
    )
    parser.add_argument(
        "--suite",
        choices=("engines", "queries", "streaming", "all"),
        default="engines",
        help=(
            "which benchmarks to run: the search drivers across worker "
            "counts (default), the repeated-query cold-vs-warm session "
            "suite, the edge-update maintain-vs-recompute streaming "
            "suite, or all of them"
        ),
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke mode: scaled-down dataset, fewer repetitions",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any suite's identity or accounting gate fails",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=0,
        help="repetitions per arm per config (default: 5, quick: 3)",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=Path("benchmarks/perf"),
        help="directory for the BENCH_*.json reports",
    )
    parser.add_argument(
        "--jobs",
        default="",
        help=(
            "comma-separated worker counts for the scaling axis "
            "(default: 1,2,4 for full runs, 1 for --quick); each count "
            "runs a jN arm, counts > 1 via the process-parallel layer"
        ),
    )
    parser.add_argument(
        "--verbose",
        action="store_true",
        help="print the per-phase wall-clock breakdown for every arm",
    )
    return parser


def _print_report(report: BenchReport, verbose: bool) -> None:
    cpu_count = report.provenance.get("cpu_count")
    print(
        f"[{report.benchmark}] {report.algorithm} on {report.dataset} "
        f"(scale={report.scale}, median of {report.repetitions}, "
        f"cpu_count={cpu_count})"
    )
    for config in report.configs:
        flag = "" if config.identical_output else "  OUTPUT MISMATCH"
        scaling = "".join(
            f" {name}={config.arms[name].median_s:.3f}s({ratio:.2f}x)"
            for name, ratio in sorted(config.jobs_speedup.items())
        )
        print(
            f"  k={config.k} tau={config.tau}: "
            f"j1={config.arms['j1'].median_s:.3f}s{scaling}{flag}"
        )
        if verbose:
            for name, run in config.arms.items():
                phases = " ".join(
                    f"{phase}={seconds:.3f}s"
                    for phase, seconds in sorted(run.phase_seconds.items())
                )
                print(f"    {name}: {phases or '(no phase timings)'}")


def _print_queries_report(report: QueriesReport) -> None:
    cache = report.provenance.get("session_cache")
    print(
        f"[{report.benchmark}] cold sessions vs warm session on "
        f"{report.dataset} (scale={report.scale}, median of "
        f"{report.repetitions}, cache={cache})"
    )
    for op in report.ops:
        flag = "" if op.identical_output else "  OUTPUT MISMATCH"
        compile_note = ""
        if op.cold_compile_median_s >= 0.0:
            compile_note = (
                f" compile cold={op.cold_compile_median_s:.4f}s "
                f"warm={op.warm_compile_median_s:.4f}s"
            )
        print(
            f"  {op.op} {op.params}: cold={op.cold_median_s:.4f}s "
            f"warm={op.warm_median_s:.4f}s speedup={op.speedup:.2f}x"
            f"{compile_note}{flag}"
        )
    print(f"  median warm speedup: {report.median_speedup:.2f}x")


def _print_streaming_report(report: StreamingReport) -> None:
    cpu_count = report.provenance.get("cpu_count")
    updates = report.provenance.get("updates_per_stream")
    print(
        f"[{report.benchmark}] incremental maintain vs recompute on "
        f"{report.dataset} (scale={report.scale}, {updates} updates per "
        f"stream, median of {report.repetitions}, cpu_count={cpu_count})"
    )
    invalidation = report.provenance.get("invalidation", {})
    for stream in report.streams:
        flag = "" if stream.identical_output else "  OUTPUT MISMATCH"
        accounting = ""
        if isinstance(invalidation, dict) and stream.stream in invalidation:
            acct = invalidation[stream.stream]
            accounting = (
                f" [dirtied={acct['components_dirtied_total']}"
                f" evicted={acct['artifacts_evicted_total']}"
                f" retained={acct['artifacts_retained_total']}"
                f" delta={acct['delta_patches']}"
                f" full={acct['full_compiles']}]"
            )
        print(
            f"  {stream.stream} k={stream.k} tau={stream.tau}: "
            f"maintain={stream.maintain_median_s:.3f}s "
            f"recompute={stream.recompute_median_s:.3f}s "
            f"speedup={stream.speedup:.2f}x{accounting}{flag}"
        )
    print(f"  headline (reweight) speedup: {report.headline_speedup():.2f}x")


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    scale = QUICK_SCALE if args.quick else 1.0
    reps = args.reps or (QUICK_REPS if args.quick else FULL_REPS)
    if args.jobs:
        jobs = _parse_jobs(args.jobs)
    else:
        jobs = QUICK_JOBS if args.quick else FULL_JOBS

    failures: list[str] = []
    if args.suite in ("engines", "all"):
        reports = [
            run_enumeration_bench(args.dataset, ENUM_CONFIGS, reps, scale, jobs),
            run_maximum_bench(args.dataset, MAX_CONFIGS, reps, scale, jobs),
        ]
        for report in reports:
            _print_report(report, args.verbose)
            path = report.write(args.out)
            print(f"  wrote {path}")
            if not report.all_identical():
                failures.append(
                    f"{report.benchmark}: jobs=N output differs from jobs=1"
                )

    if args.suite in ("queries", "all"):
        queries_report = run_queries_bench(args.dataset, reps, scale)
        _print_queries_report(queries_report)
        path = queries_report.write(args.out)
        print(f"  wrote {path}")
        if not queries_report.all_identical():
            failures.append("queries: warm-session outputs differ from cold")
        for op in queries_report.ops:
            if op.cold_compile_median_s < 0.0:
                continue  # op carries no stats object, no phase laps
            if op.cold_compile_median_s == 0.0:
                failures.append(
                    f"queries: cold {op.op} recorded no compile lap — the "
                    "unified lowering should run exactly once per session"
                )
            if op.warm_compile_median_s != 0.0:
                failures.append(
                    f"queries: warm {op.op} recompiled "
                    f"({op.warm_compile_median_s:.6f}s) — the session must "
                    "replay the cached per-version artifact"
                )

    if args.suite in ("streaming", "all"):
        streaming_report = run_streaming_bench(
            args.dataset,
            reps,
            scale,
            updates=QUICK_UPDATES if args.quick else FULL_UPDATES,
        )
        _print_streaming_report(streaming_report)
        path = streaming_report.write(args.out)
        print(f"  wrote {path}")
        if not streaming_report.all_identical():
            failures.append(
                "streaming: maintained core differs from cold recompute"
            )
        headline = streaming_report.headline_speedup()
        if not args.quick and headline < STREAMING_HEADLINE_FLOOR:
            failures.append(
                f"streaming: reweight maintain speedup {headline:.2f}x is "
                f"below the {STREAMING_HEADLINE_FLOOR:.0f}x headline floor"
            )

    if args.check and failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - console entry
    sys.exit(main())
