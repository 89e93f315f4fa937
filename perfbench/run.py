"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_sparse --seed 1 --seconds 15 --trace 0

A run sets its inputs up :data:`SETUPS` times (``setup_s`` is the
median), then runs whole rounds of the workload as one closed-loop
client -- as many as take about ``--seconds`` on the reference host,
fixed by ``--seconds`` alone (see ``workloads.py``) -- then checks every
answer.  With ``--trace 0`` it reports the end-to-end metrics, measured
with nothing patched; with ``--trace 1`` it wraps every layer boundary
(see ``spans.py``) and reports the per-layer metrics instead.  Human-readable
lines come first; the last line of standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record of the run (provenance, every metric, the cross-check
report) is written to ``--out``; a traced run also writes its spans there.
The library is imported from ``src/`` next to this directory, and the
run fails with exit code 2 if it is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 3


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("cold_sparse", "dense_explore", "update_stream"),
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="dataset scale (1.0 for real runs)")
    parser.add_argument("--out", type=Path, default=HERE / "out")
    return parser.parse_args(argv)


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least ten samples beyond it.

    Nearest-rank percentiles; with ten samples or fewer there is no such
    percentile and the maximum is returned as ``p100``.
    """
    n = len(latencies)
    ordered = sorted(latencies)
    for p in range(99, 0, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def git_provenance() -> dict[str, Any]:
    if not (ROOT / ".git").exists():
        return {"commit": "unknown (not a git checkout)", "dirty": None}
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return {"commit": "unknown (git failed)", "dirty": None}
    return {"commit": head, "dirty": bool(status.strip())}


def provenance(workload: Any, args: argparse.Namespace) -> dict[str, Any]:
    from repro.datasets.registry import DATASETS, dataset_statistics

    datasets = {}
    for name, graph in workload.graphs.items():
        row = dataset_statistics(graph, name)
        datasets[name] = {
            "dataset_seed": DATASETS[name].default_seed,
            "n": row.num_nodes,
            "m": row.num_edges,
            "components": graph.num_components,
            "degeneracy": row.degeneracy,
        }
    return {
        **git_provenance(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "setups": SETUPS,
        "datasets": datasets,
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: library sources not found under {src}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import calibrate
    from answers import check_records
    from workloads import WORKLOADS, OpRecord, apply_update

    workload = WORKLOADS[args.workload](args.scale, args.seed, args.seconds)

    # -- set-up, several times; the last one's inputs are used ---------
    # Every wall time is scaled to reference seconds by the calibration
    # kernel sampled around it (see calibrate.py).
    setup_times, load_times = [], []
    for _ in range(SETUPS):
        workload.graphs = {}
        gc.collect()
        before = calibrate.sample()
        t0 = perf_counter()
        load_s = workload.setup()
        elapsed = perf_counter() - t0
        scale = calibrate.factor(before, calibrate.sample())
        setup_times.append(elapsed * scale)
        load_times.append(load_s * scale)
    workload.prepare()
    prov = provenance(workload, args)

    tracer = installation = None
    if args.trace:
        from spans import Tracer, install

        tracer = Tracer()
        installation = install(tracer)

    # -- the timed closed loop: a fixed number of whole rounds ----------
    # The collector runs as it does for any user of the library; the one
    # full collection here only clears what set-up left behind.
    records: list[Any] = []
    wall_latencies: list[float] = []
    scales: list[float] = []
    errors: dict[int, str] = {}
    gc.collect()
    t_start = perf_counter()
    before = calibrate.sample()
    for index in range(workload.rounds):
        for spec in workload.round_ops(index):
            op_id = len(wall_latencies)
            if tracer is not None:
                tracer.begin_op(op_id)
            t0 = perf_counter()
            try:
                record = workload.run(op_id, spec)
            except Exception as exc:  # counted in error_rate, then go on
                record = OpRecord(op_id, "error", repr(spec), "", 0, 0.0)
                errors[op_id] = f"{spec!r} raised {exc!r}"
            elapsed = perf_counter() - t0
            if tracer is not None:
                elapsed = tracer.end_op()
            wall_latencies.append(elapsed)
            scales.append(calibrate.factor(before, calibrate.sample()))
            record.seal()
            records.append(record)
            before = calibrate.sample()
    loop_s = perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if installation is not None:
        installation.remove()
    latencies = [w * f for w, f in zip(wall_latencies, scales)]

    # -- answer checks, after the clock ---------------------------------
    t0 = perf_counter()
    if args.workload == "update_stream":
        replay = workload.initial.copy()
        applied = [0]

        def graph_at(record: Any) -> Any:
            while applied[0] <= record.step:
                apply_update(replay, workload.stream[applied[0]])
                applied[0] += 1
            return replay
    else:
        def graph_at(record: Any) -> Any:
            return workload.graphs[record.graph]
    failures = dict(errors)
    failures.update(check_records(records, graph_at, args.seed))
    check_s = perf_counter() - t0

    attempted = len(latencies)
    failed = len(failures)
    ops_per_s = attempted / sum(latencies)
    tail_p, tail_value = tail_percentile(latencies)
    end_to_end = {
        "ops_per_s": ops_per_s,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": tail_value,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
    }
    error_rate = failed / attempted

    result: dict[str, Any] = {
        "provenance": prov,
        "rounds": workload.rounds,
        "attempted": attempted,
        "failed": failed,
        "error_rate": error_rate,
        "failures": failures,
        "loop_s": loop_s,
        "wall_ops_per_s": attempted / sum(wall_latencies),
        "median_scale": statistics.median(scales),
        "check_s": check_s,
        "setup_times_s": setup_times,
        "latency_tail_percentile": tail_p,
        "operations": [r.label for r in records],
        "latencies_s": latencies,
        "wall_latencies_s": wall_latencies,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    print(f"workload {args.workload}  seed {args.seed}  "
          f"rounds {workload.rounds}  "
          f"operations {attempted}  loop {loop_s:.2f} s "
          f"(kernel at x{1 / statistics.median(scales):.2f} of reference)  "
          f"check {check_s:.2f} s")
    print(f"error_rate {error_rate:.4f} (failed {failed} of {attempted})")
    for reason in list(failures.values())[:10]:
        print(f"  FAILED {reason}")

    if tracer is None:
        metrics = {
            name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in end_to_end.items()
        }
        result["end_to_end"] = metrics
        for name, entry in metrics.items():
            note = (
                f"  (p{tail_p} of {attempted} operations)"
                if name == "latency_tail_s" else ""
            )
            print(f"{name} {entry['value']:.6g} {entry['unit']}{note}")
    else:
        from layers import PER_LAYER_UNITS, layer_metrics

        values, report = layer_metrics(
            tracer, records, scales, statistics.median(load_times),
        )
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER_UNITS.items()
        }
        result["per_layer"] = metrics
        result["cross_check"] = report
        for name, entry in metrics.items():
            print(f"{name} {entry['value']:.6g} {entry['unit']}")
        print(f"self-time partition residual "
              f"{report['partition_residual_s']:.3g} s/op")
        for row in report["largest_search_gaps"]:
            if row["gaps_s"]["search"] > max(0.01, row["search_span_s"] / 10):
                print(f"  search the library does not lap: {row['op']}: "
                      f"spans {row['search_span_s']:.3f} s, "
                      f"lap {row['search_lap_s']:.3f} s")
        spans_path = args.out / f"{stem}.spans.jsonl"
        with spans_path.open("w") as fh:
            for s in tracer.spans:
                fh.write(json.dumps([
                    s.sid, s.layer, s.func, s.op, s.parent,
                    round(s.start - t_start, 7), round(s.end - t_start, 7),
                    round(s.active, 7), round(s.self_time, 7),
                ]) + "\n")
        result["spans_file"] = spans_path.name

    (args.out / f"{stem}.json").write_text(
        json.dumps(result, indent=2, default=str) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
