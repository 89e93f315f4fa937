"""Run one workload over several seeds and report each metric's spread.

Usage (from the repository root)::

    python3 perfbench/spread.py --workload dense_explore --seeds 1-10

For every end-to-end metric it prints the median of the runs and the
distance between the first and third quartile as a share of the median
(``statistics.quantiles(values, n=4)``), next to the metric's bound from
``BENCHMARK.json``.  A spread under a third of the bound is steady.  Runs
are sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        shown = " ".join(
            f"{name}={m['value']:.4g}" for name, m in result["metrics"].items()
        )
        print(f"seed {seed}: correct={result['correct']} "
              f"failed={result['failed']} {shown}", flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("nan")
        else:
            spread = float("nan")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            verdict = (
                f"bound {bound}  "
                f"{'steady' if spread < bound / 3 else 'NOT steady'}"
            )
        print(f"{name:16s} median {med:.6g}  spread {spread:.3f}  {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
