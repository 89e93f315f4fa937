"""Fast self-test of the benchmark harness at reduced scale.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

Each workload runs one short round on small graphs, untraced and traced.
The test checks the output contract (every metric of ``BENCHMARK.json``
printed with its unit, nothing else) and that no answer failed its check.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize(
    "workload", [w["name"] for w in SPEC["workloads"]]
)
def test_workload_emits_every_metric_without_errors(
    workload: str, trace: int, tmp_path: Path
) -> None:
    proc = run_bench(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.1",
        "--trace", str(trace), "--scale", "0.15",
        "--out", str(tmp_path),
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert "error_rate 0.0000" in proc.stdout

    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
        assert f"{metric['name']} " in proc.stdout

    record = json.loads(
        (tmp_path / f"{workload}-seed3-trace{trace}.json").read_text()
    )
    assert record["error_rate"] == 0
    assert record["provenance"]["workload_seed"] == 3
    if trace:
        assert abs(record["cross_check"]["partition_residual_s"]) < 1e-6
        assert (tmp_path / record["spans_file"]).is_file()


def test_same_seed_same_operations(tmp_path: Path) -> None:
    labels = []
    for run in ("a", "b"):
        out = tmp_path / run
        proc = run_bench(
            ROOT, "--workload", "update_stream", "--seed", "5",
            "--seconds", "0.1", "--scale", "0.15",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        record = json.loads(
            (out / "update_stream-seed5-trace0.json").read_text()
        )
        labels.append(record["operations"])
    assert labels[0] == labels[1]


def test_fails_without_library_sources(tmp_path: Path) -> None:
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = run_bench(
        tmp_path, "--workload", "cold_sparse", "--seed", "1",
        "--seconds", "1", "--trace", "0",
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
