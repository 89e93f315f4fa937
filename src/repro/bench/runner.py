"""Measurement core for the ``engines`` suite: the production search
across worker counts.

Protocol
--------
Wall-clock comparisons between in-process arms on a noisy machine need
two defenses, both applied here:

* **Interleaving** — each repetition runs *every* arm back to back
  (``j1``, then each ``jN`` parallel arm) before the next repetition
  starts, so slow drift in machine load lands on all sides rather than
  biasing whichever arm happened to run last.
* **Median of N** — the reported time per arm is the median over the
  repetitions, which throws away one-off spikes that a mean would absorb.

Every run also re-verifies the arms' contract: ``jobs=N`` returns
exactly the ``jobs=1`` result (for enumeration, the same cliques in the
same yield order) with identical statistics counters.  A benchmark whose
arms disagree is reported with ``identical_output: false`` and fails the
``--check`` gate — a speedup over wrong answers is not a speedup.

Scaling axis
------------
``jobs=(1, 2, 4)`` runs arms ``j1`` / ``j2`` / ``j4`` through the
process-parallel layer (:mod:`repro.core.parallel`); per-config
``jobs_speedup`` records the ``j1`` median over each parallel median,
which is the scaling curve the checked-in reports carry.  The
``REPRO_JOBS`` environment variable is cleared around every measurement
(and restored after) so each arm runs exactly the worker count it
claims.

Provenance
----------
Every report embeds where its numbers came from — git commit, python
version, platform, ``os.cpu_count()`` — so the perf trajectory across
the checked-in ``BENCH_*.json`` files stays attributable: a scaling
curve measured on a single-core container is expected to be flat, and
the embedded ``cpu_count`` is what says so.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable

from repro.core.enumeration import EnumerationStats, muce_plus_plus
from repro.core.maximum import MaximumSearchStats, max_uc_plus
from repro.datasets.registry import load_dataset
from repro.uncertain.graph import Node, UncertainGraph

__all__ = [
    "ArmRun",
    "ConfigResult",
    "BenchReport",
    "collect_provenance",
    "run_enumeration_bench",
    "run_maximum_bench",
]


@dataclass
class ArmRun:
    """Timings and counters for one worker-count arm at one config."""

    times_s: list[float] = field(default_factory=list)
    median_s: float = 0.0
    stats: dict[str, int] = field(default_factory=dict)
    phase_seconds: dict[str, float] = field(default_factory=dict)


@dataclass
class ConfigResult:
    """One (k, tau) config measured on every arm."""

    k: int
    tau: float
    arms: dict[str, ArmRun]
    jobs_speedup: dict[str, float]
    identical_output: bool


def collect_provenance() -> dict[str, object]:
    """Metadata attributing a report to code + machine: git commit,
    python version, platform string, and ``os.cpu_count()``."""
    commit: str | None = None
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
            dirty = subprocess.run(
                ["git", "status", "--porcelain"],
                capture_output=True,
                text=True,
                timeout=10,
            )
            # A dirty worktree means the numbers came from code beyond
            # the recorded commit — say so rather than misattribute.
            if dirty.returncode == 0 and dirty.stdout.strip():
                commit += "-dirty"
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "git_commit": commit,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
    }


@dataclass
class BenchReport:
    """Everything one ``BENCH_*.json`` file records."""

    benchmark: str
    algorithm: str
    dataset: str
    scale: float
    repetitions: int
    interleaved: bool
    jobs: list[int]
    provenance: dict[str, object]
    configs: list[ConfigResult]

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2) + "\n"

    def write(self, directory: Path) -> Path:
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"BENCH_{self.benchmark}.json"
        path.write_text(self.to_json())
        return path

    def all_identical(self) -> bool:
        return all(config.identical_output for config in self.configs)


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def _arms(jobs: list[int]) -> list[int]:
    """Worker counts to run, ``1`` (the baseline arm) first."""
    return [1] + sorted({j for j in jobs if j > 1})


def _jobs_speedup(runs: dict[str, ArmRun]) -> dict[str, float]:
    """The ``j1`` median over each parallel arm's median — the per-config
    scaling curve (> 1 means the parallel arm was faster)."""
    base = runs["j1"].median_s
    return {
        name: (base / run.median_s if run.median_s > 0.0 else 0.0)
        for name, run in runs.items()
        if name != "j1"
    }


def _enum_once(
    graph: UncertainGraph, k: int, tau: float, jobs: int
) -> tuple[float, list[frozenset[Node]], dict[str, int], dict[str, float]]:
    stats = EnumerationStats()
    start = time.perf_counter()
    cliques = list(muce_plus_plus(graph, k, tau, stats=stats, jobs=jobs))
    elapsed = time.perf_counter() - start
    return elapsed, cliques, dict(asdict(stats)), dict(stats.timings.laps)


def _max_once(
    graph: UncertainGraph, k: int, tau: float, jobs: int
) -> tuple[float, frozenset[Node] | None, dict[str, int], dict[str, float]]:
    stats = MaximumSearchStats()
    start = time.perf_counter()
    best = max_uc_plus(graph, k, tau, stats=stats, jobs=jobs)
    elapsed = time.perf_counter() - start
    return elapsed, best, dict(asdict(stats)), dict(stats.timings.laps)


def _run_bench(
    benchmark: str,
    algorithm: str,
    once: Callable[
        [UncertainGraph, int, float, int],
        tuple[float, Any, dict[str, int], dict[str, float]],
    ],
    dataset: str,
    configs: list[tuple[int, float]],
    repetitions: int,
    scale: float,
    jobs: list[int] | None,
) -> BenchReport:
    """Run ``once`` on every arm of every config, interleaved."""
    jobs = jobs if jobs is not None else [1]
    arms = _arms(jobs)
    graph = load_dataset(dataset, scale=scale)
    results: list[ConfigResult] = []
    env_jobs = os.environ.pop("REPRO_JOBS", None)
    try:
        for k, tau in configs:
            runs = {f"j{n}": ArmRun() for n in arms}
            outputs: dict[str, Any] = {}
            for _ in range(repetitions):
                for n in arms:
                    name = f"j{n}"
                    elapsed, output, stats, phases = once(graph, k, tau, n)
                    runs[name].times_s.append(elapsed)
                    runs[name].stats = stats
                    runs[name].phase_seconds = phases
                    outputs[name] = output
            for run in runs.values():
                run.median_s = _median(run.times_s)
            results.append(
                ConfigResult(
                    k=k,
                    tau=tau,
                    arms=runs,
                    jobs_speedup=_jobs_speedup(runs),
                    identical_output=all(
                        outputs[name] == outputs["j1"]
                        and run.stats == runs["j1"].stats
                        for name, run in runs.items()
                    ),
                )
            )
    finally:
        if env_jobs is not None:
            os.environ["REPRO_JOBS"] = env_jobs
    return BenchReport(
        benchmark=benchmark,
        algorithm=algorithm,
        dataset=dataset,
        scale=scale,
        repetitions=repetitions,
        interleaved=True,
        jobs=arms,
        provenance=collect_provenance(),
        configs=results,
    )


def run_enumeration_bench(
    dataset: str,
    configs: list[tuple[int, float]],
    repetitions: int,
    scale: float = 1.0,
    jobs: list[int] | None = None,
) -> BenchReport:
    """Benchmark ``muce_plus_plus`` across worker counts."""
    return _run_bench(
        "enumeration", "muce_plus_plus", _enum_once, dataset, configs,
        repetitions, scale, jobs,
    )


def run_maximum_bench(
    dataset: str,
    configs: list[tuple[int, float]],
    repetitions: int,
    scale: float = 1.0,
    jobs: list[int] | None = None,
) -> BenchReport:
    """Benchmark ``max_uc_plus`` across worker counts."""
    return _run_bench(
        "maximum", "max_uc_plus", _max_once, dataset, configs,
        repetitions, scale, jobs,
    )
