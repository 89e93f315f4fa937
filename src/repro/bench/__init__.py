"""Benchmark harness (``repro-bench``).

Measures the clique-search drivers across worker counts, repeated
session queries and update streams on the registry datasets, and
writes machine-readable ``BENCH_*.json`` reports.  The measurement
protocol lives in :mod:`repro.bench.runner`; the checked-in reports under
``benchmarks/perf/`` are produced by the console script in
:mod:`repro.bench.cli`.
"""

from repro.bench.queries import (
    QueriesReport,
    QueryOpResult,
    run_queries_bench,
)
from repro.bench.runner import (
    BenchReport,
    ConfigResult,
    ArmRun,
    run_enumeration_bench,
    run_maximum_bench,
)

__all__ = [
    "ArmRun",
    "BenchReport",
    "ConfigResult",
    "QueriesReport",
    "QueryOpResult",
    "run_enumeration_bench",
    "run_maximum_bench",
    "run_queries_bench",
]
