"""Host-speed calibration, so that timings survive a drifting host.

On a shared host the speed of one core drifts by 20-40% over tens of
seconds, as other tenants come and go; a 15-second run lands in one
regime or another, and wall times from different runs disagree by more
than any useful bound.  The drift scales all pure-Python work alike, so
the benchmark measures it directly: a fixed kernel of dict, set, integer
and sort work runs before and after every timed operation, and each
operation's wall time is scaled by ``REFERENCE_S`` over the kernel time
measured around it.  Reported times are thus *reference seconds*: what
the operation would take on a host where the kernel takes
``REFERENCE_S``.  The raw wall times stay in the run record.

The kernel touches nothing of the library under test, so a change to
the library moves the scaled times exactly as it moves the wall times.
"""

from __future__ import annotations

import statistics
from time import perf_counter

#: Kernel time on the reference host (a 2-CPU container, x86-64 Linux,
#: CPython 3.11), set once to the median measured there.
REFERENCE_S = 0.0025

#: Kernel runs per sample; the sample is their median.
REPEATS = 3


def _kernel() -> int:
    table: dict[int, int] = {}
    seen: set[int] = set()
    acc = 0
    for i in range(8000):
        table[i] = i * 3
        seen.add(i ^ 5)
        acc += table[i] % 7
    return acc + len(sorted(seen, key=lambda x: -x))


def sample() -> float:
    """Median kernel time over :data:`REPEATS` runs, in seconds."""
    times = []
    for _ in range(REPEATS):
        t0 = perf_counter()
        _kernel()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """Scale for a wall time measured between two kernel samples."""
    return REFERENCE_S / ((before + after) / 2)
