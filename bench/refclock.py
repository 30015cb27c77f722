"""The reference loop that turns wall-clock times into reference units.

On a shared machine the speed available to one process drifts by 10% or
more from one run to the next.  Timing a fixed piece of pure-Python exact
arithmetic between jobs measures that drift where it happens: a job's time
in reference units is its wall time scaled by R_NOMINAL_S over the local
reference time.  The loop imports nothing from the program under test and
runs with the garbage collector paused, so the program's heap cannot slow
it; work that the program leaves running in the background would.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Nominal duration of one reference sample, close to the loop's median on
# the 2-core machine the README's figures come from.  A reference second is
# the time of 1/R_NOMINAL_S runs of the loop.
R_NOMINAL_S = 0.0025

# Reference samples on each side of a job that make up its local reference.
WINDOW = 4


def _reference_work() -> int:
    acc = Fraction(0)
    keys = []
    for k in range(1, 90):
        acc = (acc + Fraction(k, 2 * k + 1)) * Fraction(k + 2, k + 3)
        acc = acc.limit_denominator(10**12)
        keys.append((acc.numerator * 7919) % 10007)
    keys.sort()
    table = {key: i for i, key in enumerate(keys)}
    return len(table) + acc.denominator % 97


def sample() -> float:
    """Wall time of one run of the reference loop, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_work()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def local_factors(samples: list[float], jobs: int) -> list[float]:
    """Scale factor R_NOMINAL_S / R_local for each of `jobs` jobs.

    samples[i] was taken just before job i and samples[jobs] just after
    the last one; R_local of job i is the median of the samples within
    WINDOW places of it on either side.
    """
    assert len(samples) == jobs + 1
    out = []
    for i in range(jobs):
        window = samples[max(0, i - WINDOW + 1) : i + WINDOW + 1]
        out.append(R_NOMINAL_S / statistics.median(window))
    return out

