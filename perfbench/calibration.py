"""Host-speed calibration: a fixed piece of pure-Python work, timed.

The 2-vCPU VMs the benchmark was built on change speed by 30-100% for
seconds to minutes at a time, through contention outside the VM; CPU time
moves with wall time, so it is no help.  No statistic taken inside one run
removes drift that lasts longer than the run.  So every job process times
`calibrate()` right before and right after its job, and every probe once,
and run.py scales each job's time by REFERENCE_S / (the mean of the
calibrations around it), and the run's other times by REFERENCE_S / (the
mean of all its calibrations).  The times are then those of a host on
which calibrate() takes REFERENCE_S.  The raw job times are printed next
to them.

The work imitates cch's (Fraction elimination, tuple keys in a dict) but
calls no cch code, so no change to cch moves it.  Do not change it or
REFERENCE_S: either changes the scale of every recorded time.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# About the mean time of calibrate() on the host where the baseline was
# taken (2-vCPU VM, Intel Xeon, Python 3.11.7) while it ran fast.
REFERENCE_S = 0.028

_N = 28


def _work():
    m = [[Fraction((i * i * j + 5 * i + 7 * j * j * j) % 13 - 6) for j in range(_N)] for i in range(_N)]
    rank = 0
    for col in range(_N):
        pivot = next((i for i in range(rank, _N) if m[i][col] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        head = m[rank]
        for i in range(rank + 1, _N):
            factor = m[i][col] / head[col]
            if factor:
                m[i] = [a - factor * b for a, b in zip(m[i], head)]
        rank += 1
    seen = {}
    stack = [((), 14)]
    while stack:
        prefix, left = stack.pop()
        if len(prefix) == 5:
            key = tuple(sorted(prefix + (left,)))
            seen[key] = seen.get(key, 0) + 1
            continue
        stack.extend((prefix + (i,), left - i) for i in range(left + 1))
    return rank, len(seen)


def calibrate() -> float:
    """Seconds taken by the fixed work, with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        _work()
        return perf_counter() - started
    finally:
        if enabled:
            gc.enable()
