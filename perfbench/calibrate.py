"""Machine-speed calibration: a fixed piece of exact arithmetic, timed.

The benchmark runs on shared hosts whose speed drifts by up to 1.7x over
seconds to minutes.  Other tenants drive the drift, and it cannot be seen
from inside the process: the program's own CPU time moves with wall time.  To keep that
drift out of the figures, the benchmark times this kernel between
instances and scales each instance time by ``REFERENCE_S / kernel time``
(see ``speed_factor``).  A figure then reads as seconds on a host where
the kernel takes ``REFERENCE_S``.

The kernel is the benchmark's own code on fixed inputs: exact rational
Gaussian elimination and orientation tests, the same kind of work as the
program's exact geometry.  No change to the program can change its
running time.
"""

from __future__ import annotations

import gc
import random
import statistics
import time
from fractions import Fraction
from itertools import combinations
from typing import List, Tuple

# A typical kernel time on the tuning host (Intel Xeon, Python 3.11.7),
# which ran it in 6-13 ms.  A constant, so the scale never depends on a run.
REFERENCE_S = 0.009

_rng = random.Random(20260101)
_MATRIX = [[Fraction(_rng.randint(-40, 40), _rng.randint(1, 9)) for _ in range(7)]
           for _ in range(7)]
_POINTS = [(Fraction(_rng.randint(-99, 99), _rng.randint(1, 7)),
            Fraction(_rng.randint(-99, 99), _rng.randint(1, 7))) for _ in range(13)]
del _rng


def _det(m: List[List[Fraction]]) -> Fraction:
    m = [row[:] for row in m]
    n = len(m)
    d = Fraction(1)
    for c in range(n):
        p = next(r for r in range(c, n) if m[r][c] != 0)
        if p != c:
            m[c], m[p] = m[p], m[c]
            d = -d
        d *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return d


def _orientations(pts) -> int:
    signs = {}
    for a, b, c in combinations(pts, 3):
        o = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        signs[(a, b, c)] = o > 0
    return sum(signs.values())


def kernel() -> None:
    for _ in range(3):
        _det(_MATRIX)
    _orientations(_POINTS)


def measure(repeats: int = 3) -> float:
    """The median of a few timings of the kernel, in seconds.  The
    collector is off meanwhile, so the size of the program's heap does
    not reach into the timing."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(repeats):
            t0 = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def speed_factor(before: float, after: float) -> float:
    """Scale for work timed between two kernel measurements."""
    return REFERENCE_S / ((before + after) / 2)


def scaled(times: List[Tuple[float, float, float]]) -> List[float]:
    """(seconds, kernel before, kernel after) -> scaled seconds."""
    return [t * speed_factor(b, a) for t, b, a in times]
