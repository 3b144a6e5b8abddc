"""Machine-speed reference for timings taken on a shared machine.

Other tenants of a shared host slow this process down by up to 2x, in
episodes that last from seconds to minutes, and the slowdown is in CPU time
as well as wall time (the process runs, but slower).  A run that falls
inside such an episode reads slow on every sample, so neither the fastest
nor the median sample of a run escapes it.

:func:`probe` times a fixed reference kernel that mixes the kinds of work
the engines do: interpreted Python with dict updates, small numpy
operations, an ``argsort`` of projected scores and small HiGHS ``linprog``
solves.  It calls nothing from ``src/``, so no change to the program moves
it.  A phase timed between two probes is reported in *reference seconds*:
its wall time times ``REFERENCE_S`` over the mean of the two probes, i.e.
the time the phase would have taken with the machine running the kernel at
its idle speed.  On a quiet 2-core VM the kernel and the engines slowed
together (over 4-minute traces, the quartile spread of 6-second medians
dropped from 0.07-0.59 raw to 0.03-0.15 normalised).
"""

from __future__ import annotations

import time

import numpy as np
from scipy.optimize import linprog

#: About the kernel's time on an idle 2-core Xeon VM (2.0 GHz, Python 3.11,
#: numpy 2.4, scipy 1.17), so reference seconds read close to wall seconds there.
REFERENCE_S = 0.0055
#: A probe keeps the fastest of this many kernel runs (drops interrupts).
PROBE_REPEATS = 3

_RNG = np.random.default_rng(0)
_SMALL = _RNG.random(64)
_POINTS = _RNG.random((600, 3))
_WEIGHTS = _RNG.random((10, 3))
_COST = np.array([1.0, 1.0, -1.0])
_A_UB = np.array([[1.0, 2.0, 0.5], [2.0, 1.0, 0.3], [-1.0, 0.0, 1.0]])


def reference_kernel() -> float:
    counts: dict[int, int] = {}
    total = 0
    for i in range(4000):
        counts[i % 97] = counts.get(i % 97, 0) + i
        total += i * i % 7
    values = _SMALL
    for _ in range(100):
        values = np.sort(values[::-1] * 1.0001)
    for weights in _WEIGHTS:
        total += int(np.argsort(_POINTS @ weights)[0])
    for bound in (2.0, 3.0):
        solution = linprog(
            _COST, A_ub=_A_UB, b_ub=np.array([4.0, 5.0, bound]), bounds=[(0, None)] * 3,
            method="highs",
        )
        total += int(solution.status)
    return total + float(values[0])


def probe() -> float:
    """Seconds of one reference kernel run now: the fastest of ``PROBE_REPEATS``."""
    fastest = float("inf")
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        reference_kernel()
        fastest = min(fastest, time.perf_counter() - start)
    return fastest
