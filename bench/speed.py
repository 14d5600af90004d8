"""Machine-speed probe: a fixed piece of work timed between iterations.

The benchmark's host is shared.  It switches for seconds to minutes between
a fast and a slow state (the same code runs about 1.7x slower in the slow
one), and CPU time slows down with wall time, so whole runs can fall into
one state.  The probe is timed right before and right after each timed
piece of work; that work's time is then rescaled to the reference speed:

    scaled = measured * REFERENCE_S / mean(probe before, probe after)

The probe is pure Python plus small numpy calls, the mix the workloads
spend their time in, and it does not use gmeasure, so a change to the
program does not move it.  ``REFERENCE_S`` is the probe's time in the fast
state of a 2-CPU Intel Xeon at 2.1 GHz (python 3.11, numpy 2.4); on that
machine scaled times are fast-state wall times.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.0105
REPEATS = 3  # the probe reports the fastest of these


def _work() -> float:
    acc = 0.0
    table = {}
    for i in range(40000):
        acc += (i * 0.5) % 7.0
        table[i & 255] = acc
    a = np.arange(64, dtype=float)
    for _ in range(3000):
        a = np.sqrt(a * a + 1.0) - 0.5
    return acc + float(a.sum())


def probe() -> float:
    """Seconds taken by the fixed work, fastest of ``REPEATS`` runs."""
    best = float("inf")
    for _ in range(REPEATS):
        started = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - started)
    return best


def scale(before: float, after: float) -> float:
    """Factor from wall time measured between two probes to reference time."""
    return REFERENCE_S / ((before + after) / 2)
