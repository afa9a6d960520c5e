"""Host pace: a fixed reference kernel timed next to every measurement.

The benchmark runs on a shared host whose speed drifts: other tenants
slow interpreter-bound code by 1.4-1.9x in episodes lasting from seconds
to minutes, and process CPU time slows with the wall clock, so neither
clock can tell the program's cost from the host's.  This kernel does the
same work on every call, with the instruction mix of the measured code
(a per-row Python loop of small numpy vector operations, as in the
learners, and a fancy-index copy of a 20000 x 20 array, as in the tree's
row selection), and uses nothing from treecv, so a change to treecv
cannot move it.

`scaled(seconds, pace_s)` expresses a measured time at the reference
pace: seconds * REFERENCE_S / pace_s, where pace_s is the kernel's time
measured around the measurement.  A program change moves the scaled time
in proportion; a host slowdown moves both factors and cancels, fully for
interpreter-bound code and in part for vectorised numpy code, which the
slow episodes slow less than they slow this kernel.
"""

from __future__ import annotations

import math
import time

import numpy as np

# The kernel's time on a 2-vCPU Intel Xeon virtual machine in its fast
# periods (0.025-0.032 s; 0.045-0.066 s in its slow ones).  It only fixes
# the unit: scaled times read as seconds on that host when it is fast.
REFERENCE_S = 0.030
PASSES = 3  # kernel passes per pace measurement

_rows = np.random.default_rng(20150701)
_X = _rows.standard_normal((3000, 20))
_Y = np.where(_rows.random(3000) < 0.5, -1.0, 1.0)
_BIG = _rows.standard_normal((20000, 20))
_ORDER = _rows.permutation(20000)


def _kernel() -> float:
    w = np.zeros(20)
    avg = np.zeros(20)
    for t, (x, y) in enumerate(zip(_X, _Y), 1):
        margin = y * float(w @ x)
        w *= 0.999
        if margin < 1.0:
            w += (0.001 * y) * x
        norm = math.sqrt(float(w @ w))
        if norm > 1.0:
            w /= norm
        avg += (w - avg) / t
    for _ in range(4):
        avg += _BIG[_ORDER].sum(axis=0)
    return float(avg.sum())


def pace() -> float:
    """Seconds one pass of the reference kernel takes now (mean of PASSES)."""
    start = time.perf_counter()
    for _ in range(PASSES):
        _kernel()
    return (time.perf_counter() - start) / PASSES


def scaled(seconds: float, pace_s: float) -> float:
    """`seconds` measured while the kernel took `pace_s`, at the reference pace."""
    return seconds * REFERENCE_S / pace_s

