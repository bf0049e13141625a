"""Reference kernel that rescales measured times to one machine speed.

On a shared host, the speed of a core changes by 20–45 % over periods of
5–20 s, most likely as other tenants load the same physical core.  That is
the same order as the changes the benchmark has to detect, and a 20 s run
does not average it out.  So every timed pass is bracketed by a fixed
computation that does not touch shapeinv, and the pass time is rescaled by
NOMINAL_S / (kernel time).  The kernel mixes two kinds of work the
workloads do: a LAPACK eigensolve, and interpreter-bound small-array
arithmetic.  Its time is the geometric mean of the two parts.  A workload
whose dominant work follows the kernel only in part is rescaled by a power
of the ratio below 1 (workloads.Workload.kernel_power).
"""

import math
import time

import numpy as np

NOMINAL_S = 0.00375   # median kernel time on the 2-core Xeon host the bounds were set on

_MATRIX = np.random.default_rng(0).standard_normal((200, 200))
_MATRIX = _MATRIX + _MATRIX.T


def _small_array_work() -> float:
    total, basis = 0.0, np.arange(4.0)
    for i in range(400):
        v = np.zeros(4)
        v[i % 4] = 1.0
        total += float(np.outer(basis + v, v).sum())
    table = {(i, i + 1): i for i in range(3000)}
    return total + len(table)


def kernel_s() -> float:
    """Seconds one reference kernel takes right now."""
    t0 = time.perf_counter()
    np.linalg.eigh(_MATRIX)
    t1 = time.perf_counter()
    _small_array_work()
    t2 = time.perf_counter()
    return math.sqrt((t1 - t0) * (t2 - t1))
