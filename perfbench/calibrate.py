"""A fixed calibration kernel that measures how fast the host runs right now.

The benchmark's shared host alternates between a fast and a slow state,
about 1.6x apart, for seconds to minutes at a time, and a whole run can
fall into either. ``run.py`` times this kernel before and after every
repetition and scales the repetition's times by ``REFERENCE_S`` over the
mean of the two readings, so that they read as seconds on a host on which
the kernel takes ``REFERENCE_S``. The kernel uses no giantnet code, so a
change to the package moves the scaled times exactly as it moves the raw
ones.

The kernel mixes the two kinds of work the workloads spend their time
on: interpreter loops and many small numpy and LAPACK calls on a
per-agent working set of about 1 MB (products, ``exp`` and Cholesky
solves). It leaves out large dense products: their time jumped by up to
2x from one reading to the next, which made the scaled times noisier.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Seconds the kernel took in the fast state of a 2-vCPU Intel Xeon
# (2.1 GHz) with Python 3.11.7, numpy 2.4.6 and OpenBLAS 0.3.31.
REFERENCE_S = 0.15

_rng = np.random.default_rng(0)
_X = [_rng.standard_normal((50, 20)) for _ in range(100)]
_W = 0.1 * _rng.standard_normal(20)
_I = np.eye(20)


def kernel_s() -> float:
    """Wall time of one pass of the kernel."""
    t0 = perf_counter()
    acc = 0
    for i in range(800_000):
        acc += i * i
    for _ in range(30):
        for x in _X:
            p = 1.0 / (1.0 + np.exp(-(x @ _W)))
            h = x.T @ (x * (p * (1.0 - p))[:, None]) + _I
            np.linalg.solve(np.linalg.cholesky(h), x.T @ p)
    return perf_counter() - t0
