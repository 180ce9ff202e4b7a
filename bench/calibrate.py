"""Reference kernels that time the host, not fpsum.

The benchmark's host is a VM whose speed drifts by tens of percent over
minutes, with bursts of contention from other tenants on top.  The kernels
below do the same work on every call and use nothing from fpsum.  A pass
times them between its ops, in the same process, so their median time over
a run tracks how fast the host ran the run's ops.  ``scale(samples)`` turns
that into the factor that brings the run's timings to a host on which the
kernels' typical time is ``NOMINAL_S``.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_RNG = np.random.default_rng(20210315)
_BIG = _RNG.standard_normal(100_000)
_SMALL = _RNG.standard_normal(64)


def vector() -> float:
    """Array-bound: elementwise transcendental functions, a sort and a scan."""
    x, acc = _BIG, 0.0
    for _ in range(4):
        y = np.cos(x) * np.exp(-0.5 * x * x)
        acc += float(np.cumsum(np.sort(y))[-1])
    return acc


def scalar() -> float:
    """Call-bound: many numpy calls on tiny arrays."""
    acc = 0.0
    for _ in range(5_000):
        acc += float(np.sum(np.cos(_SMALL)))
    return acc


KERNELS = {"vector": vector, "scalar": scalar}

# sum of the kernels' median times on a 2-vCPU Xeon VM (median of 96 runs)
NOMINAL_S = 0.055


def measure() -> dict:
    """Seconds each kernel takes once, now."""
    out = {}
    for name, kernel in KERNELS.items():
        start = time.perf_counter()
        kernel()
        out[name] = time.perf_counter() - start
    return out


def typical(samples) -> float:
    """Sum over the kernels of the median time each took in ``samples``."""
    return sum(statistics.median(s[name] for s in samples) for name in KERNELS)


def scale(samples) -> float:
    """Factor from this run's host speed to the nominal one."""
    return NOMINAL_S / typical(samples)
