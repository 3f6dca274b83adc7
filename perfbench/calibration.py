"""How fast this machine runs right now, and job times rescaled by it.

The machine the benchmark runs on may be shared, and its speed drifts:
one fixed ``oracle`` job took from 0.76 to 1.16 times its median over
successive 10 s windows of one minute.  So the benchmark times ``kernel``
(a fixed piece of work that shares no code with hypermono) between jobs,
outside the timed region, and reports every time as if the machine ran
the kernel in ``CALIBRATION_S``.  Each time is scaled by the kernel
samples around it, so drift within a run is corrected too; over the
same minute the rescaled 10 s windows stayed within 0.96 to 1.01.  The
kernel never changes, so a faster program still shows as faster.
"""

from __future__ import annotations

import time

import numpy as np

#: times are reported as if the kernel took this long
CALIBRATION_S = 0.007
#: each time is scaled by the median of this many kernel samples around it:
#: the worker samples just before and just after each job that is longer
#: than its sampling interval, so two bracket such a job
NEAREST = 2

_A = np.array([[0, 1, 0], [0, 0, 1], [0.3 + 0.1j, -0.2, 0.5j]])
_V = np.linspace(0.0, 1.0, 20_000) * (1 + 1j)


def kernel() -> float:
    """Seconds for RK4 steps of a 3x3 complex linear system plus two passes
    over a 20k-element array: the small-array numpy and interpreter work of
    the transport oracle and the bandwidth-bound work of the circle kernel.
    """
    t0 = time.perf_counter()
    Y = np.eye(3, dtype=complex)
    h = 0.01
    for _ in range(100):
        k1 = _A @ Y
        k2 = _A @ (Y + h / 2 * k1)
        k3 = _A @ (Y + h / 2 * k2)
        k4 = _A @ (Y + h * k3)
        Y = Y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        float(np.mean(np.abs(k1 - k4) / (1e-12 + np.abs(Y))))
    for _ in range(2):
        float(np.sum(np.abs(np.exp(1j * _V) * _V)))
    return time.perf_counter() - t0


def sample() -> list[float]:
    """One kernel sample as [midpoint on the perf_counter clock, seconds]."""
    seconds = kernel()
    return [time.perf_counter() - seconds / 2, seconds]


def scales(times, samples) -> np.ndarray:
    """Factor for each time in ``times`` (perf_counter instants):
    CALIBRATION_S over the median of the NEAREST kernel samples around it
    in time.  A slow machine has long samples and a factor below 1.
    """
    samples = sorted(samples)
    at = np.array([t for t, _ in samples])
    seconds = np.array([s for _, s in samples])
    k = min(NEAREST, len(at))
    out = np.empty(len(times))
    for i, t in enumerate(times):
        lo = int(np.clip(np.searchsorted(at, t) - k // 2, 0, len(at) - k))
        out[i] = CALIBRATION_S / np.median(seconds[lo:lo + k])
    return out
