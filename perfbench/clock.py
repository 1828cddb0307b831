"""Clocks, and the probe that scales every reported time.

This machine's speed drifts by up to half over seconds (README, "Noise").
Every timed op is bracketed by :func:`probe`, a fixed stretch of interpreter
and numpy work that uses no rsurf code, and reported as
``seconds * NOMINAL_PROBE_S / probe`` with ``probe`` the mean of the two
timings around it: the time the op would take on a machine where the probe
takes ``NOMINAL_PROBE_S``.
"""

import time

# about the probe's time on the machine the reference figures come from
NOMINAL_PROBE_S = 5.0e-4


def now():
    """Monotonic time, comparable between processes on this machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe():
    """Seconds that one fixed stretch of interpreter and numpy work takes now."""
    import numpy as np  # imported here: the cli launcher must not load numpy early

    start = time.perf_counter()
    acc = {}
    for i in range(600):
        acc[i % 37] = acc.get(i % 37, 0) + i * i % 7
    v = np.linspace(0.0, 1.0, 257) + 0.5j
    for _ in range(12):
        v = np.exp(-0.01 * v) @ np.ones((257, 1)) * v
        v = v.ravel()[:257] / (1.0 + abs(v[0]))
    return time.perf_counter() - start


def scaled(seconds, before, after):
    """``seconds`` measured between probes ``before`` and ``after``, scaled."""
    return seconds * NOMINAL_PROBE_S * 2.0 / (before + after)
