"""Theta functions: quasi-periodicity, Fay's identity, kernel periods.

Evaluates the Riemann theta function with a truncation and rounding bound,
verifies the quasi-periodicity law at a random genus 2 point, runs the
four-point trisecant identity, and integrates the theta-derived second
kind kernel over the two cycles of a torus.
"""

import numpy as np

from rsurf.theta import (
    bergman_theta,
    fay_check,
    theta,
    theta_quasi_residual,
)

rng = np.random.default_rng(7)

tau2 = np.array([[0.3 + 1.1j, 0.1 + 0.2j], [0.1 + 0.2j, -0.2 + 1.5j]])
u = rng.normal(size=2) + 0.2j * rng.normal(size=2)
val, err = theta(u, tau2, with_error=True)
print("theta(u) = %s  (truncation and rounding bound %.1e)" % (val, err))
print("quasi-periodicity residual: %.1e" % theta_quasi_residual(u, tau2, [1, -2], [0, 1]))

tau = 1.3j
pairs = [(0.4 + 0.1j, -0.3 + 0.05j), (0.1 - 0.2j, 0.6 + 0.15j)]
print("Fay four-point residual at tau = %s: %.1e" % (tau, fay_check(tau, 0.21 + 0.09j, pairs)))

# cycle integrals of the second kind kernel B(z, w) dz dw on the torus
n = 256
ts = (np.arange(n) + 0.5) / n
w = 0.123 + 0.071j
a_int = np.sum([bergman_theta(tau, 0.41 * tau + t, w, 1.0, 1.0) for t in ts]) / n
b_int = np.sum([bergman_theta(tau, 0.37 + t * tau, w, 1.0, 1.0) for t in ts]) * tau / n
print("A-cycle integral of the kernel: %.2e (expected 0)" % abs(a_int))
print("B-cycle integral of the kernel: %s (expected 2 pi i = %s)" % (b_int, 2j * np.pi))
