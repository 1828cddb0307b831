"""Genus-one building blocks: the Weierstrass function and modular moves.

The lattice is always normalized to Z + tau Z with Im tau > 0.  The
Weierstrass function and its derivative are quotients of Jacobi theta
functions, each a genus-one Riemann theta value from the lattice sum of
:mod:`rsurf.theta`, so they carry its error bounds; z is first reduced
modulo the lattice by the same routine that recentres the theta sum.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .theta import _U, _reduce, _theta_sum, _validate

__all__ = [
    "weierstrass_p",
    "weierstrass_p_prime",
    "reduce_modular",
    "apply_modular_g1",
]


def _quotient(z, tau, order):
    """(a, b, err, dlog) with p(z) = -a - b, err its first-order error and
    dlog = d/dz log a at ``order`` 1.  With T(u) = Theta(u | tau),
    theta_3 = T(0), theta_2 = e^(i pi tau/4) T(tau/2), theta_4(pi z) =
    T(z + 1/2) and theta_1(pi z) = -i e^(i pi tau/4 + i pi z) T(z + 1/2 + tau/2),
    so a = (pi e^(-i pi z) T(tau/2) T(0) T(z + 1/2) / T(z + 1/2 + tau/2))^2
    and b = (pi^2 / 3)(theta_2^4 + theta_3^4).
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    u, plan = _validate([z], [[tau]])
    z = complex(_reduce(u, plan.tau, plan.yinv)[0][0])
    if z == 0:
        raise ZeroDivisionError("pole of the p-function")
    # one batched sum gives T(tau/2), T(0), T(z + 1/2), T(z + 1/2 + tau/2)
    us = np.array([[tau / 2], [0j], [z + 0.5], [z + 0.5 + tau / 2]])
    jet, errs = _theta_sum(us, plan, order)
    t2, t3, t4, t1 = jet[0]
    rel = errs[0] / np.abs(jet[0])
    a = (np.pi * np.exp(-1j * np.pi * z) * t2 * t3 * t4 / t1) ** 2
    th2 = np.exp(1j * np.pi * tau) * t2**4
    b = np.pi**2 / 3 * (th2 + t3**4)
    err = (
        2 * abs(a) * sum(rel)
        + 4 * np.pi**2 / 3 * (abs(th2) * rel[0] + abs(t3) ** 4 * rel[1])
        + _U * (2 * np.pi * (abs(z) + abs(tau)) + 32) * (abs(a) + abs(b))
    )
    dlog = None
    if order:
        d4, d1 = jet[1][2:, 0]
        dlog = 2 * (d4 / t4 - d1 / t1 - 1j * np.pi)
    return a, b, err, dlog


def weierstrass_p(z, tau, with_error=False):
    """Weierstrass p-function on C / (Z + tau Z), as the theta quotient
    (pi theta_2 theta_3 theta_4(pi z) / theta_1(pi z))^2
    - (pi^2 / 3)(theta_2^4 + theta_3^4).  With ``with_error`` set, returns
    ``(value, err)``, ``err`` propagated from the four theta bounds."""
    a, b, err, _ = _quotient(z, tau, 0)
    if with_error:
        return -a - b, err
    return -a - b


def weierstrass_p_prime(z, tau):
    """Derivative of the p-function, -a d/dz log a from order-one jets."""
    a, _, _, dlog = _quotient(z, tau, 1)
    return -a * dlog


def reduce_modular(tau, max_steps=1000):
    """Representative of tau in the fundamental domain of PSL(2, Z).

    The domain is -1/2 <= Re tau < 1/2, |tau| >= 1, with the boundary tie
    broken so that |tau| = 1 keeps Re tau <= 0.  Returns ``(tau0, M)`` with
    M an integer matrix [[a, b], [c, d]] of determinant one such that
    tau0 = (a tau + b) / (c tau + d).
    """
    tau = complex(tau)
    if tau.imag <= 0:
        raise ValueError("tau must have positive imaginary part")
    a, b, c, d = 1, 0, 0, 1
    for _ in range(max_steps):
        shift = -int(np.floor(tau.real + 0.5))
        if tau.real + shift >= 0.5 - 1e-15:
            shift -= 1
        if shift:
            tau = tau + shift
            a, b = a + shift * c, b + shift * d
        r = abs(tau)
        if r < 1.0 - 1e-15:
            tau = -1.0 / tau
            a, b, c, d = -c, -d, a, b
            continue
        if r < 1.0 + 1e-15 and tau.real > 1e-15:
            tau = -1.0 / tau
            a, b, c, d = -c, -d, a, b
            shift = -int(np.floor(tau.real + 0.5))
            if shift:
                tau = tau + shift
                a, b = a + shift * c, b + shift * d
            break
        break
    else:
        raise RuntimeError("modular reduction did not terminate")
    return tau, ((a, b), (c, d))


def apply_modular_g1(tau, matrix):
    """Moebius action tau -> (a tau + b) / (c tau + d) of SL(2, Z).

    Accepts exact rational tau components when given as a pair
    ``(re, im)`` of Fractions, otherwise works in complex floats.  The
    composition law apply(apply(tau, M1), M2) == apply(tau, M2 @ M1) holds
    exactly in the rational mode.
    """
    (a, b), (c, d) = matrix
    if a * d - b * c != 1:
        raise ValueError("matrix must have determinant one")
    if isinstance(tau, tuple):
        re, im = Fraction(tau[0]), Fraction(tau[1])
        # (a tau + b) / (c tau + d) with tau = re + i im, exactly
        nr, ni = a * re + b, a * im
        dr, di = c * re + d, c * im
        den = dr * dr + di * di
        if den == 0:
            raise ZeroDivisionError("tau is a pole of the transformation")
        return ((nr * dr + ni * di) / den, (ni * dr - nr * di) / den)
    tau = complex(tau)
    den = c * tau + d
    if den == 0:
        raise ZeroDivisionError("tau is a pole of the transformation")
    return (a * tau + b) / den
