import time

import numpy as np
import pytest

from rsurf.periods import (
    abel_map,
    agm,
    bilinear_check,
    build_curve,
    elliptic_K,
    period_matrix,
    riemann_constant,
)
from rsurf.theta import reduce_lattice, theta
from rsurf.torus import reduce_modular


def test_build_curve_validation():
    with pytest.raises(ValueError):
        build_curve([1, 0, 1])  # degree 2
    with pytest.raises(ValueError):
        build_curve([0, 0, 0, 0, 1, 1])  # odd degree 5
    with pytest.raises(ValueError):
        build_curve([0, 0, 1, 0, 0, 0, 1])  # double root at 0
    c = build_curve([-1, 0, 0, 0, 1])
    assert c.genus == 1 and len(c.branch_points) == 4


def test_lemniscatic_tau():
    curve = build_curve([-1, 0, 0, 0, 1])  # y^2 = x^4 - 1
    tau, _, _ = period_matrix(curve)
    assert tau[0, 0] == pytest.approx(1j, abs=5e-12)


def test_legendre_curve_against_agm():
    # y^2 = x (x - 1) (x + 1) (x - 2) (x + 2) would be degree 5; use the
    # even-degree model (x^2 - 1)(x^2 - 4) scaled: branch points +-1, +-2
    curve = build_curve([4, 0, -5, 0, 1])
    tau, ma, mb = period_matrix(curve)
    res, pos = bilinear_check(ma, mb)
    assert res < 1e-9 and pos > 0
    # cross modulus k^2 = ((b-a)(d-c)) / ((c-a)(d-b)) for -2,-1,1,2
    k2 = (1.0 * 1.0) / (3.0 * 3.0)
    k = np.sqrt(k2)
    kp = np.sqrt(1 - k2)
    want = 1j * elliptic_K(kp) / elliptic_K(k)
    t0, _ = reduce_modular(complex(tau[0, 0]))
    w0, _ = reduce_modular(want)
    assert t0 == pytest.approx(w0, abs=1e-9)


def test_genus_two_symmetry_and_positivity():
    curve = build_curve([-1, 0, 0, 0, 0, 0, 1])  # y^2 = x^6 - 1
    tau, ma, mb = period_matrix(curve)
    assert tau.shape == (2, 2)
    assert np.max(np.abs(tau - tau.T)) < 1e-9
    assert np.linalg.eigvalsh(tau.imag)[0] > 0
    res, pos = bilinear_check(ma, mb)
    assert res < 1e-8 and pos > 0


def test_abel_map_branch_point_differences_are_half_periods():
    curve = build_curve([-1, 0, 0, 0, 1])
    tau, ma, _ = period_matrix(curve)
    us = [abel_map(curve, (bp, 0.0)) for bp in curve.branch_points]
    for u in us[1:]:
        assert np.max(np.abs(reduce_lattice(2 * (u - us[0]), tau))) < 1e-12


def test_riemann_constant_genus_one_is_basepoint_zero():
    # at genus one the theta divisor is the single point u = 0, so
    # theta(K + u(p)) vanishes exactly at the Abel basepoint
    curve = build_curve([-1, 0, 0, 0, 1])
    tau, ma, _ = period_matrix(curve)
    k = riemann_constant(curve)
    assert abs(theta(reduce_lattice(k, tau), tau)) < 1e-10


def test_riemann_constant_puts_curve_on_theta_divisor():
    curve = build_curve([-1, 0, 0, 0, 0, 0, 1])
    tau, ma, _ = period_matrix(curve)
    k = riemann_constant(curve)
    for x in (1.7 + 0.4j, -1.9 + 0.6j):
        y = np.sqrt(curve.q(x))
        u = abel_map(curve, (x, y))
        v = reduce_lattice(k + u, tau)
        scale = abs(theta(reduce_lattice(u, tau) + 0.1, tau))
        assert abs(theta(v, tau)) < 1e-10 * max(scale, 1.0)


def _sweep_curves():
    """x^(2g+2) - 1 for g = 1..5, a curve that once took over a minute, then
    seeded random curves of genus 1..4."""
    curves = [("x^%d-1" % (2 * g + 2), [-1] + [0] * (2 * g + 1) + [1]) for g in range(1, 6)]
    curves.append(("x^6-2x^4+2x^3-4x^2+5x+3", [3, 5, -4, 2, -2, 0, 1]))
    rng = np.random.default_rng(2019)
    for k in range(32):
        g, kind = 1 + k % 4, k // 4 % 4
        if kind < 2:  # real roots
            roots = rng.normal(size=2 * g + 2) * 2.0
        elif kind == 2:  # conjugate pairs
            half = rng.normal(size=g + 1) + 1j * rng.normal(size=g + 1)
            roots = np.concatenate([half, half.conj()])
        else:  # generic complex roots
            roots = rng.normal(size=2 * g + 2) + 1j * rng.normal(size=2 * g + 2)
        curves.append(("random-%d-g%d" % (k, g), list(np.poly(roots)[::-1])))
    return curves


@pytest.mark.parametrize("coeffs", [pytest.param(c, id=n) for n, c in _sweep_curves()])
def test_period_matrix_sweep(coeffs):
    start = time.perf_counter()
    tau, ma, mb = period_matrix(build_curve(coeffs))
    elapsed = time.perf_counter() - start
    raw = np.linalg.solve(ma, mb)  # tau before period_matrix symmetrizes it
    assert np.max(np.abs(raw - raw.T)) <= 1e-12 * max(1.0, np.max(np.abs(raw)))
    assert np.linalg.eigvalsh(tau.imag)[0] > 0
    res, pos = bilinear_check(ma, mb)
    assert res < 1e-10 * np.max(np.abs(ma)) * np.max(np.abs(mb)) and pos > 0
    assert elapsed < 1.0


def test_near_degenerate_curve_raises_quickly():
    start = time.perf_counter()
    with pytest.raises(ArithmeticError):
        build_curve(list(np.poly([0.0, 1.0, 1.0 + 1e-8, 2.0])[::-1]))
    curve = build_curve([-1, 0, 0, 0, 0, 0, 1])
    x = 1e6 * (0.6 + 0.8j)  # too far out for one segment from a branch point
    with pytest.raises(ArithmeticError):
        abel_map(curve, (x, np.sqrt(curve.q(x))))
    assert time.perf_counter() - start < 1.0


def test_abel_map_hyperelliptic_involution_negates():
    # the base point is a branch point, so (x, y) -> (x, -y) negates u
    curve = build_curve([-1, 0, 0, 0, 0, 0, 1])
    tau, _, _ = period_matrix(curve)
    x = 1.9 - 0.5j
    y = np.sqrt(curve.q(x))
    first, second = abel_map(curve, (x, y)), abel_map(curve, (x, -y))
    assert np.max(np.abs(reduce_lattice(first + second, tau))) < 1e-12
    assert np.max(np.abs(reduce_lattice(first - second, tau))) > 1e-2


@pytest.mark.parametrize(
    "coeffs",
    [
        [3, -2, -1, 3, -4, -2, 1],  # x^6 - 2x^5 - 4x^4 + 3x^3 - x^2 - 2x + 3
        [-5, -2, 0, 0, -4, 5, 1],  # x^6 + 5x^5 - 4x^4 - 2x - 5
        [-1] + [0] * 9 + [1],  # x^10 - 1
    ],
)
def test_riemann_constant_on_divisors_of_degree_g_minus_1(coeffs):
    curve = build_curve(coeffs)
    tau, ma, _ = period_matrix(curve)
    k = riemann_constant(curve)
    rng = np.random.default_rng(len(coeffs))
    for _ in range(4):
        u = k.copy()
        for _ in range(curve.genus - 1):
            x = complex(rng.normal(), rng.normal()) * 1.5
            u = u + abel_map(curve, (x, rng.choice([-1, 1]) * np.sqrt(curve.q(x))))
        v = reduce_lattice(u, tau)
        scale = abs(theta(v + 0.37 + 0.11j, tau))
        assert abs(theta(v, tau)) <= 1e-10 * max(scale, 1.0)


def test_reduce_lattice_idempotent_and_small():
    rng = np.random.default_rng(3)
    tau = np.array([[0.2 + 1.1j, 0.1 + 0.3j], [0.1 + 0.3j, -0.1 + 1.4j]])
    for _ in range(20):
        v = rng.normal(size=2) * 5 + 1j * rng.normal(size=2) * 5
        r = reduce_lattice(v, tau)
        assert np.max(np.abs(reduce_lattice(r, tau) - r)) < 1e-12
        # difference is a lattice vector
        m = np.linalg.solve(tau.imag, (v - r).imag)
        n = (v - r - tau @ np.round(m)).real
        assert np.max(np.abs(m - np.round(m))) < 1e-9
        assert np.max(np.abs(n - np.round(n))) < 1e-9


def test_agm_and_elliptic_K():
    # K(0) = pi/2 and the classical lemniscatic value K(1/sqrt 2)
    assert elliptic_K(0.0) == pytest.approx(np.pi / 2)
    assert elliptic_K(1 / np.sqrt(2)) == pytest.approx(1.8540746773013719, rel=1e-12)
    assert agm(1.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        elliptic_K(1.0)
