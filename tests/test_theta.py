import time

import numpy as np
import pytest

from rsurf import theta as theta_mod
from rsurf.theta import (
    ThetaBudgetError,
    ThetaDivisorError,
    bergman_theta,
    char_point,
    degenerate_szego,
    fay_check,
    hirota_check,
    kappa_klein,
    kappa_schiffer,
    kernel_shift,
    odd_characteristics,
    prime_form_g1,
    szego_g1,
    theta,
    theta_grad,
    theta_hessian,
    theta_quasi_residual,
    third_kind_form_g1,
)
from rsurf.torus import weierstrass_p


def _siegel(rng, g):
    a = rng.normal(size=(g, g))
    b = rng.normal(size=(g, g)) * 0.4
    return 0.15 * (a + a.T) + 1j * (b @ b.T + np.eye(g))


def test_genus_one_matches_series():
    # direct q-series sum as an independent oracle
    tau = 0.1 + 1.2j
    u = 0.31 - 0.12j
    direct = sum(
        np.exp(1j * np.pi * n * n * tau + 2j * np.pi * n * u) for n in range(-40, 41)
    )
    assert theta(np.array([u]), np.array([[tau]])) == pytest.approx(direct, rel=1e-13)


def test_quasi_periodicity_random():
    rng = np.random.default_rng(0)
    for g in (1, 2, 3):
        tau = _siegel(rng, g)
        u = rng.normal(size=g) + 1j * rng.normal(size=g) * 0.2
        m = rng.integers(-2, 3, size=g).astype(float)
        mp = rng.integers(-2, 3, size=g).astype(float)
        assert theta_quasi_residual(u, tau, m, mp) < 1e-11


def test_parity():
    rng = np.random.default_rng(1)
    tau = _siegel(rng, 2)
    u = rng.normal(size=2) + 1j * rng.normal(size=2) * 0.3
    assert theta(u, tau) == pytest.approx(theta(-u, tau), rel=1e-13)


def test_odd_characteristic_count_and_vanishing():
    for g in (1, 2, 3):
        chars = odd_characteristics(g)
        assert len(chars) == 2 ** (g - 1) * (2**g - 1)
        rng = np.random.default_rng(g)
        tau = _siegel(rng, g)
        for char in chars:
            assert abs(theta(char_point(char, tau), tau)) < 1e-10


def test_gradient_and_hessian_match_finite_differences():
    rng = np.random.default_rng(2)
    tau = _siegel(rng, 2)
    u = np.array([0.21 - 0.05j, -0.13 + 0.11j])
    h = 1e-6
    grad = theta_grad(u, tau)
    hess = theta_hessian(u, tau)
    for k in range(2):
        e = np.zeros(2)
        e[k] = h
        fd = (theta(u + e, tau) - theta(u - e, tau)) / (2 * h)
        assert grad[k] == pytest.approx(fd, rel=1e-8)
        fd2 = (theta_grad(u + e, tau) - theta_grad(u - e, tau)) / (2 * h)
        assert hess[:, k] == pytest.approx(fd2, rel=1e-7)


def test_validate_rejects_bad_tau():
    with pytest.raises(ValueError):
        theta(np.zeros(2), np.array([[1j, 0.2], [0.3, 1j]]))  # not symmetric
    with pytest.raises(ValueError):  # asymmetric by 2e-6, far above rounding
        theta(np.zeros(2), [[1j, 0.2 + 0.1j], [0.2 + 0.1j + 2e-6, 1.2j]])
    with pytest.raises(ValueError):
        theta(np.zeros(1), np.array([[1.0 - 1j]]))  # Im tau not positive


def test_prime_form_vanishes_only_on_diagonal():
    tau = 1.3j
    z, w = 0.31 + 0.12j, -0.17 + 0.08j
    assert abs(prime_form_g1(z, z + 1e-12, tau)) < 1e-10
    assert abs(prime_form_g1(z, w, tau)) > 1e-3
    # antisymmetry up to the quasi-periodicity phase of the odd theta shift
    phase = -np.exp(2j * np.pi * (z - w))
    assert prime_form_g1(w, z, tau) == pytest.approx(phase * prime_form_g1(z, w, tau), rel=1e-10)


def test_third_kind_a_period_and_residues():
    tau = 1.7j
    q1, q2 = 0.28 + 0.13j, -0.31 + 0.06j
    n = 256
    ts = (np.arange(n) + 0.5) / n
    # A period along a horizontal loop avoiding both poles
    z0 = 0.45 * tau
    total = np.sum([third_kind_form_g1(z0 + t, q1, q2, tau) for t in ts]) / n
    assert abs(total) < 1e-8
    # residues by small circles
    for q, want in ((q1, 1.0), (q2, -1.0)):
        r = 0.04
        ang = 2 * np.pi * ts
        vals = np.array([third_kind_form_g1(q + r * np.exp(1j * a), q1, q2, tau) for a in ang])
        res = np.sum(vals * r * np.exp(1j * ang)) / n
        assert res == pytest.approx(want, abs=1e-6)


def test_bergman_cycle_normalization():
    tau = 1.4j
    w = 0.11 + 0.07j
    n = 128
    ts = (np.arange(n) + 0.5) / n
    a_int = np.sum([bergman_theta(tau, 0.4 * tau + t, w, 1.0, 1.0) for t in ts]) / n
    assert abs(a_int) < 1e-8
    b_int = np.sum([bergman_theta(tau, 0.3 + t * tau, w, 1.0, 1.0) for t in ts]) * tau / n
    assert b_int == pytest.approx(2j * np.pi, abs=1e-7)


def test_kappa_schiffer_and_klein():
    tau = np.array([[1j]])
    assert kappa_schiffer(tau)[0, 0] == pytest.approx(0.5j)
    val = kappa_klein(tau, np.array([0.21 + 0.13j]))
    assert np.isfinite(val).all()


def test_szego_simple_pole():
    tau = 1.2j
    zeta = 0.17 + 0.23j
    w = 0.05 - 0.11j
    for eps in (1e-4, 1e-5):
        z = w + eps
        assert szego_g1(z, w, zeta, tau) * (z - w) == pytest.approx(1.0, rel=1e-3)


def test_fay_residual_small():
    tau = 1.1j
    zeta = 0.21 + 0.09j
    pairs = [(0.4 + 0.1j, -0.3 + 0.05j), (0.1 - 0.2j, 0.6 + 0.15j)]
    assert fay_check(tau, zeta, pairs) < 1e-11


def test_hirota_first_order_decay():
    tau = 1.3j
    rs = [
        hirota_check(tau, 0.13 + 0.07j, 0.5 + 0.1j, -0.4 + 0.2j, 0.1 - 0.3j, h)
        for h in (0.1, 0.05, 0.025)
    ]
    assert rs[1] < 0.75 * rs[0] and rs[2] < 0.75 * rs[1]


def test_degenerate_szego_pole_and_nodes():
    z, w = 0.9 + 0.4j, -0.8 + 0.1j
    nodes = [(0.3 + 0.2j, -0.3 - 0.2j)]
    val = degenerate_szego(z, w, nodes)
    assert np.isfinite(val)
    # simple pole at z = w
    for eps in (1e-4, 1e-5):
        assert degenerate_szego(w + eps, w, nodes) * eps == pytest.approx(1.0, rel=1e-3)


def _siegel_spread(rng, g):
    """tau whose Im tau has eigenvalues in [0.3, 2], so that the box size and
    the tail bound matter."""
    q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    a = rng.normal(size=(g, g))
    return 0.15 * (a + a.T) + 1j * (q * rng.uniform(0.3, 2.0, g)) @ q.T


def _theta_jet_reference(u, tau):
    """Value, gradient and Hessian of Theta by a plain sum over a box around
    the Gaussian centre, wide enough that the terms left out are below
    1e-30 of the largest; summed in slices to keep memory small at genus 5."""
    g = u.shape[0]
    width = int(np.sqrt(25.0 / np.linalg.eigvalsh(tau.imag)[0])) + 2
    centre = np.round(-np.linalg.solve(tau.imag, u.imag))
    shape = (2 * width + 1,) * g
    total = (2 * width + 1) ** g
    val, grad, hess = 0j, np.zeros(g, complex), np.zeros((g, g), complex)
    for start in range(0, total, 1 << 17):
        flat = np.arange(start, min(total, start + (1 << 17)))
        n = np.column_stack(np.unravel_index(flat, shape)) - width + centre
        terms = np.exp(1j * np.pi * np.einsum("ki,ki->k", n @ tau, n) + 2j * np.pi * (n @ u))
        val += np.sum(terms)
        grad += 2j * np.pi * (n.T @ terms)
        hess += -4 * np.pi**2 * ((n.T * terms) @ n)
    return val, grad, hess


def _assert_within_bounds(u, tau, ref):
    """Every value, gradient and Hessian entry is within its bound of ref."""
    g = u.shape[0]
    cases = [()] + [(i,) for i in range(g)]
    cases += [(i, j) for i in range(g) for j in range(i, g)]
    for derivs in cases:
        val, err = theta(u, tau, derivs=derivs, with_error=True)
        want = np.asarray(ref[len(derivs)])[derivs]
        assert abs(val - want) <= err, (derivs, abs(val - want), err)


def test_theta_error_bound_certifies_value():
    tau = np.array([[1.1j, 0.2 + 0.1j], [0.2 + 0.1j, 1.4j]])
    u = np.array([0.3 + 0.05j, -0.2 + 0.1j])
    val, err = theta(u, tau, with_error=True)
    assert err < 1e-12 * abs(val)
    assert ThetaDivisorError.__mro__[1] is ArithmeticError
    # seeded sweep against a wider plain sum
    rng = np.random.default_rng(30)
    for g, trials in ((1, 12), (2, 10), (3, 6), (4, 3), (5, 2)):
        for _ in range(trials):
            tau = _siegel_spread(rng, g)
            u = rng.normal(size=g) * 1.5 + 1j * rng.normal(size=g)
            _assert_within_bounds(u, tau, _theta_jet_reference(u, tau))


def test_theta_error_bound_against_jtheta():
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(31)
    for _ in range(24):
        tau = _siegel_spread(rng, 1)
        u = rng.normal(size=1) * 1.5 + 1j * rng.normal(size=1)
        with mpmath.workdps(30):
            q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau[0, 0]))
            z = mpmath.pi * mpmath.mpc(u[0])
            d = [complex(mpmath.pi**k * mpmath.jtheta(3, z, q, k)) for k in range(3)]
        _assert_within_bounds(u, tau, (d[0], np.array([d[1]]), np.array([[d[2]]])))


def test_plan_cache_warm_cold_and_keyed_by_value():
    rng = np.random.default_rng(40)
    tau = _siegel_spread(rng, 3)
    u = rng.normal(size=3) + 0.5j * rng.normal(size=3)
    theta_mod._plan.cache_clear()
    cold = theta_mod._theta_sum(*theta_mod._validate(u, tau), 2)
    warm = theta_mod._theta_sum(*theta_mod._validate(u, tau), 2)
    assert theta_mod._plan.cache_info().hits >= 1
    for a, b in zip(cold[0] + cold[1], warm[0] + warm[1]):
        assert np.array_equal(a, b)
    # a tau changed in place gets the value of the new tau
    tau1 = np.array([[0.1 + 1.2j]])
    v = np.array([0.31 - 0.12j])
    theta(v, tau1)
    tau1[0, 0] = -0.2 + 0.7j
    direct = sum(
        np.exp(1j * np.pi * n * n * tau1[0, 0] + 2j * np.pi * n * v[0]) for n in range(-40, 41)
    )
    assert theta(v, tau1) == pytest.approx(direct, rel=1e-13)


def test_plan_cache_stays_bounded_and_rejects_invalid_tau():
    rng = np.random.default_rng(41)
    for _ in range(100):
        theta(np.zeros(2), _siegel(rng, 2))
    assert theta_mod._plan.cache_info().currsize <= theta_mod._PLANS
    bad = np.array([[1j, 0.2], [0.3, 1j]])
    for _ in range(2):  # an invalid tau is never cached
        with pytest.raises(ValueError):
            theta(np.zeros(2), bad)


def test_budget_error_at_genus_eight_is_fast():
    # lambda_min(Im tau) = 0.05: the ellipsoid would hold about 1e7 points
    rng = np.random.default_rng(42)
    q, _ = np.linalg.qr(rng.normal(size=(8, 8)))
    tau = 1j * (q * np.r_[0.05, np.ones(7)]) @ q.T
    tau = (tau + tau.T) / 2
    start = time.perf_counter()
    with pytest.raises(ThetaBudgetError):
        theta(np.zeros(8), tau)
    assert time.perf_counter() - start < 1.0
    assert issubclass(ThetaBudgetError, ArithmeticError)


def test_kernel_shift_genus_one_against_weierstrass():
    # with shift (1 + tau)/2, B = p(u_p - u_q) + (pi^2/3) E2(tau), and the
    # Schiffer shift subtracts pi / Im tau; E2 = 1 - 24 sum sigma_1(n) q^n
    tau = 0.13 + 1.1j
    q = np.exp(2j * np.pi * tau)
    e2 = 1 - 24 * sum(
        sum(d for d in range(1, k + 1) if k % d == 0) * q**k for k in range(1, 40)
    )
    c = (1 + tau) / 2
    kappa = kappa_schiffer(np.array([[tau]]))
    rng = np.random.default_rng(43)
    for _ in range(8):
        up = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        uq = complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.4, 0.4))
        wp = weierstrass_p(up - uq, tau)
        assert bergman_theta(tau, up, uq, 1.0, 1.0, shift=[c]) == pytest.approx(
            wp + np.pi**2 / 3 * e2, rel=1e-12
        )
        shifted = kernel_shift(tau, kappa, up, uq, 1.0, 1.0, shift=[c])
        assert shifted == pytest.approx(
            wp + np.pi**2 / 3 * (e2 - 3 / (np.pi * tau.imag)), rel=1e-12
        )
