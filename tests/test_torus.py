from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsurf.torus import (
    apply_modular_g1,
    reduce_modular,
    weierstrass_p,
    weierstrass_p_prime,
)


def test_p_is_even_and_periodic():
    tau = 0.3 + 1.2j
    z = 0.23 + 0.31j
    p = weierstrass_p(z, tau)
    assert weierstrass_p(-z, tau) == pytest.approx(p, rel=1e-9)
    assert weierstrass_p(z + 1, tau) == pytest.approx(p, rel=1e-9)
    assert weierstrass_p(z + tau, tau) == pytest.approx(p, rel=1e-9)


def test_p_prime_is_odd():
    tau = 1.5j
    z = 0.31 - 0.14j
    assert weierstrass_p_prime(-z, tau) == pytest.approx(
        -weierstrass_p_prime(z, tau), rel=1e-8
    )


def test_p_prime_matches_finite_difference():
    tau = 0.1 + 1.3j
    z = 0.27 + 0.19j
    h = 1e-5
    fd = (weierstrass_p(z + h, tau) - weierstrass_p(z - h, tau)) / (2 * h)
    assert weierstrass_p_prime(z, tau) == pytest.approx(fd, rel=1e-5)


def test_differential_equation():
    # p'^2 = 4 p^3 - g2 p - g3 checked through three half periods:
    # e1 + e2 + e3 = 0 and p' vanishes there
    tau = 1.1j
    es = [
        weierstrass_p(h, tau)
        for h in (0.5, tau / 2, (1 + tau) / 2)
    ]
    assert sum(es) == pytest.approx(0.0, abs=1e-7)
    for h in (0.5, tau / 2, (1 + tau) / 2):
        assert abs(weierstrass_p_prime(h, tau)) < 1e-7


def _p_oracle(z, tau):
    """p and p' as mpmath Jacobi theta quotients:
    p = (pi theta_2 theta_3 theta_4(pi z) / theta_1(pi z))^2
    - (pi^2 / 3)(theta_2^4 + theta_3^4)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        q = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))
        t2, t3 = mpmath.jtheta(2, 0, q), mpmath.jtheta(3, 0, q)

        def p(w):
            pw = mpmath.pi * w
            ratio = mpmath.pi * t2 * t3 * mpmath.jtheta(4, pw, q) / mpmath.jtheta(1, pw, q)
            return ratio**2 - mpmath.pi**2 / 3 * (t2**4 + t3**4)

        return complex(p(mpmath.mpc(z))), complex(mpmath.diff(p, mpmath.mpc(z)))


def test_p_pole_and_error_estimate():
    tau = 1.2j
    with pytest.raises(ZeroDivisionError):
        weierstrass_p(1 + tau, tau)  # lattice point
    val, err = weierstrass_p(0.3, tau, with_error=True)
    ref, _ = _p_oracle(0.3, tau)
    assert abs(val - ref) <= err


def test_p_and_p_prime_match_theta_quotient():
    rng = np.random.default_rng(11)
    for _ in range(30):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.6, 2.0))
        z = complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
        ref, ref_prime = _p_oracle(z, tau)
        val, err = weierstrass_p(z, tau, with_error=True)
        assert abs(val - ref) <= 1e-12 * abs(ref)
        assert abs(val - ref) <= err
        assert abs(weierstrass_p_prime(z, tau) - ref_prime) <= 1e-12 * abs(ref_prime)


def test_reduce_modular_known_values():
    tau0, m = reduce_modular(5.3 + 0.7j)
    (a, b), (c, d) = m
    assert a * d - b * c == 1
    t = 5.3 + 0.7j
    assert (a * t + b) / (c * t + d) == pytest.approx(tau0, rel=1e-12)
    assert -0.5 - 1e-12 <= tau0.real < 0.5 + 1e-12
    assert abs(tau0) >= 1 - 1e-12
    # already reduced input is fixed
    assert reduce_modular(0.1 + 1.5j)[0] == pytest.approx(0.1 + 1.5j)
    assert reduce_modular(0.1 + 1.5j)[1] == ((1, 0), (0, 1))


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=-8, max_value=8, allow_nan=False),
    st.floats(min_value=0.05, max_value=5, allow_nan=False),
)
def test_reduce_modular_property(re, im):
    tau = complex(re, im)
    tau0, m = reduce_modular(tau)
    (a, b), (c, d) = m
    assert a * d - b * c == 1
    assert (a * tau + b) / (c * tau + d) == pytest.approx(tau0, rel=1e-9, abs=1e-9)
    assert -0.5 - 1e-9 <= tau0.real < 0.5 + 1e-9
    assert abs(tau0) >= 1 - 1e-9


def test_reduce_modular_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        reduce_modular(1.0 - 0.5j)


def test_apply_modular_float_and_exact():
    m = ((2, 1), (1, 1))
    tau = 0.4 + 0.9j
    assert apply_modular_g1(tau, m) == pytest.approx((2 * tau + 1) / (tau + 1))
    re, im = apply_modular_g1((Fraction(2, 5), Fraction(9, 10)), m)
    got = complex(re) + 1j * complex(im)
    assert got == pytest.approx(apply_modular_g1(0.4 + 0.9j, m), rel=1e-12)


def test_apply_modular_composition_exact():
    m1 = ((1, 1), (0, 1))
    m2 = ((0, -1), (1, 0))
    m21 = ((0, -1), (1, 1))  # m2 @ m1
    tau = (Fraction(1, 3), Fraction(7, 4))
    step = apply_modular_g1(apply_modular_g1(tau, m1), m2)
    assert step == apply_modular_g1(tau, m21)


def test_apply_modular_rejects_bad_determinant():
    with pytest.raises(ValueError):
        apply_modular_g1(1.3j, ((2, 0), (0, 1)))
