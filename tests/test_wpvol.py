from collections import defaultdict
from fractions import Fraction
from math import factorial, pi

import pytest

from rsurf.wpvol import (
    PiPoly,
    VolumePoly,
    WPLaurent,
    check_symmetry,
    dim_complexity,
    inverse_laplace,
    kernel_series,
    symmetrized_orbits,
    volume,
    w_laurent,
)


def test_pipoly_arithmetic_and_value():
    a = PiPoly({0: Fraction(1, 2), 1: 2})
    b = PiPoly(3)
    assert (a + b).coeffs == {0: Fraction(7, 2), 1: Fraction(2)}
    assert (a * b).coeffs == {0: Fraction(3, 2), 1: Fraction(6)}
    assert (a - a).is_zero()
    assert a.value() == pytest.approx(0.5 + 2 * pi**2)
    assert str(PiPoly({1: 1, 0: -2})) == "-2 + pi^2"


def test_kernel_series_matches_taylor():
    # w / sin(w) = 1 + w^2/6 + 7 w^4/360 + 31 w^6/15120 + ...
    c = kernel_series(3)
    assert c == (1, Fraction(1, 6), Fraction(7, 360), Fraction(31, 15120))


def test_volume_base_cases():
    v03 = volume(0, 3)
    assert v03.terms == {(0, 0, 0): PiPoly(1)}
    v11 = volume(1, 1)
    assert v11.terms == {
        (0,): PiPoly({1: Fraction(1, 12)}),
        (1,): PiPoly(Fraction(1, 48)),
    }
    v04 = volume(0, 4)
    assert v04.terms[(0, 0, 0, 0)] == PiPoly({1: 2})
    assert v04.terms[(1, 0, 0, 0)] == PiPoly(Fraction(1, 2))


def test_volume_one_two_against_literature():
    # V_{1,2} = (L1^2 + L2^2)^2/192 + pi^2 (L1^2 + L2^2)/12 + pi^4/4
    v = volume(1, 2)
    assert v.terms[(2, 0)] == PiPoly(Fraction(1, 192))
    assert v.terms[(1, 1)] == PiPoly(Fraction(1, 96))
    assert v.terms[(1, 0)] == PiPoly({1: Fraction(1, 12)})
    assert v.terms[(0, 0)] == PiPoly({2: Fraction(1, 4)})


def _product(*factors):
    """Product of polynomials given as {(L^2 power, pi^2 power): coefficient}."""
    out = {(0, 0): Fraction(1)}
    for factor in factors:
        acc = defaultdict(Fraction)
        for (m1, k1), c1 in out.items():
            for (m2, k2), c2 in factor.items():
                acc[m1 + m2, k1 + k2] += c1 * c2
        out = acc
    return dict(out)


def test_volume_two_one_closed_form():
    # V_{2,1}(L) = (4 pi^2 + L^2)(12 pi^2 + L^2)(6960 pi^4 + 384 pi^2 L^2 + 5 L^4)
    # / 2211840, term by term
    want = _product(
        {(1, 0): 1, (0, 1): 4},
        {(1, 0): 1, (0, 1): 12},
        {(2, 0): 5, (1, 1): 384, (0, 2): 6960},
    )
    got = {(m, k): c for (m,), p in volume(2, 1).terms.items() for k, c in p.coeffs.items()}
    assert got == {key: c / 2211840 for key, c in want.items()}


def _collect(terms):
    """{key: sum of coefficients} over (key, coefficient) pairs, zeros dropped."""
    out = defaultdict(Fraction)
    for key, c in terms:
        out[key] += c
    return {key: c for key, c in out.items() if c}


def _items(g, n):
    return [(ms, k, c) for ms, p in volume(g, n).terms.items() for k, c in p.coeffs.items()]


# every stable (g, n), n >= 1, with V_{g,n+1} of complexity at most six
STRING_DILATON = [
    (g, n) for g in range(3) for n in range(1, 9)
    if 2 * g - 2 + n > 0 and dim_complexity(g, n + 1) <= 6
]


@pytest.mark.parametrize("g,n", STRING_DILATON)
def test_string_and_dilaton_equations(g, n):
    """V_{g,n+1}(L, 2 pi i) = sum_k int_0^L_k L_k V_{g,n}(L) dL_k and
    dV_{g,n+1}/dL_{n+1}(L, 2 pi i) = 2 pi i (2g - 2 + n) V_{g,n}(L) (Do and
    Norbury), as polynomials in L^2 and pi^2: at L_{n+1} = 2 pi i,
    L_{n+1}^(2m) = (-4)^m pi^(2m); the second is multiplied by 2 pi i."""
    big, small = _items(g, n + 1), _items(g, n)
    lhs = _collect(((ms[:n], k + ms[n]), c * (-4) ** ms[n]) for ms, k, c in big)
    rhs = _collect(
        ((ms[:i] + (ms[i] + 1,) + ms[i + 1 :], k), c / (2 * ms[i] + 2))
        for ms, k, c in small
        for i in range(n)
    )
    assert lhs == rhs
    lhs = _collect(((ms[:n], k + ms[n]), 2 * ms[n] * (-4) ** ms[n] * c) for ms, k, c in big)
    rhs = _collect(((ms, k + 1), -4 * (2 * g - 2 + n) * c) for ms, k, c in small)
    assert lhs == rhs


def test_symmetry_and_homogeneity_random_signatures():
    for g, n in ((0, 5), (1, 3), (2, 2), (0, 6)):
        v = volume(g, n)
        assert check_symmetry(v)
        d = dim_complexity(g, n)
        for ms, c in v.terms.items():
            for k in c.coeffs:
                assert sum(ms) + k == d


def test_w_laurent_inverse_laplace_consistency():
    w = w_laurent(1, 1)
    v = inverse_laplace(w)
    assert v == volume(1, 1)
    # z^-2k maps to L^(2k-2)/(2k-1)!
    hand = {}
    for (k,), c in w.terms.items():
        hand[(k - 1,)] = c * Fraction(1, factorial(2 * k - 1))
    assert VolumePoly(1, hand) == v


def test_unstable_pairs_rejected():
    for g, n in ((0, 1), (0, 2), (1, 0), (0, 0)):
        with pytest.raises(ValueError):
            w_laurent(g, n)


def test_complexity_cap_enforced():
    with pytest.raises(ValueError):
        w_laurent(30, 1)


def test_symmetrized_orbits_partition():
    v = volume(0, 4)
    orbits = symmetrized_orbits(v)
    total = sum(len(members) for members in orbits.values())
    assert total == len(v.terms)
    for key, members in orbits.items():
        assert all(tuple(sorted(ms)) == key for ms, _ in members)
        cs = {c for _, c in members}
        assert len(cs) == 1  # symmetry forces equal coefficients on an orbit


def test_check_symmetry_detects_asymmetry():
    bad = VolumePoly(2, {(1, 0): PiPoly(1)})
    assert not check_symmetry(bad)


def test_wplaurent_validation():
    with pytest.raises(ValueError):
        WPLaurent(2, {(1,): PiPoly(1)})
    with pytest.raises(ValueError):
        WPLaurent(1, {(0,): PiPoly(1)})
    assert WPLaurent(1, {(2,): PiPoly(0)}).terms == {}


def test_eval_numeric():
    v = volume(1, 1)
    L = 1.7
    want = (L * L + 4 * pi * pi) / 48.0
    assert v.eval([L]) == pytest.approx(want, rel=1e-12)
