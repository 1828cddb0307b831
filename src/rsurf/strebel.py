"""Strebel graphs on the three-holed sphere and quadratic differentials.

A pair of pants with boundary lengths (L0, L1, Linf) carries one of four
critical graphs of the Strebel differential, decided by triangle-style
inequalities among the lengths.  The generic graph (1) is the theta graph;
each degenerate graph (2, 3, 4) appears when one boundary is at least as
long as the other two together.  Edge lengths solve the linear relations of
the graph:

    graph 1:  L0 = l1 + l2,  L1 = l2 + l3,  Linf = l3 + l1
    graph 2:  L0 = l1,  L1 = l2,  Linf = l1 + l2 + 2 l3      (Linf dominant)
    graph 3:  L0 = l1,  Linf = l3,  L1 = l1 + l3 + 2 l2      (L1 dominant)
    graph 4:  L1 = l2,  Linf = l3,  L0 = l2 + l3 + 2 l1      (L0 dominant)

Ties fall to graph 1 with a vanishing edge.  The module also builds the
explicit quadratic differentials with prescribed double-pole coefficients
-L_i^2 / (4 pi^2)-normalized as -L_i^2 at the marked points for the sphere
with 3 or more marked points, and the family on the one-holed torus.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import BivariatePoly

__all__ = ["classify_pants", "PantsGraph", "QuadDiff", "quad_diff", "dim_quad_space"]


@dataclass(frozen=True)
class PantsGraph:
    graph: int
    lengths: tuple  # (l1, l2, l3)


def classify_pants(L0, L1, Linf):
    """Critical graph and edge lengths of the Strebel differential.

    Boundary lengths must be positive; exact when given as rationals.
    Returns a :class:`PantsGraph` with the graph number and the three edge
    lengths in the conventions of the module docstring.
    """
    L0, L1, Linf = _num(L0), _num(L1), _num(Linf)
    if L0 <= 0 or L1 <= 0 or Linf <= 0:
        raise ValueError("boundary lengths must be positive")
    two = 2
    if Linf > L0 + L1:
        return PantsGraph(2, (L0, L1, (Linf - L0 - L1) / two))
    if L1 > L0 + Linf:
        return PantsGraph(3, (L0, (L1 - L0 - Linf) / two, Linf))
    if L0 > L1 + Linf:
        return PantsGraph(4, ((L0 - L1 - Linf) / two, L1, Linf))
    return PantsGraph(
        1,
        (
            (L0 + Linf - L1) / two,
            (L0 + L1 - Linf) / two,
            (L1 + Linf - L0) / two,
        ),
    )


def _num(v):
    if isinstance(v, (int, Fraction)):
        return Fraction(v)
    return float(v)


@dataclass
class QuadDiff:
    """Rational quadratic differential (numerator/denominator) dz^2.

    ``numerator`` and ``denominator`` are univariate polynomials in z stored
    as BivariatePoly in x only; ``params`` names the free coefficients that
    span the fibre of the family.  The one-holed torus family is returned
    separately by :func:`quad_diff` since it is built from the Weierstrass
    function, not a rational function.
    """

    numerator: BivariatePoly
    denominator: BivariatePoly
    params: tuple

    def eval(self, z):
        num = self.numerator.eval(z, 0 * z + 1)
        den = self.denominator.eval(z, 0 * z + 1)
        return num / den

    def leading_at(self, p):
        """Coefficient of 1/(z - p)^2, exact for rational data.

        The denominator must vanish to exactly second order at p; the
        string "inf" selects the double pole at infinity, read off from
        the degree-2 drop between denominator and numerator.
        """
        if p == "inf":
            dn, dd = self.numerator.degree_x(), self.denominator.degree_x()
            if dd - dn != 2:
                raise ValueError("no double pole at infinity")
            return (
                self.numerator.coeffs[(dn, 0)] / self.denominator.coeffs[(dd, 0)]
            )
        num = self.numerator.eval(p, Fraction(1))
        den = self.denominator
        # divide out (z - p)^2
        shift = _shift_poly(den, p)
        if shift.get(0, Fraction(0)) != 0 or shift.get(1, Fraction(0)) != 0:
            raise ValueError("denominator does not vanish doubly at %s" % (p,))
        return num / shift[2] if shift.get(2) else _raise_zero()


def _raise_zero():
    raise ValueError("pole order exceeds two")


def _shift_poly(poly, p):
    """Coefficients of poly(z + p) by exponent, exact."""
    from math import comb

    out = {}
    for (i, _), c in poly.coeffs.items():
        for k in range(i + 1):
            out[k] = out.get(k, Fraction(0)) + c * comb(i, k) * _pw(p, i - k)
    return {k: v for k, v in out.items() if v != 0}


def _pw(p, n):
    return Fraction(p) ** n if isinstance(p, (int, Fraction)) else p**n


def dim_quad_space(g, n):
    """Dimension 3g - 3 + n of the space of Strebel differentials."""
    if n < 1 or g < 0 or 2 * g - 2 + n <= 0:
        raise ValueError("(%d, %d) is not a stable pair" % (g, n))
    return 3 * g - 3 + n


def quad_diff(g, n, lengths, points=None, params=None):
    """Strebel-type quadratic differential with prescribed pole data.

    Sphere with three marked points (0, 1, infinity): the unique
    differential with double-pole coefficients -L0^2, -L1^2, -Linf^2.
    Sphere with n >= 4 finite marked points: the family with free
    coefficients c_0 .. c_(n-4).  One-holed torus: the family
    (-L0^2 p(z; tau) + c) dz^2; returns a callable in that case, with
    ``points = tau`` and ``params = (c,)``.
    """
    if (g, n) == (0, 3):
        L0, L1, Linf = (Fraction(v) for v in lengths)
        x = BivariatePoly.monomial(1, 0)
        num = (
            BivariatePoly.constant(-(Linf**2)) * x * x
            + BivariatePoly.constant(Linf**2 + L0**2 - L1**2) * x
            + BivariatePoly.constant(-(L0**2))
        )
        den = (x * x) * ((x - 1) * (x - 1))
        return QuadDiff(num, den, ())
    if g == 0 and n >= 4:
        if points is None or len(points) != n:
            raise ValueError("need the %d finite marked points" % n)
        ps = [Fraction(p) for p in points]
        if len(set(ps)) != n:
            raise ValueError("marked points must be distinct")
        Ls = [Fraction(v) for v in lengths]
        cs = [Fraction(v) for v in (params or [0] * (n - 3))]
        if len(cs) != n - 3:
            raise ValueError("expected %d free parameters" % (n - 3))
        x = BivariatePoly.monomial(1, 0)
        prod_all = BivariatePoly.constant(1)
        for p in ps:
            prod_all = prod_all * (x - p)
        num = BivariatePoly.zero()
        for i, p in enumerate(ps):
            rest = BivariatePoly.constant(1)
            scale = Fraction(1)
            for j, q in enumerate(ps):
                if j != i:
                    rest = rest * (x - q)
                    scale *= p - q
            num = num + BivariatePoly.constant(-(Ls[i] ** 2) * scale) * rest
        poly_part = BivariatePoly.zero()
        for j, c in enumerate(cs):
            poly_part = poly_part + BivariatePoly.monomial(j, 0, -c)
        num = num + poly_part * prod_all
        den = prod_all * prod_all
        if num.degree_x() > 2 * n - 4:
            raise AssertionError("numerator degree exceeds 2n - 4")
        return QuadDiff(num, den, tuple(cs))
    if (g, n) == (1, 1):
        tau = points
        if tau is None:
            raise ValueError("need the modulus tau")
        (L0,) = [float(v) for v in lengths]
        c = float(params[0]) if params else 0.0

        from .torus import weierstrass_p

        def phi(z):
            return -(L0**2) * weierstrass_p(z, tau) + c

        return phi
    raise NotImplementedError("no closed family implemented for (%d, %d)" % (g, n))
