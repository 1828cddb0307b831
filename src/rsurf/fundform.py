"""Second kind bidifferential kernels on plane algebraic curves.

Two constructions: the closed-form kernel on y^2 = Q(x) curves, and the
rational kernel on a general plane curve P(x, y) = 0 built from an exact
four-variable correction polynomial determined by the support of P.
"""

from fractions import Fraction
from math import isqrt

from .algebra import BivariatePoly, horner
from .newton import DegeneratePolygonError, _hull

ON_CURVE_RTOL = 1e-10


class HyperellipticSplit:
    """Exact decomposition Q = U^2 + V with deg V < deg U = (deg Q)/2."""

    def __init__(self, q_coeffs, u_coeffs, v_coeffs):
        self.q_coeffs = tuple(q_coeffs)
        self.u_coeffs = tuple(u_coeffs)
        self.v_coeffs = tuple(v_coeffs)

    def __repr__(self):
        return "HyperellipticSplit(U=%r, V=%r)" % (self.u_coeffs, self.v_coeffs)


def _sqrt_fraction(a):
    if a < 0:
        raise ValueError("leading coefficient is negative")
    num, den = a.numerator, a.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        raise ValueError("leading coefficient is not an exact square")
    return Fraction(rn, rd)


def hyperelliptic_split(q_coeffs):
    """Split Q = U^2 + V, with U the series square root of Q truncated
    to its polynomial part at infinity.

    ``q_coeffs`` lists the coefficients of Q in increasing degree.  Exact
    rational arithmetic is used when every coefficient is rational;
    otherwise the principal complex square root fixes the leading term.
    """
    coeffs = list(q_coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    deg = len(coeffs) - 1
    if deg < 2 or deg % 2 != 0:
        raise ValueError("Q must have even degree >= 2")
    exact = all(isinstance(c, (int, Fraction)) for c in coeffs)
    if exact:
        coeffs = [Fraction(c) for c in coeffs]
    m = deg // 2
    # match coefficients of x^(2m), x^(2m-1), ..., x^m; the remainder V
    # then has degree < m
    u = [None] * (m + 1)  # u[t] multiplies x^(m - t)
    if exact:
        u[0] = _sqrt_fraction(coeffs[deg])
    else:
        u[0] = complex(coeffs[deg]) ** 0.5
    for t in range(1, m + 1):
        s = sum(u[a] * u[t - a] for a in range(1, t))
        u[t] = (coeffs[deg - t] - s) / (2 * u[0])
    u_coeffs = list(reversed(u))
    # V = Q - U^2
    v = list(coeffs)
    v += [0] * (2 * m + 1 - len(v))
    for a in range(m + 1):
        for b in range(m + 1):
            v[a + b] -= u_coeffs[a] * u_coeffs[b]
    while len(v) > 1 and v[-1] == 0:
        v.pop()
    if len(v) - 1 >= m and any(v[k] != 0 for k in range(m, len(v))):
        raise AssertionError("remainder degree too large")
    return HyperellipticSplit(coeffs, u_coeffs, v)


def _check_on_curve_hyp(split, x, y):
    q = horner(split.q_coeffs, x)
    scale = max(abs(y) ** 2, abs(q), 1.0)
    if abs(y * y - q) > ON_CURVE_RTOL * scale:
        raise ValueError("point is not on y^2 = Q(x)")


def hyperelliptic_B(split, p, q):
    """Kernel value [y y' + U U' + (V + V')/2] / [2 y y' (x - x')^2].

    Symmetric in p and q; double pole on the diagonal only, with no pole
    at the opposite-sheet point (x, -y).
    """
    x, y = p
    xp, yp = q
    _check_on_curve_hyp(split, x, y)
    _check_on_curve_hyp(split, xp, yp)
    if x == xp and y == yp:
        raise ZeroDivisionError("kernel has a double pole on the diagonal")
    if x == xp:
        raise ZeroDivisionError("coincident x projections")
    u = horner(split.u_coeffs, x)
    up = horner(split.u_coeffs, xp)
    v = horner(split.v_coeffs, x)
    vp = horner(split.v_coeffs, xp)
    num = y * yp + u * up + 0.5 * (v + vp)
    return num / (2.0 * y * yp * (x - xp) ** 2)


class CorrectionPoly:
    """Exact polynomial in (x, y, x', y') stored as exponent -> coefficient."""

    def __init__(self, terms):
        self.terms = {k: Fraction(c) for k, c in terms.items() if c != 0}

    def eval(self, x, y, xp, yp):
        acc = 0j
        for (a, b, c, d), coef in self.terms.items():
            acc += float(coef) * x ** a * y ** b * xp ** c * yp ** d
        return acc

    def is_swap_symmetric(self):
        for (a, b, c, d), coef in self.terms.items():
            if self.terms.get((c, d, a, b), Fraction(0)) != coef:
                return False
        return True

    def to_terms(self):
        return sorted(
            ((a, b, c, d, coef) for (a, b, c, d), coef in self.terms.items()),
            key=lambda t: t[:4],
        )

    def __eq__(self, other):
        return isinstance(other, CorrectionPoly) and self.terms == other.terms


def _strict_interior_test(support):
    """Membership test for the strict interior of the hull of ``support``.

    A one-dimensional support has empty interior rather than being an
    error here: the correction construction is still meaningful.
    """
    pts = sorted({(int(i), int(j)) for i, j in support})
    hull = _hull(pts)
    if len(hull) < 3:
        return lambda u, v: False
    edges = []
    n = len(hull)
    for k in range(n):
        (x1, y1), (x2, y2) = hull[k], hull[(k + 1) % n]
        # outward normal of a counterclockwise edge
        edges.append((y2 - y1, x1 - x2, (y2 - y1) * x1 + (x1 - x2) * y1))

    def inside(u, v):
        return all(al * u + be * v < m for al, be, m in edges)

    return inside


def _on_segment(u, v, a, b):
    (i, j), (ip, jp) = a, b
    if (ip - i) * (v - j) != (jp - j) * (u - i):
        return False
    return min(i, ip) <= u <= max(i, ip) and min(j, jp) <= v <= max(j, jp)


def _triangle_points(p1, p2, p3):
    """Lattice points of the closed triangle (degenerate cases included)."""
    xs = (p1[0], p2[0], p3[0])
    ys = (p1[1], p2[1], p3[1])

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    area = cross(p1, p2, p3)
    out = []
    for u in range(min(xs), max(xs) + 1):
        for v in range(min(ys), max(ys) + 1):
            if area == 0:
                if (
                    _on_segment(u, v, p1, p2)
                    or _on_segment(u, v, p2, p3)
                    or _on_segment(u, v, p1, p3)
                ):
                    out.append((u, v))
                continue
            s1 = cross(p1, p2, (u, v))
            s2 = cross(p2, p3, (u, v))
            s3 = cross(p3, p1, (u, v))
            if area < 0:
                s1, s2, s3 = -s1, -s2, -s3
            if s1 >= 0 and s2 >= 0 and s3 >= 0:
                out.append((u, v))
    return out


def correction_polynomial(poly):
    """Correction polynomial of a plane curve from its coefficient support.

    For every ordered pair of support points (i, j), (i', j') the lattice
    points (u, v) of the triangle with vertices (i, j), (i', j'), (i, j')
    contribute with weight |u - i| |v - j'|, split into three cases:
    points outside the interior and off the chord carry the plain
    monomial, points whose mirror (i+i'-u, j+j'-v) lies inside carry the
    swapped monomial, and chord points carry half weight.
    """
    if isinstance(poly, dict):
        coeffs = {k: Fraction(c) for k, c in poly.items() if c != 0}
    else:
        coeffs = {k: c for k, c in poly.coeffs.items() if c != 0}
    if any(i < 0 or j < 0 for i, j in coeffs):
        raise ValueError("negative exponents have no Newton polygon")
    if not coeffs:
        raise DegeneratePolygonError("empty support")
    inside = _strict_interior_test(coeffs.keys())
    terms = {}

    def add(a, b, c, d, w):
        if min(a, b, c, d) < 0:
            return
        key = (a, b, c, d)
        terms[key] = terms.get(key, Fraction(0)) + w

    support = sorted(coeffs)
    for (i, j) in support:
        pij = coeffs[(i, j)]
        for (ip, jp) in support:
            w0 = pij * coeffs[(ip, jp)]
            for (u, v) in _triangle_points((i, j), (ip, jp), (i, jp)):
                weight = w0 * abs(u - i) * abs(v - jp)
                if weight == 0:
                    continue
                um, vm = i + ip - u, j + jp - v
                on_chord = _on_segment(u, v, (i, j), (ip, jp))
                if on_chord:
                    add(u - 1, v - 1, um - 1, vm - 1, weight / 2)
                    continue
                if not inside(u, v):
                    add(u - 1, v - 1, um - 1, vm - 1, weight)
                if not inside(u, v) and inside(um, vm):
                    add(um - 1, vm - 1, u - 1, v - 1, weight)
    return CorrectionPoly(terms)


def general_B0(poly, q4, p, q):
    """Kernel -[P(x,y') P(x',y) / ((x-x')^2 (y-y')^2) - Q4] / (P_y P_y').

    ``q4`` is the matching :class:`CorrectionPoly`; p and q must lie on
    the curve and differ in at least one coordinate.
    """
    x, y = p
    xp, yp = q
    for (xx, yy) in (p, q):
        val = poly.eval(xx, yy)
        scale = max(
            (abs(float(c)) * abs(xx) ** i * abs(yy) ** j for (i, j), c in poly.coeffs.items()),
            default=1.0,
        )
        if abs(val) > ON_CURVE_RTOL * max(scale, 1.0):
            raise ValueError("point is not on the curve")
    if x == xp and y == yp:
        raise ZeroDivisionError("kernel has a double pole on the diagonal")
    py = poly.diff_y()
    d1 = py.eval(x, y)
    d2 = py.eval(xp, yp)
    if d1 == 0 or d2 == 0:
        raise ArithmeticError("singular point: P_y vanishes")
    cross = poly.eval(x, yp) * poly.eval(xp, y)
    return -(cross / ((x - xp) ** 2 * (y - yp) ** 2) - q4.eval(x, y, xp, yp)) / (d1 * d2)
