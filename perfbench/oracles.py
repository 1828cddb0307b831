"""Reference computations made apart from rsurf.

Nothing here imports rsurf.  The analytic references are a brute-force
lattice sum for Riemann theta (numpy), mpmath's Jacobi theta functions and
complete elliptic integrals at genus one, and an SL(2, Z) reduction.  The
exact references are the closed-form small volumes, the string and dilaton
equations, a lattice-point count for the Newton-polygon genus and an exact
Riemann-Roch count on the sphere.  sympy is imported lazily, only by
:func:`resultant_sympy`.
"""

from fractions import Fraction
from itertools import product
from math import comb

import mpmath
import numpy as np

# -- Riemann theta by a brute-force lattice sum --------------------------------


def theta_brute(u, tau, order=0, digits=22):
    """Theta(u | tau) summed over a box wide enough for ``digits`` digits.

    Returns ``(value, grad, hessian, scale)``; ``grad`` and ``hessian`` are
    None below the requested ``order``, and ``scale`` is the sum of the
    absolute values of the terms, the size rounding errors are measured
    against.  No lattice translation is used: the box is centred on the
    Gaussian peak instead, so this shares no step with rsurf's recentring.
    """
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    g = u.shape[0]
    y = tau.imag
    centre = -np.linalg.solve(y, u.imag)
    # (n - centre)^T Y (n - centre) <= r2 covers every term above 10^-digits
    # of the peak; the box [centre - w, centre + w] contains that ellipsoid
    r2 = digits * np.log(10.0) / np.pi + 2.0
    width = np.sqrt(r2 * np.diag(np.linalg.inv(y)))
    axes = [
        np.arange(int(np.floor(c - w)) - 1, int(np.ceil(c + w)) + 2)
        for c, w in zip(centre, width)
    ]
    n = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=-1)
    n = n.astype(float)
    expo = 1j * np.pi * np.einsum("ki,ij,kj->k", n, tau, n) + 2j * np.pi * (n @ u)
    terms = np.exp(expo)
    value = complex(np.sum(terms))
    scale = float(np.sum(np.abs(terms)))
    grad = hess = None
    if order >= 1:
        grad = (2j * np.pi) * (n.T @ terms)
    if order >= 2:
        hess = (2j * np.pi) ** 2 * np.einsum("ki,kj,k->ij", n, n, terms)
    return value, grad, hess, scale


def even_characteristics(g):
    """Even half characteristics (a, b) as 0/1 bit tuples, 2^(g-1)(2^g+1)."""
    return [
        (a, b)
        for a in product((0, 1), repeat=g)
        for b in product((0, 1), repeat=g)
        if sum(x * y for x, y in zip(a, b)) % 2 == 0
    ]


def char_point(char, tau):
    """b/2 + tau a/2, where theta vanishes iff theta[a, b](0) does."""
    a, b = char
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    return 0.5 * np.asarray(b, dtype=float) + tau @ (0.5 * np.asarray(a, dtype=float))


def vanishing_even_count(g):
    """Even theta constants that vanish at a hyperelliptic tau of genus g."""
    return 2 ** (g - 1) * (2 ** g + 1) - comb(2 * g + 1, g)


def is_symmetric_siegel(tau, rtol):
    """Symmetric to ``rtol`` and with positive definite imaginary part."""
    tau = np.asarray(tau, dtype=complex)
    scale = max(1.0, float(np.max(np.abs(tau))))
    if float(np.max(np.abs(tau - tau.T))) > rtol * scale:
        return False
    sym = (tau.imag + tau.imag.T) / 2.0
    return float(np.linalg.eigvalsh(sym)[0]) > 0.0


def bilinear_residual(ma, mb):
    """max |M_A M_B^T - M_B M_A^T|, relative to |M_A| |M_B|."""
    ma = np.asarray(ma, dtype=complex)
    mb = np.asarray(mb, dtype=complex)
    skew = ma @ mb.T - mb @ ma.T
    return float(np.max(np.abs(skew))) / (
        float(np.max(np.abs(ma))) * float(np.max(np.abs(mb)))
    )


# -- genus one with mpmath -----------------------------------------------------

mpmath.mp.dps = 30


def _q(tau):
    return mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau))


def theta_g1(v, tau, deriv=0):
    """d^k/dv^k Theta(v | tau) at genus one, from jtheta(3)."""
    z = mpmath.pi * mpmath.mpc(v)
    return complex(mpmath.pi ** deriv * mpmath.jtheta(3, z, _q(tau), deriv))


def bergman_g1(u, tau):
    """-pi^2 (log theta_1)''(pi u): the theta Bergman kernel at genus one.

    Theta(u + (1 + tau)/2) equals theta_1(pi u) up to a factor
    exp(linear in u), so both have the same second log derivative.
    """
    z = mpmath.pi * mpmath.mpc(u)
    q = _q(tau)
    t0 = mpmath.jtheta(1, z, q)
    t1 = mpmath.jtheta(1, z, q, 1)
    t2 = mpmath.jtheta(1, z, q, 2)
    return complex(-(mpmath.pi ** 2) * (t2 * t0 - t1 * t1) / (t0 * t0))


def szego_g1(z, w, zeta, tau):
    """Theta(z - w + e) / (E(z, w) Theta(e)), e = zeta + (1 + tau)/2."""
    c = (1.0 + tau) / 2.0
    e = zeta + c
    prime = theta_g1(z - w + c, tau) / theta_g1(c, tau, 1)
    return theta_g1(z - w + e, tau) / (prime * theta_g1(e, tau))


def third_kind_g1(z, q1, q2, tau):
    """d log Theta(z - q1 + c) - d log Theta(z - q2 + c), c = (1 + tau)/2."""
    c = (1.0 + tau) / 2.0
    a = z - q1 + c
    b = z - q2 + c
    return theta_g1(a, tau, 1) / theta_g1(a, tau) - theta_g1(b, tau, 1) / theta_g1(b, tau)


def weierstrass_p(z, tau):
    """p(z) on C / (Z + tau Z) as a quotient of Jacobi theta functions."""
    q = _q(tau)
    pz = mpmath.pi * mpmath.mpc(z)
    t2 = mpmath.jtheta(2, 0, q)
    t3 = mpmath.jtheta(3, 0, q)
    ratio = mpmath.pi * t2 * t3 * mpmath.jtheta(4, pz, q) / mpmath.jtheta(1, pz, q)
    return complex(ratio ** 2 - mpmath.pi ** 2 / 3 * (t2 ** 4 + t3 ** 4))


def reduce_sl2z(tau):
    """Representative of tau in the closed fundamental domain of SL(2, Z)."""
    tau = complex(tau)
    for _ in range(200):
        tau -= round(tau.real)
        if abs(tau) >= 1.0:
            return tau
        tau = -1.0 / tau
    raise ArithmeticError("SL(2, Z) reduction did not terminate")


def sl2z_distance(t1, t2):
    """Distance between the reduced forms, allowing for boundary ties."""
    a = reduce_sl2z(t1)
    b = reduce_sl2z(t2)
    images = [b, b + 1, b - 1, -1 / b, -1 / b + 1, -1 / b - 1]
    return min(abs(a - img) for img in images)


def tau_from_quartic(coeffs):
    """Modulus of y^2 = Q(x), Q a quartic, from its branch points.

    The cross-ratio lambda of the roots gives tau = i K(1 - lambda) / K(lambda)
    on the Legendre curve y^2 = x (x - 1) (x - lambda).  Of the six cross
    ratios, the first whose tau reproduces it through
    lambda(tau) = (theta_2 / theta_3)^4 is used.
    """
    roots = mpmath.polyroots(list(reversed(coeffs)), maxsteps=200, extraprec=60)
    e1, e2, e3, e4 = roots
    lam = (e3 - e1) * (e4 - e2) / ((e3 - e2) * (e4 - e1))
    for cand in (lam, 1 - lam, 1 / lam, 1 / (1 - lam), lam / (lam - 1), (lam - 1) / lam):
        if abs(mpmath.im(cand)) < 1e-25 and not 0 < mpmath.re(cand) < 1:
            continue
        tau = 1j * mpmath.ellipk(1 - cand) / mpmath.ellipk(cand)
        if mpmath.im(tau) <= 0:
            continue
        q = mpmath.exp(1j * mpmath.pi * tau)
        back = (mpmath.jtheta(2, 0, q) / mpmath.jtheta(3, 0, q)) ** 4
        if abs(back - cand) < 1e-20 * max(1, abs(cand)):
            return complex(tau)
    raise ArithmeticError("no cross ratio reproduced its modulus")


# -- exact references ----------------------------------------------------------


def _pi(table):
    return {k: Fraction(v) for k, v in table.items()}


def closed_form_volume(g, n):
    """V(0,4), V(1,1) and V(0,5) as {half exponents: {pi^2 power: coeff}}."""
    if (g, n) == (1, 1):
        return {(0,): _pi({1: Fraction(1, 12)}), (1,): _pi({0: Fraction(1, 48)})}
    if (g, n) == (0, 4):
        out = {(0, 0, 0, 0): _pi({1: 2})}
        for i in range(4):
            out[tuple(int(j == i) for j in range(4))] = _pi({0: Fraction(1, 2)})
        return out
    if (g, n) == (0, 5):
        # 1/8 sum L^4 + 1/2 sum_{i<j} L_i^2 L_j^2 + 3 pi^2 sum L^2 + 10 pi^4
        out = {(0,) * 5: _pi({2: 10})}
        for i in range(5):
            out[tuple(int(j == i) for j in range(5))] = _pi({1: 3})
            out[tuple(2 * int(j == i) for j in range(5))] = _pi({0: Fraction(1, 8)})
            for k in range(i + 1, 5):
                out[tuple(int(j in (i, k)) for j in range(5))] = _pi({0: Fraction(1, 2)})
        return out
    return None


def _add(acc, key, k, c):
    inner = acc.setdefault(key, {})
    inner[k] = inner.get(k, Fraction(0)) + c


def _clean(poly):
    out = {}
    for key, inner in poly.items():
        inner = {k: c for k, c in inner.items() if c != 0}
        if inner:
            out[key] = inner
    return out


def string_equation_holds(big, small, n):
    """V_{g,n+1}(L, 2 pi i) = sum_k int_0^{L_k} L_k V_{g,n}(L) dL_k.

    ``big`` and ``small`` map half exponents (L_i^(2 m_i)) to
    {pi^2 power: coefficient}.  At L = 2 pi i, L^(2m) = (-4)^m pi^(2m).
    """
    lhs = {}
    for ms, inner in big.items():
        m = ms[n]
        for k, c in inner.items():
            _add(lhs, ms[:n], k + m, c * (-4) ** m)
    rhs = {}
    for ms, inner in small.items():
        for pos in range(n):
            raised = list(ms)
            raised[pos] += 1
            for k, c in inner.items():
                _add(rhs, tuple(raised), k, c / (2 * ms[pos] + 2))
    return _clean(lhs) == _clean(rhs)


def dilaton_equation_holds(big, small, g, n):
    """dV_{g,n+1}/dL_{n+1}(L, 2 pi i) = 2 pi i (2g - 2 + n) V_{g,n}(L).

    Multiplied through by 2 pi i: sum 2m (-4)^m pi^(2m) c = -4 pi^2 (2g-2+n) V.
    """
    lhs = {}
    for ms, inner in big.items():
        m = ms[n]
        if m == 0:
            continue
        for k, c in inner.items():
            _add(lhs, ms[:n], k + m, c * 2 * m * (-4) ** m)
    rhs = {}
    for ms, inner in small.items():
        for k, c in inner.items():
            _add(rhs, ms, k + 1, -4 * (2 * g - 2 + n) * c)
    return _clean(lhs) == _clean(rhs)


def volume_structure_ok(vol, g, n):
    """Symmetric, homogeneous of degree 3g-3+n and with positive coefficients."""
    dim = 3 * g - 3 + n
    for ms, inner in vol.items():
        if len(ms) != n or not inner:
            return False
        for k, c in inner.items():
            if sum(ms) + k != dim or c <= 0:
                return False
        for i in range(n - 1):
            swapped = list(ms)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if vol.get(tuple(swapped)) != inner:
                return False
    return True


def resultant_sympy(p, q):
    """Res_y(p, q) by sympy; inputs and output are {(i, j): Fraction}."""
    import sympy

    x, y = sympy.symbols("x y")

    def expr(poly):
        return sum(
            sympy.Rational(c.numerator, c.denominator) * x ** i * y ** j
            for (i, j), c in poly.items()
        )

    res = sympy.Poly(sympy.resultant(expr(p), expr(q), y), x, y)
    return {
        (int(i), int(j)): Fraction(int(c.p), int(c.q))
        for (i, j), c in res.terms()
        if c != 0
    }


def _hull(points):
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def interior_point_count(support):
    """Lattice points strictly inside the convex hull, by enumeration."""
    hull = _hull(support)
    if len(hull) < 3:
        return 0
    xs = [p[0] for p in hull]
    ys = [p[1] for p in hull]
    count = 0
    for u in range(min(xs), max(xs) + 1):
        for v in range(min(ys), max(ys) + 1):
            if all(
                (b[0] - a[0]) * (v - a[1]) - (b[1] - a[1]) * (u - a[0]) > 0
                for a, b in zip(hull, hull[1:] + hull[:1])
            ):
                count += 1
    return count


def _rank(rows):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col] != 0:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def l_dimension_p1(div):
    """dim {f : (f) + D >= 0} on the sphere, D = [(point, weight)].

    A point is a Fraction or "inf".  f = N(x) / prod (x - p)^(w_p) over the
    positive finite weights; N has degree at most that denominator degree
    plus w_inf, and vanishes to order -w_p at each negative finite point.
    """
    finite = [(p, w) for p, w in div if p != "inf"]
    w_inf = sum(w for p, w in div if p == "inf")
    ncoeff = sum(w for _, w in finite if w > 0) + w_inf + 1
    if ncoeff <= 0:
        return 0
    rows = []
    for p, w in finite:
        for d in range(-w):
            row = []
            for k in range(ncoeff):
                fall = 1
                for t in range(d):
                    fall *= k - t
                row.append(Fraction(fall) * Fraction(p) ** (k - d) if k >= d else Fraction(0))
            rows.append(row)
    return ncoeff - _rank(rows)


def rr_genus0(div):
    """(l(D), l(K - D)) on the sphere, with K = -2 inf."""
    dual = [(p, -w) for p, w in div if p != "inf"]
    dual.append(("inf", -2 - sum(w for p, w in div if p == "inf")))
    return l_dimension_p1(div), l_dimension_p1(dual)
