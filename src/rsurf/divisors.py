"""Divisor arithmetic and Riemann-Roch dimension calculators.

Divisors are finite weighted point sets.  Dimension formulas are closed
form in genus 0 and 1; the genus-1 degree-zero case needs the Abel image
of the divisor, tested against the period lattice with an explicit
inconclusive band so quadrature noise cannot silently flip the answer.
"""

from fractions import Fraction

import numpy as np

INFINITY = "inf"

LATTICE_TOL = 1e-8
LATTICE_BAND = 1e-6
CANONICAL_TOL = 1e-7


class LatticeTestInconclusiveError(ArithmeticError):
    """Distance to the lattice falls inside the ambiguous band."""


class Divisor:
    """Weighted formal sum of points with distinct support."""

    def __init__(self, entries=()):
        seen = {}
        for point, weight in entries:
            w = int(weight)
            if w == 0:
                continue
            if point in seen:
                raise ValueError("repeated point in divisor: %r" % (point,))
            seen[point] = w
        self.entries = tuple(seen.items())

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def __eq__(self, other):
        return isinstance(other, Divisor) and sorted(
            self.entries, key=repr
        ) == sorted(other.entries, key=repr)

    def __repr__(self):
        return "Divisor(%r)" % (list(self.entries),)

    def is_positive(self):
        return all(w > 0 for _, w in self.entries)


def degree(div):
    return sum(w for _, w in div)


class RRResult:
    """Dimension pair (r(-D), i(D)); the defining identity is asserted."""

    def __init__(self, r_minus_d, i_d, genus, deg):
        if r_minus_d < 0 or i_d < 0:
            raise ValueError("dimensions must be non-negative")
        if r_minus_d != deg + 1 - genus + i_d:
            raise AssertionError("dimension identity violated")
        self.r_minus_D = r_minus_d
        self.i_D = i_d
        self.genus = genus
        self.deg = deg

    def __repr__(self):
        return "RRResult(r=%d, i=%d, g=%d)" % (self.r_minus_D, self.i_D, self.genus)


def rr_genus0(div):
    """r(-D) = max(0, 1 + deg D) and i(D) = max(0, -1 - deg D)."""
    d = degree(div)
    return RRResult(max(0, 1 + d), max(0, -1 - d), 0, d)


def _lattice_distance(u, tau):
    """Distance from u to Z^g + tau Z^g; a scalar u and tau mean g = 1.  The
    least over the 3^g cells v - tau k, k in {-1, 0, 1}^g, around the reduced
    representative v, each to its nearest integer translate."""
    from .theta import reduce_lattice

    u = np.atleast_1d(np.asarray(u, dtype=complex))
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    shifts = np.indices((3,) * len(u)).reshape(len(u), -1).T - 1
    w = reduce_lattice(u, tau) - shifts @ tau.T
    return np.min(np.max(np.abs(w - np.round(w.real)), axis=1))


def _on_lattice(u, tau, tol, band):
    d = _lattice_distance(u, tau)
    if d <= tol:
        return True
    if d < band:
        raise LatticeTestInconclusiveError(
            "lattice distance %.3e falls in the ambiguous band" % d
        )
    return False


def _abel_image(div, abel_values):
    acc = None
    for point, weight in div:
        u = abel_values[point]
        term = weight * (np.asarray(u, dtype=complex) if np.ndim(u) else complex(u))
        acc = term if acc is None else acc + term
    return 0j if acc is None else acc


def rr_genus1(div, tau, abel_values):
    """Genus-1 dimensions; the degree-zero case tests u(D) on the lattice."""
    d = degree(div)
    if d < 0:
        r = 0
    elif d > 0:
        r = d
    else:
        u = _abel_image(div, abel_values)
        r = 1 if _on_lattice(u, tau, LATTICE_TOL, LATTICE_BAND) else 0
    return RRResult(r, r - d, 1, d)


def is_principal(div, tau, abel_values):
    """A divisor is principal iff deg D = 0 and u(D) lies on the lattice."""
    if degree(div) != 0:
        return False
    u = _abel_image(div, abel_values)
    return _on_lattice(u, tau, LATTICE_TOL, LATTICE_BAND)


def canonical_check(form_divisor, g, tau, abel_values, k_vector):
    """True iff deg D = 2g - 2 and u(D) is congruent to 2K mod the lattice."""
    if degree(form_divisor) != 2 * g - 2:
        return False
    u = _abel_image(form_divisor, abel_values)
    k = np.asarray(k_vector, dtype=complex) if np.ndim(k_vector) else complex(k_vector)
    return _on_lattice(u - 2 * k, tau, CANONICAL_TOL, CANONICAL_TOL * 100)


def riemann_inequality_check(div, g, tau=None, abel_values=None):
    """Check r(-D) >= deg D - g + 1 for a positive divisor, g in {0, 1}."""
    if not div.is_positive():
        raise ValueError("divisor must be positive")
    if g == 0:
        r = rr_genus0(div).r_minus_D
    elif g == 1:
        r = rr_genus1(div, tau, abel_values).r_minus_D
    else:
        raise ValueError("unsupported genus")
    return r >= degree(div) - g + 1


def _rank_fraction(rows, ncols):
    """Rank of a matrix with entries (re, im) pairs of Fractions."""
    mat = [list(row) for row in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        piv = None
        for r in range(rank, nrows):
            if mat[r][col] != (Fraction(0), Fraction(0)):
                piv = r
                break
        if piv is None:
            col += 1
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        pre, pim = mat[rank][col]
        norm = pre * pre + pim * pim
        for r in range(nrows):
            if r == rank:
                continue
            are, aim = mat[r][col]
            if are == 0 and aim == 0:
                continue
            # multiplier a / p in complex rational arithmetic
            fre = (are * pre + aim * pim) / norm
            fim = (aim * pre - are * pim) / norm
            for c in range(col, ncols):
                bre, bim = mat[rank][c]
                cre, cim = mat[r][c]
                mat[r][c] = (cre - (fre * bre - fim * bim), cim - (fre * bim + fim * bre))
        rank += 1
        col += 1
    return rank


def dim_l_genus0_bruteforce(div):
    """dim L(-D) on the sphere by exact linear algebra.

    Candidate functions are N(x) / prod (x - p)^{max(w_p, 0)} with the
    numerator degree capped by the behavior at infinity; vanishing
    conditions at negative-weight points are imposed as exact linear
    constraints on the numerator coefficients.  Points must be (pairs of)
    rationals, with :data:`INFINITY` for the point at infinity.
    """
    finite = []
    w_inf = 0
    for point, weight in div:
        if point == INFINITY:
            w_inf = weight
        else:
            if isinstance(point, tuple):
                p = (Fraction(point[0]), Fraction(point[1]))
            else:
                p = (Fraction(point), Fraction(0))
            finite.append((p, weight))
    den_deg = sum(w for _, w in finite if w > 0)
    max_num_deg = den_deg + w_inf
    if max_num_deg < 0:
        return 0
    ncoeff = max_num_deg + 1
    rows = []
    for (pre, pim), weight in finite:
        if weight >= 0:
            continue
        # d-th derivative of N at p must vanish for d < -weight
        for d in range(-weight):
            row = []
            for k in range(ncoeff):
                if k < d:
                    row.append((Fraction(0), Fraction(0)))
                    continue
                mult = Fraction(1)
                for t in range(d):
                    mult *= k - t
                # mult * p^(k - d) as a complex rational
                zre, zim = Fraction(1), Fraction(0)
                for _ in range(k - d):
                    zre, zim = zre * pre - zim * pim, zre * pim + zim * pre
                row.append((mult * zre, mult * zim))
            rows.append(row)
    return ncoeff - _rank_fraction(rows, ncoeff)
