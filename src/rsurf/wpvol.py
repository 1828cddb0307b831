"""Weil-Petersson volume polynomials by the residue form of the recursion.

Everything here is exact: coefficients live in Q[pi^2] (class
:class:`PiPoly`), the free energies W_{g,n} are Laurent polynomials with
terms prod_i z_i^(-2 k_i), k_i >= 1 (class :class:`WPLaurent`), and the
volumes come out as polynomials in the squared boundary lengths
(class :class:`VolumePoly`) through the inverse Laplace transform
z^(-2k) -> L^(2k-2) / (2k-1)!.

The recursion computes W_{g,n+1} as a residue at z = 0 of

    dz/(z_{n+1}^2 - z^2) * (pi/sin(2 pi z)) *
        [ W_{g-1,n+2}(z, -z, z_I)
          + sum' W_{g1}(z, I_1) W_{g2}(-z, I_2) ],

the primed sum excluding empty (0, 1)-factors and including the unstable
(0, 2) pieces W_{0,2}(z, -z) = 1/(4 z^2) and W_{0,2}(z, w) = 1/(z - w)^2.
Only nonpositive even powers of z in the bracket reach the z^(-1)
coefficient, so the residue is evaluated exactly with no series truncation;
the odd parts of the two orderings of a W_{0,2} pairing cancel because every
stable W is even in each argument.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial

__all__ = [
    "PiPoly",
    "WPLaurent",
    "VolumePoly",
    "kernel_series",
    "mirzakhani_step",
    "inverse_laplace",
    "w_laurent",
    "volume",
    "dim_complexity",
]

_MAX_COMPLEXITY = 12


class PiPoly:
    """Polynomial in pi^2 with rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if isinstance(coeffs, (int, Fraction)):
            coeffs = {0: coeffs}
        if coeffs:
            for k, c in coeffs.items():
                c = Fraction(c)
                if c != 0:
                    clean[int(k)] = c
        self.coeffs = clean

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPoly(other)
        if not isinstance(other, PiPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPoly(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return PiPoly(out)

    __radd__ = __add__

    def __neg__(self):
        return PiPoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = PiPoly(other)
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = Fraction(other)
            return PiPoly({k: c * c0 for k, c in self.coeffs.items()})
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                out[k1 + k2] = out.get(k1 + k2, Fraction(0)) + c1 * c2
        return PiPoly(out)

    __rmul__ = __mul__

    def value(self):
        """Float value with pi^2 substituted."""
        from math import pi

        return sum(float(c) * pi ** (2 * k) for k, c in self.coeffs.items())

    def __str__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for k in sorted(self.coeffs):
            c = self.coeffs[k]
            if k == 0:
                parts.append(str(c))
            else:
                head = "" if c == 1 else ("-" if c == -1 else str(c) + "*")
                parts.append("%spi^%d" % (head, 2 * k))
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return "PiPoly(%s)" % str(self)

    def to_json(self):
        return {str(2 * k): str(c) for k, c in sorted(self.coeffs.items())}


class WPLaurent:
    """Even Laurent polynomial sum_k c_k prod_i z_i^(-2 k_i), k_i >= 1."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for ks, c in terms.items():
                ks = tuple(int(k) for k in ks)
                if len(ks) != self.nvars:
                    raise ValueError("exponent tuple of wrong length")
                if any(k < 1 for k in ks):
                    raise ValueError("exponents must be >= 1")
                if not isinstance(c, PiPoly):
                    c = PiPoly(c)
                if not c.is_zero():
                    clean[ks] = c
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, WPLaurent):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def is_symmetric(self):
        """True when invariant under every adjacent transposition."""
        for pos in range(self.nvars - 1):
            for ks, c in self.terms.items():
                swapped = list(ks)
                swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                if self.terms.get(tuple(swapped), PiPoly()) != c:
                    return False
        return True

    def eval(self, zs):
        total = 0.0
        for ks, c in self.terms.items():
            term = c.value()
            for z, k in zip(zs, ks):
                term /= z ** (2 * k)
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for ks in sorted(self.terms):
            mono = "*".join("z%d^-%d" % (i + 1, 2 * k) for i, k in enumerate(ks))
            parts.append("(%s)*%s" % (self.terms[ks], mono))
        return " + ".join(parts)

    __repr__ = __str__


class VolumePoly:
    """Polynomial in the squared boundary lengths with Q[pi^2] coefficients.

    Terms map exponent tuples (m_1, ..., m_n) for prod L_i^(2 m_i) to PiPoly
    coefficients.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None):
        self.nvars = int(nvars)
        clean = {}
        if terms:
            for ms, c in terms.items():
                ms = tuple(int(m) for m in ms)
                if len(ms) != self.nvars or any(m < 0 for m in ms):
                    raise ValueError("bad exponent tuple %r" % (ms,))
                if not isinstance(c, PiPoly):
                    c = PiPoly(c)
                if not c.is_zero():
                    clean[ms] = c
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, VolumePoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def eval(self, lengths):
        total = 0.0
        for ms, c in self.terms.items():
            term = c.value()
            for L, m in zip(lengths, ms):
                term *= L ** (2 * m)
            total += term
        return total

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for ms in sorted(self.terms):
            factors = [
                "L%d^%d" % (i + 1, 2 * m) for i, m in enumerate(ms) if m
            ]
            body = "*".join(factors)
            c = "(%s)" % self.terms[ms]
            parts.append(c if not body else c + "*" + body)
        return " + ".join(parts)

    __repr__ = __str__

    def latex(self):
        if not self.terms:
            return "0"
        parts = []
        for ms in sorted(self.terms):
            factors = "".join(
                "L_{%d}^{%d}" % (i + 1, 2 * m) for i, m in enumerate(ms) if m
            )
            coeff = self.terms[ms]
            pieces = []
            for k in sorted(coeff.coeffs):
                c = coeff.coeffs[k]
                s = (
                    str(c)
                    if c.denominator == 1
                    else r"\frac{%d}{%d}" % (c.numerator, c.denominator)
                )
                if k:
                    s += r"\pi^{%d}" % (2 * k)
                pieces.append(s)
            body = " + ".join(pieces)
            parts.append(
                ("\\left(%s\\right)" % body) + factors
                if len(pieces) > 1
                else body + factors
            )
        return " + ".join(parts)


def dim_complexity(g, n):
    """Dimension 3g - 3 + n of the moduli space, the recursion's grading."""
    return 3 * g - 3 + n


def _stable(g, n):
    return n >= 1 and g >= 0 and 2 * g - 2 + n > 0


@lru_cache(maxsize=None)
def kernel_series(order):
    """Coefficients c_0..c_order of w/sin(w) = sum c_k w^(2k), exact."""
    c = [Fraction(1)]
    for m in range(1, order + 1):
        total = Fraction(0)
        for r in range(1, m + 1):
            total -= Fraction((-1) ** r, factorial(2 * r + 1)) * c[m - r]
        c.append(total)
    return tuple(c)


def _bracket(g, n_total):
    """Coefficient of z^(-2t) in the recursion bracket, for t = 0, 1, ...

    Returns a dict t -> {spectator exponent tuple -> PiPoly}; spectators are
    z_1 .. z_(n_total - 1), exponent e meaning z_i^(-e) (always even >= 2).
    """
    spect = n_total - 1
    bracket = {}

    def add(t, exps, coeff):
        bucket = bracket.setdefault(t, {})
        bucket[exps] = bucket.get(exps, PiPoly()) + coeff

    # pinched-handle term W_{g-1, n+2}(z, -z, spectators)
    if g - 1 == 0 and spect == 0:
        add(1, (), PiPoly(Fraction(1, 4)))
    elif _stable(g - 1, spect + 2):
        for ks, c in w_laurent(g - 1, spect + 2).terms.items():
            add(ks[0] + ks[1], tuple(2 * k for k in ks[2:]), c)

    # splitting terms, ordered pairs (g1, I1), (g2, I2)
    indices = tuple(range(spect))
    for g1 in range(g + 1):
        g2 = g - g1
        for mask in range(1 << spect):
            i1 = tuple(i for i in indices if mask >> i & 1)
            i2 = tuple(i for i in indices if not mask >> i & 1)
            n1, n2 = len(i1) + 1, len(i2) + 1
            if (g1, n1) == (0, 1) or (g2, n2) == (0, 1):
                continue
            first_w02 = (g1, n1) == (0, 2)
            second_w02 = (g2, n2) == (0, 2)
            if first_w02 and second_w02:
                exps = [0] * spect
                exps[i1[0]] = 2
                exps[i2[0]] = 2
                add(0, tuple(exps), PiPoly(1))
                continue
            if first_w02 or second_w02:
                j = i1[0] if first_w02 else i2[0]
                pg, pi = (g2, i2) if first_w02 else (g1, i1)
                if not _stable(pg, len(pi) + 1):
                    continue
                # one ordering of the W_{0,2}(z, z_j) pairing: the even part
                # (1/(z - z_j)^2 + 1/(z + z_j)^2)/2 times the even partner
                for ks, c in w_laurent(pg, len(pi) + 1).terms.items():
                    k = ks[0]
                    for t in range(k + 1):
                        m = 2 * (k - t)
                        exps = [0] * spect
                        exps[j] = m + 2
                        for pos, kk in zip(pi, ks[1:]):
                            exps[pos] = 2 * kk
                        add(t, tuple(exps), c * (m + 1))
                continue
            if not (_stable(g1, n1) and _stable(g2, n2)):
                continue
            for ks1, c1 in w_laurent(g1, n1).terms.items():
                for ks2, c2 in w_laurent(g2, n2).terms.items():
                    exps = [0] * spect
                    for pos, kk in zip(i1, ks1[1:]):
                        exps[pos] = 2 * kk
                    for pos, kk in zip(i2, ks2[1:]):
                        exps[pos] = 2 * kk
                    add(ks1[0] + ks2[0], tuple(exps), c1 * c2)
    return bracket


def mirzakhani_step(g, n_total):
    """One application of the recursion, producing W_{g, n_total}.

    The distinguished variable is the last one; the result is checked to be
    fully symmetric before it is returned.
    """
    if not _stable(g, n_total):
        raise ValueError("(%d, %d) is not a stable pair" % (g, n_total))
    spect = n_total - 1
    bracket = _bracket(g, n_total)
    tmax = max(bracket) if bracket else -1
    ckernel = kernel_series(max(tmax, 0))
    out = {}
    for t, bucket in bracket.items():
        for m in range(t + 1):
            j = t - m
            # residue weight: kernel term c_m (2 pi)^(2m) z^(2m-1) / 2 against
            # the geometric term z^(2j) / z_last^(2j+2)
            weight = PiPoly({m: ckernel[m] * Fraction(4**m, 2)})
            for exps, c in bucket.items():
                ks = tuple(e // 2 for e in exps) + (j + 1,)
                if any(e == 0 for e in exps):
                    raise AssertionError("spectator missing from a term")
                out[ks] = out.get(ks, PiPoly()) + c * weight
    result = WPLaurent(n_total, out)
    if not result.is_symmetric():
        raise AssertionError("recursion output is not symmetric")
    return result


@lru_cache(maxsize=None)
def w_laurent(g, n):
    """The stable free energy W_{g,n}, exact and symmetric."""
    if not _stable(g, n):
        raise ValueError("(%d, %d) is not a stable pair" % (g, n))
    if dim_complexity(g, n) > _MAX_COMPLEXITY:
        raise ValueError(
            "complexity 3g-3+n = %d exceeds the supported cap %d"
            % (dim_complexity(g, n), _MAX_COMPLEXITY)
        )
    if (g, n) == (0, 3):
        return WPLaurent(3, {(1, 1, 1): PiPoly(1)})
    return mirzakhani_step(g, n)


def inverse_laplace(w):
    """Volume polynomial from a free energy, term by term.

    Each z_i^(-2k) factor becomes L_i^(2k-2) / (2k-1)!.
    """
    out = {}
    for ks, c in w.terms.items():
        scale = Fraction(1)
        for k in ks:
            scale /= factorial(2 * k - 1)
        out[tuple(k - 1 for k in ks)] = c * scale
    return VolumePoly(w.nvars, out)


def volume(g, n):
    """Weil-Petersson volume polynomial V_{g,n}(L_1, ..., L_n), exact."""
    return inverse_laplace(w_laurent(g, n))


def symmetrized_orbits(poly):
    """Group VolumePoly terms by sorted exponents; useful for reporting."""
    orbits = {}
    for ms, c in poly.terms.items():
        key = tuple(sorted(ms))
        orbits.setdefault(key, []).append((ms, c))
    return orbits


def check_symmetry(poly):
    """True when the volume polynomial is symmetric in all variables.

    Adjacent transpositions generate the full permutation group, so
    checking them is enough and keeps the cost linear in the arity.
    """
    for ms, c in poly.terms.items():
        for i in range(poly.nvars - 1):
            swapped = list(ms)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if poly.terms.get(tuple(swapped), PiPoly()) != c:
                return False
    return True
