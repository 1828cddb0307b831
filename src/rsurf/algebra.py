"""Exact bivariate polynomial arithmetic over the rationals.

Polynomials are sparse dictionaries mapping exponent pairs ``(i, j)`` (powers
of x and y) to ``fractions.Fraction`` coefficients.  Negative exponents are
permitted, so the class doubles as a Laurent-polynomial container where the
fundamental-form routines need one.  On top of the ring operations the module
provides a small text format with a canonical printer, the resultant with
respect to y (Sylvester determinant over Q[x]), and a numerical root finder
for univariate specializations.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

__all__ = [
    "BivariatePoly",
    "PolyParseError",
    "parse_poly",
    "resultant_y",
    "roots_univariate",
]


class PolyParseError(ValueError):
    """Raised on malformed polynomial text; carries the offending position."""

    def __init__(self, message, position):
        super().__init__("%s (at position %d)" % (message, position))
        self.position = position


def _fr(value):
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError("coefficients must be rational, got %r" % (value,))


class BivariatePoly:
    """Sparse polynomial (or Laurent polynomial) in x and y over Q."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        clean = {}
        if coeffs:
            for (i, j), c in coeffs.items():
                c = _fr(c)
                if c != 0:
                    clean[(int(i), int(j))] = c
        self.coeffs = clean

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def constant(cls, c):
        return cls({(0, 0): _fr(c)})

    @classmethod
    def monomial(cls, i, j, c=1):
        return cls({(i, j): _fr(c)})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, BivariatePoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariatePoly.constant(other)
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return BivariatePoly(out)

    __radd__ = __add__

    def __neg__(self):
        return BivariatePoly({k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = BivariatePoly.constant(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c0 = _fr(other)
            return BivariatePoly({k: c * c0 for k, c in self.coeffs.items()})
        out = {}
        for (i1, j1), c1 in self.coeffs.items():
            for (i2, j2), c2 in other.coeffs.items():
                k = (i1 + i2, j1 + j2)
                out[k] = out.get(k, Fraction(0)) + c1 * c2
        return BivariatePoly(out)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        out = BivariatePoly.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def degree(self):
        """Total degree, or -1 for the zero polynomial."""
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def degree_y(self):
        if not self.coeffs:
            return -1
        return max(j for _, j in self.coeffs)

    def degree_x(self):
        if not self.coeffs:
            return -1
        return max(i for i, _ in self.coeffs)

    def diff_y(self):
        return BivariatePoly(
            {(i, j - 1): c * j for (i, j), c in self.coeffs.items() if j != 0}
        )

    def support(self):
        return set(self.coeffs)

    def y_coefficients(self):
        """Coefficients as univariate polynomials in x, indexed by y-power.

        Requires nonnegative exponents.  Entry ``j`` is a tuple of Fractions
        (ascending powers of x) for the coefficient of y^j.
        """
        if any(i < 0 or j < 0 for i, j in self.coeffs):
            raise ValueError("Laurent terms present; not a polynomial in x, y")
        dy = self.degree_y()
        if dy < 0:
            return []
        rows = []
        for j in range(dy + 1):
            terms = {i: c for (i, jj), c in self.coeffs.items() if jj == j}
            dx = max(terms) if terms else -1
            rows.append(tuple(terms.get(i, Fraction(0)) for i in range(dx + 1)))
        return rows

    def eval(self, x, y):
        """Evaluate at (x, y); exact when both arguments are rational."""
        total = None
        for (i, j), c in self.coeffs.items():
            term = c * _pow(x, i) * _pow(y, j)
            total = term if total is None else total + term
        if total is None:
            return Fraction(0) if isinstance(x, (int, Fraction)) else 0.0 * x
        return total

    # -- canonical text form ------------------------------------------------

    def __str__(self):
        if not self.coeffs:
            return "0"
        keys = sorted(self.coeffs, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        parts = []
        for n, (i, j) in enumerate(keys):
            c = self.coeffs[(i, j)]
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            factors = []
            if mag != 1 or (i == 0 and j == 0):
                factors.append(str(mag))
            if i != 0:
                factors.append("x" if i == 1 else "x^%d" % i)
            if j != 0:
                factors.append("y" if j == 1 else "y^%d" % j)
            body = "*".join(factors)
            if n == 0:
                parts.append(body if sign == "+" else "-" + body)
            else:
                parts.append(" %s %s" % (sign, body))
        return "".join(parts)

    def __repr__(self):
        return "BivariatePoly(%s)" % str(self)

    # -- JSON encoding ------------------------------------------------------

    def to_json(self):
        """List of [i, j, "num/den"] triples in canonical order."""
        keys = sorted(self.coeffs, key=lambda k: (k[0] + k[1], k[0]), reverse=True)
        return [[i, j, str(self.coeffs[(i, j)])] for i, j in keys]


def _pow(base, n):
    if n >= 0:
        return base**n
    if isinstance(base, (int, Fraction)):
        return Fraction(1) / (_fr(base) ** (-n))
    return base ** float(n)


# -- parser ------------------------------------------------------------------

_TOKEN_CHARS = set("0123456789xy+-*^()/ \t")


class _Parser:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def error(self, message):
        raise PolyParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def parse(self):
        result = self.expr()
        if self.peek():
            self.error("unexpected character %r" % self.peek())
        return result

    def expr(self):
        ch = self.peek()
        if ch == "-":
            self.take()
            total = -self.term()
        else:
            if ch == "+":
                self.take()
            total = self.term()
        while True:
            ch = self.peek()
            if ch == "+":
                self.take()
                total = total + self.term()
            elif ch == "-":
                self.take()
                total = total - self.term()
            else:
                return total

    def term(self):
        total = self.factor()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                total = total * self.factor()
            elif ch and (ch.isdigit() or ch in "xy("):
                # implicit product, e.g. "3x^2y"
                total = total * self.factor()
            else:
                return total

    def factor(self):
        base = self.base()
        if self.peek() == "^":
            self.take()
            exponent = self.integer()
            if len(base.coeffs) == 1:
                ((i, j), c) = next(iter(base.coeffs.items()))
                if c == 1 and exponent < 0:
                    return BivariatePoly.monomial(i * exponent, j * exponent)
            if exponent < 0:
                self.error("negative exponent on a non-monomial")
            return base**exponent
        return base

    def base(self):
        ch = self.peek()
        if ch == "(":
            self.take()
            inner = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.take()
            return inner
        if ch == "x":
            self.take()
            return BivariatePoly.monomial(1, 0)
        if ch == "y":
            self.take()
            return BivariatePoly.monomial(0, 1)
        if ch.isdigit():
            num = self.integer()
            if self.peek() == "/":
                self.take()
                den = self.integer()
                if den == 0:
                    self.error("zero denominator")
                return BivariatePoly.constant(Fraction(num, den))
            return BivariatePoly.constant(num)
        if ch == "-":
            self.take()
            return -self.factor()
        if ch == "":
            self.error("unexpected end of input")
        self.error("unexpected character %r" % ch)

    def integer(self):
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] == "-":
            self.pos += 1
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start or self.text[start:self.pos] == "-":
            self.error("expected an integer")
        return int(self.text[start : self.pos])


def parse_poly(text):
    """Parse polynomial text such as ``y^2 - x^3 + 3/2*x*y`` exactly.

    Raises :class:`PolyParseError` with the character position on bad input.
    """
    if not isinstance(text, str):
        raise TypeError("expected a string")
    return _Parser(text).parse()


# -- resultant over Q[x] -----------------------------------------------------


def horner(coeffs, x):
    """sum_k coeffs[k] x^k by Horner's rule; exact when x and the
    coefficients are rational, and elementwise for an array x."""
    acc = 0 * x
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def resultant_y(p, q):
    """Resultant of p and q with respect to y, a polynomial in x.

    The Sylvester determinant over Q[x] is computed exactly by evaluation at
    integer points followed by Lagrange interpolation.  If both inputs are
    constant in y the matrix is empty and the resultant is 1.
    """
    m = p.degree_y()
    n = q.degree_y()
    if p.is_zero() or q.is_zero():
        return BivariatePoly.zero()
    m = max(m, 0)
    n = max(n, 0)
    if m == 0 and n == 0:
        return BivariatePoly.constant(1)
    prows = p.y_coefficients()
    qrows = q.y_coefficients()
    # degree bound for the determinant in x
    dp = max((len(r) - 1 for r in prows), default=0)
    dq = max((len(r) - 1 for r in qrows), default=0)
    bound = n * dp + m * dq + 1
    xs = [Fraction(k) for k in range(bound)]
    values = []
    for x0 in xs:
        pc = [horner(prows[j], x0) if j < len(prows) else Fraction(0) for j in range(m + 1)]
        qc = [horner(qrows[j], x0) if j < len(qrows) else Fraction(0) for j in range(n + 1)]
        values.append(_sylvester_det(pc, qc, m, n))
    interp = _lagrange(xs, values)
    return BivariatePoly({(i, 0): c for i, c in enumerate(interp) if c != 0})


def _sylvester_det(pc, qc, m, n):
    size = m + n
    if size == 0:
        return Fraction(1)
    rows = []
    for shift in range(n):
        row = [Fraction(0)] * size
        for j in range(m + 1):
            row[shift + j] = pc[m - j]
        rows.append(row)
    for shift in range(m):
        row = [Fraction(0)] * size
        for j in range(n + 1):
            row[shift + j] = qc[n - j]
        rows.append(row)
    return _det_fraction(rows)


def _det_fraction(rows):
    n = len(rows)
    det = Fraction(1)
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if rows[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        pv = rows[col][col]
        det *= pv
        for r in range(col + 1, n):
            factor = rows[r][col] / pv
            if factor:
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _lagrange(xs, ys):
    """Coefficients (ascending) of the interpolating polynomial, exact."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for k in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == k:
                continue
            basis = _mul_linear(basis, xs[j])
            denom *= xs[k] - xs[j]
        scale = ys[k] / denom
        for i, b in enumerate(basis):
            coeffs[i] += scale * b
    return coeffs


def _mul_linear(poly, root):
    """Multiply coefficient list (ascending) by (x - root)."""
    out = [Fraction(0)] * (len(poly) + 1)
    for i, c in enumerate(poly):
        out[i + 1] += c
        out[i] -= root * c
    return out


# -- numerical roots ---------------------------------------------------------


def roots_univariate(coeffs, tol=1e-9):
    """Roots of a univariate polynomial with multiplicities.

    ``coeffs`` is a sequence of coefficients in ascending order (rational or
    complex).  Roots are first taken from the companion-matrix eigenvalues,
    then polished by a few Newton steps, then clustered: roots closer than
    ``tol * scale`` are merged and reported once with their multiplicity.
    Returns a list of ``(root, multiplicity)`` pairs; the multiplicities sum
    to the degree.
    """
    c = [complex(v) for v in coeffs]
    while c and abs(c[-1]) == 0:
        c.pop()
    if len(c) <= 1:
        return []
    deg = len(c) - 1
    monic = np.array(c, dtype=complex) / c[-1]
    comp = np.zeros((deg, deg), dtype=complex)
    comp[1:, :-1] = np.eye(deg - 1)
    comp[:, -1] = -monic[:-1]
    raw = np.linalg.eigvals(comp)

    exact = all(isinstance(v, (int, Fraction)) for v in coeffs)
    if exact:
        ec = list(coeffs)
        while ec and ec[-1] == 0:
            ec.pop()
        dec = [k * ec[k] for k in range(1, len(ec))]

        def peval(z, which):
            # exact Horner at a float point: near a multiple root the float
            # residual is pure rounding noise, the exact one is not
            re, im = Fraction(z.real), Fraction(z.imag)
            ar, ai = Fraction(0), Fraction(0)
            for v in reversed(ec if which == 0 else dec):
                ar, ai = ar * re - ai * im + v, ar * im + ai * re
            return complex(ar, ai)

    else:

        def peval(z, which):
            acc = 0j
            for v in reversed(c if which == 0 else dcoeffs):
                acc = acc * z + v
            return acc

    dcoeffs = [k * c[k] for k in range(1, deg + 1)]

    polished = []
    for z in raw:
        # plain Newton converges only linearly at a multiple root, so allow
        # plenty of cheap iterations before clustering
        for _ in range(60):
            dp = peval(z, 1)
            if dp == 0:
                break
            step = peval(z, 0) / dp
            z = z - step
            if abs(step) < 1e-15 * (1.0 + abs(z)):
                break
        polished.append(z)

    scale = max(1.0, max(abs(z) for z in polished))
    threshold = tol * scale
    clusters = []
    for z in sorted(polished, key=lambda w: (w.real, w.imag)):
        for cluster in clusters:
            if abs(z - cluster[0]) < threshold:
                cluster.append(z)
                break
        else:
            clusters.append([z])
    return [(sum(group) / len(group), len(group)) for group in clusters]
