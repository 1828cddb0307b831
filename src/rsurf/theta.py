"""Riemann theta functions with a truncation and rounding bound, and the
kernels built from them.

The series Theta(u | tau) = sum_n exp(i pi n^T tau n + 2 pi i n^T u) is
summed over the integer points of one ellipsoid in the metric Im tau,
widened so that it fits every u once u is translated by the lattice to
bring the Gaussian center near the origin.  That translation is the one
reduction modulo Z^g + tau Z^g in rsurf (``reduce_lattice``, used also by
the Weierstrass function and the divisor lattice test).  Everything that
depends on tau alone (validation, the points enumerated Fincke-Pohst style,
their quadratic forms, the tail bounds) is a per-tau plan, built once and
kept for the last few taus, so a call forms only the terms linear in u.  One
pass gives the value, gradient and Hessian for one u or a batch, and each
comes with a bound on its error: the discarded tail by a shell-by-shell
Gaussian estimate plus a term for the points of the box left outside the
ellipsoid, and the rounding of the sum and of every term's exponent, in the
manner of Deconinck, Heil, Bobenko, van Hoeij and Schmies, "Computing
Riemann theta functions" (Math. Comp. 2004).  Genus up to 8 is accepted; a
tau whose point set would pass _MAX_POINTS raises ThetaBudgetError before
it is enumerated, and a u whose terms would overflow raises OverflowError.

On top of the bare series the module provides the theta gradient and
Hessian, quasi-periodicity residuals, odd half characteristics, the
fundamental bidifferential d_p d_q log Theta, its kappa-shifted variants
(Klein and Schiffer), the genus-one zoo, each call of which is one batched
sum over the theta values it needs (prime form, third kind differentials,
Szego kernel, Fay's identity in determinant form and its Hirota limit), and
the genus-zero degeneration of the Szego kernel.
"""

from __future__ import annotations

import functools
import math
from itertools import product

import numpy as np

__all__ = [
    "ThetaDivisorError",
    "ThetaBudgetError",
    "theta",
    "theta_grad",
    "theta_hessian",
    "theta_quasi_residual",
    "reduce_lattice",
    "odd_characteristics",
    "char_point",
    "bergman_theta",
    "kappa_klein",
    "kappa_schiffer",
    "kernel_shift",
    "prime_form_g1",
    "third_kind_form_g1",
    "szego_g1",
    "fay_check",
    "hirota_check",
    "degenerate_szego",
]

_MAX_GENUS = 8


class ThetaDivisorError(ArithmeticError):
    """Theta value vanishes to working precision; the kernel is singular."""


class ThetaBudgetError(ArithmeticError):
    """The lattice sum at this tau needs more points than the module allows."""


# unit roundoff of a double
_U = 2.0**-53
# the box grows until the tail is below _EPS of the largest term, up to
# _MAX_BOX; the tail estimate sums the shells _SHELLS
_EPS = 5e-16
_MAX_BOX = 80
_SHELLS = np.arange(3.0, 481.0)
# plans kept for the taus used last, and the most lattice points one plan
# may hold (a plan costs (g + 3) 8-byte numbers per point)
_PLANS = 8
_MAX_POINTS = 500_000
# the largest exponent of the peak term: exp overflows past 709.78, and the
# rest covers the sum over the points, the derivative weights and the bounds
_MAX_LOG = 650.0


def _validate(u, tau):
    """u as a complex array of shape (g,) or (k, g), and the plan of tau."""
    u = np.atleast_1d(np.asarray(u, dtype=complex))
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    g = u.shape[-1]
    if g > _MAX_GENUS:
        raise ValueError("genus %d exceeds the supported maximum %d" % (g, _MAX_GENUS))
    if tau.shape != (g, g):
        raise ValueError("tau must be %d x %d" % (g, g))
    return u, _plan(tau.tobytes(), g)


@functools.lru_cache(maxsize=_PLANS)
def _plan(key, g):
    """The plan of the g x g tau whose bytes are ``key``.  Keyed by value, so
    a tau changed in place gets a new plan; an invalid tau raises every time."""
    return _Plan(np.frombuffer(key, dtype=complex).reshape(g, g))


class _Plan:
    """What the lattice sum at one tau needs that does not depend on u.

    A call recentres u so that the Gaussian centre of the terms is -c with
    |c|_inf <= 1/2, so one plan fits every u.  Points of sup-norm k sit at
    Y-distance >= sqrt(lam) (k - 1/2) from the centre: the shells k >= b
    bound the terms outside the box |n|_inf <= b.  Of its N = (2b+1)^g
    points only those within Y-distance R of some centre are summed: with
    Y = r^T r and delta_i = sum_j |r_ij| / 2 >= |(r c)_i|, every n with
    sum_i max(0, |(r n)_i| - delta_i)^2 <= R^2.  A box point left out lies
    farther than R from the centre, so those add at most N e^(-pi R^2) =
    _EPS of the peak term, R^2 = ln(N/_EPS)/pi.  ``tails[i]`` is the sum of
    both bounds in units of the peak term, each point weighted by the
    derivative factor 2 pi (|n|_inf + 1) to the power i.
    """

    def __init__(self, tau):
        g = tau.shape[0]
        if not np.max(np.abs(tau - tau.T)) <= 1e-12 * max(1.0, np.max(np.abs(tau))):
            raise ValueError("tau must be symmetric")
        y = tau.imag
        eig = np.linalg.eigvalsh(y)
        if eig[0] <= 0:
            raise ValueError("Im tau must be positive definite")

        dist = _SHELLS - 0.5
        shells = 2 * g * (2 * _SHELLS + 1) ** (g - 1) * np.exp(-np.pi * eig[0] * dist**2)
        weight = 2 * np.pi * (_SHELLS + 1)
        tails = [np.cumsum((shells * weight**i)[::-1])[::-1] for i in range(3)]
        fits = np.flatnonzero(tails[2][: _MAX_BOX - 2] <= _EPS)
        box = int(_SHELLS[fits[0]]) if fits.size else _MAX_BOX
        self.tails = [t[box - 3] + _EPS * (2 * np.pi * (box + 1)) ** i for i, t in enumerate(tails)]

        radius = np.sqrt((g * np.log(2 * box + 1) - np.log(_EPS)) / np.pi)
        r = np.linalg.cholesky(y).T
        delta = 0.5 * np.sum(np.abs(r), axis=1)
        # the point count is about the volume of the set, a ball of the
        # radius plus a box of sides 2 delta (Steiner's formula)
        sides = np.poly(-2 * delta)
        volume = sum(
            np.pi ** (k / 2) / math.gamma(k / 2 + 1) * radius**k * sides[g - k]
            for k in range(g + 1)
        ) / np.sqrt(np.prod(eig))
        if volume > _MAX_POINTS:
            raise ThetaBudgetError(
                "about %.3g lattice points exceed the budget of %d" % (volume, _MAX_POINTS)
            )
        # slack for the rounding of the enumeration, which must not drop a
        # point of the set
        n = _lattice_points(r, delta, radius * (1 + 1e-9))

        self.tau, self.y = tau, y
        self.yinv = np.linalg.inv(y)
        self.rho = np.linalg.norm(tau)
        self.n = n
        self.qx = np.pi * np.einsum("ki,ki->k", n @ tau.real, n)
        self.qy = np.pi * np.einsum("ki,ki->k", n @ y, n)
        self.nn = np.sqrt(np.einsum("ki,ki->k", n, n))


def _lattice_points(r, delta, radius):
    """Integer points n with sum_i max(0, |(r n)_i| - delta_i)^2 <= radius^2
    for upper triangular r, in the manner of Fincke and Pohst (Math. Comp.
    1985): the coordinates are fixed from the last one down, every partial
    point carrying the squared radius it leaves to the rest."""
    g = r.shape[0]
    cols = []  # coordinates i + 1, ..., g - 1 of the partial points
    rest = np.array([radius**2])
    for i in range(g - 1, -1, -1):
        t = np.zeros(rest.size)
        for j, col in enumerate(cols, i + 1):
            t += r[i, j] * col
        centre = -t / r[i, i]
        half = (np.sqrt(np.maximum(rest, 0.0)) + delta[i]) / r[i, i]
        lo = np.ceil(centre - half)
        count = (np.floor(centre + half) - lo + 1).astype(np.int64)
        if count.sum() > _MAX_POINTS:
            raise ThetaBudgetError("more than %d lattice points to sum" % _MAX_POINTS)
        idx = np.repeat(np.arange(count.size), count)
        start = np.cumsum(count) - count
        ni = lo[idx] + (np.arange(idx.size) - start[idx])
        rest = rest[idx] - np.maximum(np.abs(r[i, i] * ni + t[idx]) - delta[i], 0.0) ** 2
        cols = [ni] + [col[idx] for col in cols]
    return np.column_stack(cols)


def _reduce(u, tau, yinv):
    """The representative v of u modulo Z^g + tau Z^g, for u of shape (g,) or
    (..., g), and the integer vector m' of u = v + tau m' + m: m' rounds
    Y^-1 Im u and m rounds Re(u - tau m'), with Y^-1 = ``yinv`` the inverse
    of Im tau.  So c = Y^-1 Im v has |c|_inf <= 1/2, the recentring that the
    tail bound of a plan assumes (Deconinck et al. 2004), and |Re v|_inf <= 1/2.
    """
    mprime = np.rint(u.imag @ yinv)
    v = u - mprime @ tau.T
    v -= np.rint(v.real)
    return v, mprime


def reduce_lattice(u, tau):
    """The representative of u modulo Z^g + tau Z^g near the origin."""
    tau = np.asarray(tau, dtype=complex)
    return _reduce(np.asarray(u, dtype=complex), tau, np.linalg.inv(tau.imag))[0]


def _theta_sum(u, plan, order):
    """Theta and its u-derivatives up to ``order`` (at most 2) from one sum
    over the plan's points, at one u of shape (g,) or at a batch (..., g).

    Returns ``(jet, err)``: ``jet`` is ``[value, gradient, Hessian]`` cut
    after ``order``, ``err`` the matching bounds on their errors, each with
    the batch axes of u in front.  The prefactor exp(p) of
    Theta(u) = exp(p) sum_n exp(i pi n tau n + 2 pi i n v) is folded into
    every term, so the u-derivatives carry the weights 2 pi i (n - m').  A
    bound is the plan's Gaussian tail, weighted for m', plus, to first order
    in the unit roundoff, the rounding of the sum (gamma_N sum |term|) and of
    each term's exponent, which grows with the size of the numbers the
    exponent is formed from.
    """
    tau, n = plan.tau, plan.n
    g = n.shape[1]
    # u = v + tau m' + m; c = Y^-1 Im v is minus the Gaussian centre
    v, mprime = _reduce(u, tau, plan.yinv)
    c = v.imag @ plan.yinv
    p = -1j * np.pi * np.sum(mprime * (mprime @ tau.T + 2 * v), axis=-1)
    log_peak = np.pi * np.sum(c * (c @ plan.y), axis=-1) + p.real
    if (log_peak > _MAX_LOG).any():
        raise OverflowError("theta overflows: its largest term is e^%.4g" % log_peak.max())
    peak = np.exp(log_peak)
    wm = 2 * np.pi * np.max(np.abs(mprime), axis=-1)
    t0, t1, t2 = plan.tails
    trunc = [peak * t for t in (t0, t1 + wm * t0, t2 + 2 * wm * t1 + wm**2 * t0)]

    re = p.real[..., None] - plan.qy - 2 * np.pi * (v.imag @ n.T)
    im = p.imag[..., None] + plan.qx + 2 * np.pi * (v.real @ n.T)
    terms = np.exp(re + 1j * im)

    # rounding: gamma_N sum |term| for the sum, and per term the error of its
    # exponent, through |n|^T |tau| |n| <= rho |n|^2 and the sizes of v, u and
    # tau m' (v carries the error of forming it); the constants leave slack
    # for the weights and the final scalings
    rho, nn = plan.rho, plan.nn
    mp = np.linalg.norm(mprime, axis=-1)[..., None]
    scale = (np.linalg.norm(v, axis=-1) + np.linalg.norm(u, axis=-1))[..., None] + rho * mp
    size = np.pi * rho * (nn**2 + mp**2) + 2 * np.pi * (nn + mp) * scale
    count = n.shape[0] + 8
    gamma = count * _U / (1 - count * _U)
    rnd = np.abs(terms) * (gamma + _U * ((2 * g * g + 8) * size + 16))

    jet = [np.sum(terms, axis=-1)]
    err = [trunc[0] + np.sum(rnd, axis=-1)]
    if order >= 1:
        w = n - mprime[..., None, :]  # n - m', exact
        wt = np.swapaxes(w, -1, -2)
        parts = np.stack((terms.real, terms.imag), axis=-1)
        grad = wt @ parts
        jet.append(2j * np.pi * (grad[..., 0] + 1j * grad[..., 1]))
        if order == 2:
            hess = [wt @ (w * parts[..., k : k + 1]) for k in (0, 1)]
            jet.append(-4 * np.pi**2 * (hess[0] + 1j * hess[1]))
        aw = np.abs(w)
        awt = np.swapaxes(aw, -1, -2)
        err.append(trunc[1][..., None] + 2 * np.pi * (awt @ rnd[..., None])[..., 0])
        if order == 2:
            err.append(trunc[2][..., None, None] + 4 * np.pi**2 * (awt @ (aw * rnd[..., None])))
    return jet, err


def theta(u, tau, derivs=(), with_error=False):
    """Riemann theta function, optionally differentiated.

    ``derivs`` lists the u-indices of applied partial derivatives, e.g.
    ``(0, 0)`` for the second derivative in u_1 at genus one.  When
    ``with_error`` is set, returns ``(value, bound)`` where ``bound`` bounds
    the truncation and rounding error.
    """
    u, plan = _validate(u, tau)
    if len(derivs) > 2:
        raise NotImplementedError("derivatives up to order two are supported")
    k = len(derivs)
    jet, err = _theta_sum(u, plan, k)
    out = complex(jet[k][tuple(derivs)])
    if with_error:
        return out, float(err[k][tuple(derivs)])
    return out


def theta_grad(u, tau):
    return _theta_sum(*_validate(u, tau), 1)[0][1]


def theta_hessian(u, tau):
    return _theta_sum(*_validate(u, tau), 2)[0][2]


def _thetas(tau, args):
    """Theta, its error bound and its gradient at each row of ``args``, of
    shape (k, g), from one plan lookup and one sum."""
    (val, grad), (err, _) = _theta_sum(*_validate(args, tau), 1)
    return val, err, grad


def theta_quasi_residual(u, tau, m, mprime):
    """Residual of the quasi-periodicity law for integer vectors m, m'.

    Returns |Theta(u + m + tau m') - phase * Theta(u)| / max(|Theta(u)|, 1)
    with phase = exp(-i pi m' tau m' - 2 pi i m' u).
    """
    u, plan = _validate(u, tau)
    tau = plan.tau
    m = np.asarray(m, dtype=int)
    mp = np.asarray(mprime, dtype=int)
    lhs = theta(u + m + tau @ mp, tau)
    phase = np.exp(-1j * np.pi * (mp @ tau @ mp) - 2j * np.pi * (mp @ u))
    rhs = phase * theta(u, tau)
    return abs(lhs - rhs) / max(abs(rhs), 1.0)


def odd_characteristics(g):
    """All odd half characteristics (a, b), each a vector in {0, 1/2}^g.

    A characteristic is odd when 4 a.b is odd; there are
    2^(g-1) (2^g - 1) of them.
    """
    out = []
    for abits in product((0, 1), repeat=g):
        for bbits in product((0, 1), repeat=g):
            if sum(x * y for x, y in zip(abits, bbits)) % 2 == 1:
                out.append(
                    (tuple(x / 2 for x in abits), tuple(x / 2 for x in bbits))
                )
    return out


def char_point(char, tau):
    """The point b + tau a of the characteristic (a, b) in the Jacobian."""
    a, b = char
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    return np.asarray(b, dtype=complex) + tau @ np.asarray(a, dtype=complex)


def _default_odd_point(tau):
    g = np.atleast_2d(np.asarray(tau, dtype=complex)).shape[0]
    return char_point(odd_characteristics(g)[0], tau)


def _off_divisor(val, err, what):
    """``val`` unless an entry of it is within 1e3 times its bound of zero."""
    if (abs(val) < 1e3 * np.maximum(err, 1e-300)).any():
        raise ThetaDivisorError(what)
    return val


def _log_theta_hessian(v, tau):
    (val, grad, hess), (err, _, _) = _theta_sum(*_validate(v, tau), 2)
    _off_divisor(val, err, "theta value %.3e is below its error threshold" % abs(val))
    return hess / val - np.outer(grad, grad) / val**2


def bergman_theta(tau, up, uq, dup, duq, shift=None):
    """Fundamental bidifferential d_p d_q log Theta(u(p) - u(q) + c).

    ``up`` and ``uq`` are Abel images of the two points, ``dup`` and
    ``duq`` the vectors of holomorphic-differential values pulled back to
    the local coordinates (for a torus coordinate at genus one these are
    just 1).  ``shift`` defaults to an odd characteristic point.
    """
    up = np.atleast_1d(np.asarray(up, dtype=complex))
    uq = np.atleast_1d(np.asarray(uq, dtype=complex))
    dup = np.atleast_1d(np.asarray(dup, dtype=complex))
    duq = np.atleast_1d(np.asarray(duq, dtype=complex))
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    c = _default_odd_point(tau) if shift is None else np.asarray(shift, dtype=complex)
    h = _log_theta_hessian(up - uq + c, tau)
    return -complex(dup @ h @ duq)


def kappa_klein(tau, zeta):
    """Klein kernel shift: (1 / (pi i)) times the log-theta Hessian."""
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    zeta = np.atleast_1d(np.asarray(zeta, dtype=complex))
    return _log_theta_hessian(zeta, tau) / (1j * np.pi)

def kappa_schiffer(tau):
    """Schiffer kernel shift: (i/2) (Im tau)^(-1)."""
    tau = np.atleast_2d(np.asarray(tau, dtype=complex))
    return 0.5j * np.linalg.inv(tau.imag)


def kernel_shift(tau, kappa, up, uq, dup, duq, shift=None):
    """B_kappa = B + 2 pi i sum_ij kappa_ij omega_i(p) omega_j(q)."""
    dup = np.atleast_1d(np.asarray(dup, dtype=complex))
    duq = np.atleast_1d(np.asarray(duq, dtype=complex))
    kappa = np.atleast_2d(np.asarray(kappa, dtype=complex))
    base = bergman_theta(tau, up, uq, dup, duq, shift=shift)
    return base + 2j * np.pi * complex(dup @ kappa @ duq)


# -- genus one kernels -------------------------------------------------------
# quotients of Theta(v + c), c = (1 + tau)/2, which vanishes at v = 0


def prime_form_g1(z, w, tau):
    """Prime form E(z, w) on the torus C / (Z + tau Z).

    Vanishes simply at z = w and nowhere else on the fundamental cell.
    """
    c = (1.0 + tau) / 2.0
    val, _, grad = _thetas(tau, [[z - w + c], [c]])
    return complex(val[0]) / complex(grad[1, 0])


def third_kind_form_g1(z, q1, q2, tau):
    """Normalized third kind differential with residues +1 at q1, -1 at q2,
    evaluated at z (coefficient against dz)."""
    c = (1.0 + tau) / 2.0
    val, err, grad = _thetas(tau, [[z - q1 + c], [z - q2 + c]])
    _off_divisor(val, err, "prime form argument sits on the theta divisor")
    dlog = grad[:, 0] / val
    return complex(dlog[0] - dlog[1])


def _szego(a, b, e, tau, extra=()):
    """Theta(a - b + e) / (E(a, b) Theta(e)) at genus one for each entry of
    a, b and e, scalars or 1-d arrays broadcast together, and Theta at each
    of the arguments ``extra``, from one sum."""
    c = (1.0 + tau) / 2.0
    d = np.ravel(np.subtract(a, b, dtype=complex))
    e = np.broadcast_to(e, d.shape)
    k = d.size
    val, err, grad = _thetas(tau, np.concatenate(([c], d + e, e, d + c, extra))[:, None])
    num, den, prime = val[1 : k + 1], val[k + 1 : 2 * k + 1], val[2 * k + 1 : 3 * k + 1]
    _off_divisor(den, err[k + 1 : 2 * k + 1], "shift sits on the theta divisor")
    return num / (prime / grad[0, 0] * den), val[3 * k + 1 :]


def szego_g1(z, w, zeta, tau, omega_integral=0.0):
    """Szego kernel psi(z, w) with Jacobian shift zeta at genus one.

    ``omega_integral`` is int_w^z of the extra generalized shift, zero for
    the bare kernel.  The result has a simple pole 1/(z - w).
    """
    (psi,), _ = _szego(z, w, zeta + (1.0 + tau) / 2.0, tau)
    return np.exp(omega_integral) * complex(psi)


def fay_check(tau, zeta, pairs):
    """Residual of the determinantal Fay identity at genus one.

    ``pairs`` is a list of (a_k, b_k) pole pairs; the left side is the
    tau-quotient for the sum of the third kind shifts, evaluated by chaining
    one shift at a time, and the right side is det psi(a_i, b_j).  Returns
    the absolute difference, normalized by the larger magnitude.
    """
    c = (1.0 + tau) / 2.0
    e0 = zeta + c
    a, b = np.array(pairs, dtype=complex).T
    n = a.size
    # each pair is shifted by the Abel images a - b of the pairs before it
    e = e0 + np.concatenate(([0j], np.cumsum(a - b)[:-1]))
    # exp of int_b^a of the earlier third kind forms: a cross-ratio of
    # Theta(x + c) for each earlier pair (aj, bj) of each pair (ak, bk)
    cross = [(ak - aj, bk - bj, ak - bj, bk - aj)
             for k, (ak, bk) in enumerate(pairs) for aj, bj in pairs[:k]]
    # psi(a_k, b_k) at the chained shifts, then psi(a_i, b_j) at e0
    psi, th = _szego(
        np.concatenate((a, np.repeat(a, n))),
        np.concatenate((b, np.tile(b, n))),
        np.concatenate((e, np.full(n * n, e0))),
        tau,
        np.ravel(cross) + c,
    )
    t_aa, t_bb, t_ab, t_ba = th.reshape(-1, 4).T
    lhs = np.prod(psi[:n]) * np.prod(t_aa * t_bb / (t_ab * t_ba))
    rhs = np.linalg.det(psi[n:].reshape(n, n))
    scale = max(abs(lhs), abs(rhs), 1.0)
    return abs(lhs - rhs) / scale


def hirota_check(tau, zeta, z1, z2, z, h):
    """First order Hirota residual from the collapsing Fay identity.

    The Fay quotient with pairs (z1, z2), (z + h, z) is normalized by
    psi(z1, z2) psi(z + h, z); its finite difference slope at h = 0 is
    compared with the analytic limit -psi(z1, z) psi(z, z2) / psi(z1, z2),
    the normalized form of the bilinear relation with its minus sign.
    The return value decays like O(h).
    """
    c = (1.0 + tau) / 2.0
    e = zeta + c
    u12 = z1 - z2
    extra = [u12 + h + e, e, u12 + e, h + e, z1 - z - h + c, z2 - z + c, z1 - z + c, z2 - z - h + c]
    psi, th = _szego([z1, z, z1], [z, z2, z2], e, tau, extra)
    t12h, t0, t12, th_, t1h, t2, t1, t2h = th.tolist()
    lhs_norm = t12h * t0 / (t12 * th_) * t1h * t2 / (t1 * t2h)
    fd = (lhs_norm - 1.0) / h
    limit = -(psi[0] * psi[1] / psi[2])
    return abs(fd - limit)


def degenerate_szego(z, w, nodes, omega_integrals=None):
    """Genus-zero degeneration of the Szego kernel.

    ``nodes`` is a list of pairs (p_plus, p_minus) of identified points and
    ``omega_integrals`` an optional (N+1) x (N+1) matrix of int_{p_j,-}^{p_i,+}
    of the shift, indices 0 reserved for (z, w); zeros when omitted.  With no
    nodes this is exp(int) / (z - w).
    """
    pts_plus = [z] + [p for p, _ in nodes]
    pts_minus = [w] + [q for _, q in nodes]
    n1 = len(pts_plus)
    if omega_integrals is None:
        omega_integrals = np.zeros((n1, n1))
    omega_integrals = np.asarray(omega_integrals, dtype=complex)
    big = np.empty((n1, n1), dtype=complex)
    for i in range(n1):
        for j in range(n1):
            dd = pts_plus[i] - pts_minus[j]
            if dd == 0:
                raise ZeroDivisionError("coincident node projections")
            big[i, j] = np.exp(omega_integrals[i, j]) / dd
    if n1 == 1:
        return big[0, 0]
    small = big[1:, 1:]
    return np.linalg.det(big) / np.linalg.det(small)
