"""Period matrices of hyperelliptic curves y^2 = Q(x) by contour quadrature.

Q must have even degree 2g + 2 >= 4 and distinct roots.  Branch points are
sorted by (real, imaginary) and paired consecutively into g + 1 cuts.  The
A_i cycle is an ellipse around cut i (i = 1..g) integrated by the periodic
trapezoid rule, with the sheet of y = sqrt(Q) tracked by continuity from a
principal-branch anchor far from all cuts.  The B_i cycle passes through
cut i and cut g + 1; its period is twice the integral along the straight
segment between the two nearest cut endpoints, where the inverse square
root endpoint singularities are absorbed by a sine substitution.

tau = (M_A)^(-1) M_B is checked for symmetry, symmetrized, and the B
orientations are flipped when Im tau comes out negative definite.  The
quadrature is refined until tau is stable to 1e-9.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .algebra import horner, roots_univariate

__all__ = [
    "HyperellipticCurve",
    "build_curve",
    "period_matrix",
    "abel_map",
    "riemann_constant",
    "bilinear_check",
    "agm",
    "elliptic_K",
]


@dataclass
class HyperellipticCurve:
    coeffs: tuple  # Q coefficients, ascending
    branch_points: tuple
    cuts: tuple  # pairs of branch points, consecutive in canonical order
    genus: int
    anchor: complex = field(default=0j)
    anchor_y: complex = field(default=0j)

    def q(self, x):
        return horner(self.coeffs, x)


def build_curve(coeffs):
    """Curve data for y^2 = Q(x) with Q given by ascending coefficients."""
    coeffs = tuple(complex(c) for c in coeffs)
    deg = len(coeffs) - 1
    while deg >= 0 and coeffs[deg] == 0:
        deg -= 1
    if deg < 4 or deg % 2 != 0:
        raise ValueError("Q must have even degree >= 4")
    roots = roots_univariate(coeffs[: deg + 1])
    if any(m != 1 for _, m in roots):
        raise ValueError("Q must have distinct roots")
    pts = sorted((complex(r) for r, _ in roots), key=lambda z: (z.real, z.imag))
    cuts = tuple((pts[2 * i], pts[2 * i + 1]) for i in range(deg // 2))
    genus = deg // 2 - 1
    curve = HyperellipticCurve(coeffs[: deg + 1], tuple(pts), cuts, genus)
    span = max(abs(p) for p in pts)
    curve.anchor = complex(2.0 * span + 3.0, 1.0)
    curve.anchor_y = np.sqrt(curve.q(curve.anchor))
    return curve


def _track_y(curve, xs, y0):
    """Continue y = sqrt(Q) along the discrete path xs, starting from y0."""
    ys = np.empty(len(xs), dtype=complex)
    y = y0
    for k, x in enumerate(xs):
        s = np.sqrt(curve.q(x))
        if abs(s - y) > abs(-s - y):
            s = -s
        ys[k] = y = s
    return ys


def _route(curve, x_from, x_to, clearance=None):
    """Polyline from x_from to x_to that detours around branch points."""
    if clearance is None:
        dists = [
            abs(a - b)
            for i, a in enumerate(curve.branch_points)
            for b in curve.branch_points[i + 1 :]
        ]
        clearance = 0.2 * min(dists)
    path = [complex(x_from), complex(x_to)]
    for _ in range(12):
        changed = False
        new_path = [path[0]]
        for a, b in zip(path, path[1:]):
            seg = b - a
            seglen = abs(seg)
            bad = None
            for p in curve.branch_points:
                if seglen == 0:
                    continue
                t = ((p - a) / seg).real
                t = min(max(t, 0.0), 1.0)
                foot = a + t * seg
                if abs(foot - p) < clearance and 0.05 < t < 0.95:
                    bad = (p, t, foot)
                    break
            if bad is not None:
                p, t, foot = bad
                normal = (foot - p) / max(abs(foot - p), 1e-30)
                if abs(foot - p) < 1e-12:
                    normal = 1j * seg / seglen
                new_path.append(p + normal * 1.5 * clearance)
                changed = True
            new_path.append(b)
        path = new_path
        if not changed:
            break
    return path


def _sample_polyline(path, per_leg):
    xs = []
    for a, b in zip(path, path[1:]):
        ts = np.linspace(0.0, 1.0, per_leg, endpoint=False)
        xs.extend(a + (b - a) * ts)
    xs.append(path[-1])
    return np.asarray(xs, dtype=complex)


def _y_at(curve, x_target, per_leg=400):
    """Sheet of y at x_target reached by continuation from the anchor."""
    path = _route(curve, curve.anchor, x_target)
    xs = _sample_polyline(path, per_leg)
    ys = _track_y(curve, xs, curve.anchor_y)
    return ys[-1]


def _ellipse(curve, cut, n):
    e1, e2 = cut
    m = (e1 + e2) / 2.0
    f = abs(e2 - e1) / 2.0
    rot = (e2 - e1) / abs(e2 - e1)
    others = [p for p in curve.branch_points if p not in cut]
    delta = 0.25 * min(abs(p - e) for p in others for e in cut)
    a = np.sqrt(f * f + delta * delta)
    theta = 2.0 * np.pi * (np.arange(n) + 0.5) / n
    xs = m + rot * (a * np.cos(theta) + 1j * delta * np.sin(theta))
    dxs = rot * (-a * np.sin(theta) + 1j * delta * np.cos(theta)) * (2.0 * np.pi / n)
    return xs, dxs


def _a_periods(curve, n):
    """Periods of x^(k-1) dx / y over the ellipse contours, all cuts."""
    g = curve.genus
    rows = []
    closures = []
    for cut in curve.cuts[:g]:
        xs, dxs = _ellipse(curve, cut, n)
        y0 = _y_at(curve, xs[0])
        ys = _track_y(curve, np.concatenate([xs, xs[:1]]), y0)
        closures.append(abs(ys[-1] - ys[0]) / max(abs(ys[0]), 1e-30))
        ys = ys[:-1]
        rows.append([np.sum(xs ** (k - 1) / ys * dxs) for k in range(1, g + 1)])
    if max(closures) > 1e-6:
        raise ArithmeticError("sheet tracking failed to close around a cut")
    return np.array(rows).T  # rows: differential index, cols: cycle


_GAUSS_CACHE = {}


def _gauss(n):
    if n not in _GAUSS_CACHE:
        _GAUSS_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GAUSS_CACHE[n]


def _segments_cross(a1, a2, b1, b2, eps=1e-12):
    """Proper intersection test for the open segments a1 a2 and b1 b2."""

    def orient(p, q, r):
        return ((q - p).conjugate() * (r - p)).imag

    d1 = orient(a1, a2, b1)
    d2 = orient(a1, a2, b2)
    d3 = orient(b1, b2, a1)
    d4 = orient(b1, b2, a2)
    scale = max(abs(a2 - a1) * abs(b2 - b1), eps)
    return (
        d1 * d2 < -eps * scale * scale and d3 * d4 < -eps * scale * scale
    )


def _b_path(curve, e1, e2, clearance):
    """Polyline from branch point e1 to e2 dodging branch points and cuts."""
    path = _route(curve, e1, e2, clearance=clearance)
    for _ in range(8):
        crossing = None
        for a, b in zip(path, path[1:]):
            for cut in curve.cuts:
                if e1 in cut or e2 in cut:
                    continue
                if _segments_cross(a, b, cut[0], cut[1]):
                    crossing = cut
                    break
            if crossing:
                break
        if crossing is None:
            break
        # detour around the cut endpoint nearest to the straight line
        c1, c2 = crossing
        end = min((c1, c2), key=lambda p: abs(p - (e1 + e2) / 2.0))
        other = c2 if end == c1 else c1
        out = (end - other) / abs(end - other)
        waypoint = end + out * 2.0 * clearance
        path = (
            _route(curve, e1, waypoint, clearance=clearance)
            + _route(curve, waypoint, e2, clearance=clearance)[1:]
        )
    if len(path) == 2:
        path = [path[0], (path[0] + path[1]) / 2.0, path[1]]
    return path


def _b_periods(curve, n):
    """Twice the branch-to-branch integrals linking cut i with cut g+1."""
    g = curve.genus
    last = curve.cuts[g]
    dists = [
        abs(a - b)
        for i, a in enumerate(curve.branch_points)
        for b in curve.branch_points[i + 1 :]
    ]
    clearance = 0.2 * min(dists)
    nodes, weights = _gauss(n)
    t01 = (nodes + 1.0) / 2.0  # Gauss nodes on [0, 1]
    w01 = weights / 2.0
    rows = []
    for cut in curve.cuts[:g]:
        e1, e2 = min(
            ((p, q) for p in cut for q in last), key=lambda pq: abs(pq[0] - pq[1])
        )
        path = _b_path(curve, e1, e2, clearance)
        xs_parts = []
        dx_parts = []
        w_parts = []
        for leg, (a, b) in enumerate(zip(path, path[1:])):
            if leg == 0:
                # square-root substitution x = e1 + (b - e1) t^2
                d = b - a
                xs_parts.append(a + d * t01 * t01)
                dx_parts.append(2.0 * d * t01)
            elif leg == len(path) - 2:
                d = a - b
                xs_parts.append(b + d * (1.0 - t01) ** 2)
                dx_parts.append(-2.0 * d * (1.0 - t01))
            else:
                d = b - a
                xs_parts.append(a + d * t01)
                dx_parts.append(np.full_like(t01, 1.0) * d)
            w_parts.append(w01)
        xs = np.concatenate(xs_parts)
        dxs = np.concatenate(dx_parts)
        ws = np.concatenate(w_parts)
        # anchor the sheet at the interior waypoint farthest from the branch
        # points, where y is well away from zero, and track both ways
        ref = path[1]
        j0 = int(np.argmin(np.abs(xs - ref)))
        y_ref = _y_at(curve, xs[j0])
        ys = np.empty(len(xs), dtype=complex)
        ys[j0:] = _track_y(curve, xs[j0:], y_ref)
        ys[: j0 + 1] = _track_y(curve, xs[: j0 + 1][::-1], y_ref)[::-1]
        integ = []
        for k in range(1, g + 1):
            vals = xs ** (k - 1) / ys * dxs
            integ.append(2.0 * np.sum(ws * vals))
        rows.append(integ)
    return np.array(rows).T


def period_matrix(curve, n0=128, tol=1e-9, max_refine=8):
    """Normalized period matrix tau and the raw period matrices (M_A, M_B).

    Refines the quadrature until tau moves by less than ``tol``; raises if
    the limit is not symmetric to 100 * tol or Im tau is indefinite.
    """
    prev = None
    n = n0
    for _ in range(max_refine):
        ma = _a_periods(curve, n)
        mb = _b_periods(curve, max(n, 64))
        tau = np.linalg.solve(ma, mb)
        if prev is not None and np.max(np.abs(tau - prev)) < tol:
            break
        prev = tau
        n *= 2
    else:
        raise ArithmeticError("period quadrature did not stabilize")
    # the routed cycles may differ from a canonical homology basis by
    # per-cycle orientation and by integer A-components picked up along the
    # way; normalize by a column sign vector plus an integer shear
    # MB -> MB + MA N (both are symplectic changes of basis), chosen to
    # make tau symmetric, then flip all B's if Im tau < 0
    g = curve.genus
    scale = max(1.0, float(np.max(np.abs(tau))))
    best = None
    from itertools import product as _product

    for signs in _product((1.0, -1.0), repeat=g):
        if signs[0] < 0:
            continue
        sv = np.asarray(signs)
        cand = tau * sv[None, :]
        shear = np.zeros((g, g))
        for i in range(g):
            for j in range(i):
                shear[i, j] = round(float((cand[j, i] - cand[i, j]).real))
        cand = cand + shear
        asym = float(np.max(np.abs(cand - cand.T)))
        if best is None or asym < best[0]:
            best = (asym, sv, shear)
    asym, sv, shear = best
    if asym > 100 * tol * scale:
        raise ArithmeticError("period matrix is not symmetric: %.3e" % asym)
    mb = mb * sv[None, :] + ma @ shear
    tau = tau * sv[None, :] + shear
    tau = (tau + tau.T) / 2.0
    eig = np.linalg.eigvalsh(tau.imag)
    if eig[-1] < 0:
        mb = -mb
        tau = -tau
        eig = np.linalg.eigvalsh(tau.imag)
    if eig[0] <= 0:
        raise ArithmeticError("Im tau is not positive definite")
    return tau, ma, mb


def abel_map(curve, point, ma=None, n=2000):
    """Abel image of a point (x, y) with respect to the anchor basepoint.

    ``ma`` is the raw A-period matrix from :func:`period_matrix` (computed
    on the fly when omitted); the result uses the normalized differentials,
    so it is defined modulo Z^g + tau Z^g.
    """
    if ma is None:
        _, ma, _ = period_matrix(curve)
    x_t, y_t = point
    g = curve.genus
    path = _route(curve, curve.anchor, x_t)
    xs = _sample_polyline(path, max(n // max(len(path) - 1, 1), 200))
    ys = _track_y(curve, xs, curve.anchor_y)
    if abs(ys[-1] - y_t) > abs(ys[-1] + y_t):
        # target lies on the other sheet: prepend a loop around one branch point
        b = curve.branch_points[0]
        loop = _loop_then_path(curve, b, x_t, n)
        xs, ys = loop
        if abs(ys[-1] - y_t) > 1e-6 * max(1.0, abs(y_t)):
            raise ArithmeticError("sheet continuation does not reach the point")
    raw = np.empty(g, dtype=complex)
    mid_x = 0.5 * (xs[1:] + xs[:-1])
    dx = xs[1:] - xs[:-1]
    mid_y = 0.5 * (ys[1:] + ys[:-1])
    for k in range(1, g + 1):
        vals = mid_x ** (k - 1) / mid_y
        raw[k - 1] = np.sum(vals * dx)
    return np.linalg.solve(ma, raw)


def _loop_then_path(curve, b, x_t, n):
    """Anchor -> near b -> full small circle around b -> target."""
    others = [p for p in curve.branch_points if p != b]
    r = 0.3 * min(abs(p - b) for p in others)
    start = b + r
    path1 = _route(curve, curve.anchor, start)
    xs1 = _sample_polyline(path1, max(n // 2, 200))
    theta = np.linspace(0.0, 2.0 * np.pi, max(n, 400), endpoint=False)
    circle = b + r * np.exp(1j * theta)
    path2 = _route(curve, start, x_t)
    xs2 = _sample_polyline(path2, max(n // 2, 200))
    xs = np.concatenate([xs1, circle, xs2])
    ys = _track_y(curve, xs, curve.anchor_y)
    return xs, ys


def riemann_constant(curve, tau=None, ma=None, n=4096):
    """Vector of Riemann constants for the anchor basepoint.

    K_k = (1 + tau_kk) / 2 - sum_{l != k} oint_{A_l} u_k du_l, with u the
    Abel map continued continuously along each A contour.  With this
    normalization theta(K + u(p)) vanishes for every point p of the curve.
    """
    if tau is None or ma is None:
        tau, ma, _ = period_matrix(curve)
    g = curve.genus
    c = np.linalg.inv(ma)  # du_k = sum_j c[k, j] x^(j) dx / y
    k_vec = np.array([(1.0 + tau[k, k]) / 2.0 for k in range(g)], dtype=complex)
    for l, cut in enumerate(curve.cuts[:g]):
        xs, dxs = _ellipse(curve, cut, n)
        y0 = _y_at(curve, xs[0])
        ys = _track_y(curve, np.concatenate([xs, xs[:1]]), y0)[:-1]
        basis = np.array([xs ** (k - 1) / ys for k in range(1, g + 1)])
        du = c @ (basis * dxs)  # du[k, t], already weighted by the step
        # reference the running Abel values at the contour point farthest
        # from the cut, where the route integral is most accurate
        j0 = n // 4
        u_ref = abel_map(curve, (xs[j0], ys[j0]), ma=ma)
        u_along = np.cumsum(du, axis=1) - du / 2.0
        u_along = u_along - u_along[:, j0][:, None] + u_ref[:, None]
        for k in range(g):
            if k != l:
                k_vec[k] -= np.sum(u_along[k] * du[l])
    return k_vec


def reduce_lattice(v, tau):
    """Reduce v modulo Z^g + tau Z^g to a representative near the origin."""
    v = np.asarray(v, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    m = np.round(np.linalg.solve(tau.imag, v.imag))
    v = v - tau @ m
    return v - np.round(v.real)


def bilinear_check(ma, mb):
    """Residual and positivity value of the bilinear relations.

    Returns ``(residual, pos)`` where residual is the largest
    |sum_i (A_ki B_li - B_ki A_li)| over differential pairs (k, l) and pos
    is the smallest eigenvalue of the positive-definite combination
    2i (M_A conj(M_B)^T - M_B conj(M_A)^T), which must be positive.
    """
    ma = np.asarray(ma)
    mb = np.asarray(mb)
    skew = ma @ mb.T - mb @ ma.T
    residual = float(np.max(np.abs(skew)))
    herm = 2j * (ma @ np.conj(mb.T) - mb @ np.conj(ma.T))
    herm = (herm + np.conj(herm.T)) / 2.0
    pos = float(np.linalg.eigvalsh(herm)[0])
    return residual, pos


# -- arithmetic-geometric mean oracle ---------------------------------------


def agm(a, b, tol=1e-15):
    a, b = float(a), float(b)
    while abs(a - b) > tol * abs(a):
        a, b = (a + b) / 2.0, np.sqrt(a * b)
    return a


def elliptic_K(k):
    """Complete elliptic integral K(k) (modulus convention) by the AGM."""
    if not 0 <= k < 1:
        raise ValueError("modulus must satisfy 0 <= k < 1")
    return np.pi / (2.0 * agm(1.0, np.sqrt(1.0 - k * k)))
