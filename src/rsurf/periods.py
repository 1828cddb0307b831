"""Period matrices, Abel map and Riemann constant of hyperelliptic curves.

The curve is y^2 = Q(x), where Q has even degree 2g + 2 >= 4 and distinct
roots, the branch points.  Following Molin and Neurohr ("Computing period
matrices and the Abel-Jacobi map of superelliptic curves", Math. Comp.
2019), everything is read from one spanning tree of the branch points:

* the tree is Prim's maximal spanning tree for the Bernstein-ellipse
  parameter rho of each straight edge (how far the other branch points lie
  from it), rooted at branch point 0;
* the cycle of an edge a -> b runs from a to b on one sheet and back on the
  other; its periods of x^k dx / y (k < g) come from Gauss-Chebyshev
  quadrature with a node count fixed up front by rho;
* two edge cycles meet only at a shared branch point, where the sign of
  their intersection is read off from the directions of y there;
* an integer symplectic reduction of that intersection matrix gives the A
  and B cycles, and tau = M_A^-1 M_B.

The Abel map is based at the root.  A branch point maps to half the sum of
the edge periods on its tree path; any other point is reached by one
straight segment from the branch point best placed for quadrature.  The
vector of Riemann constants is the half period read off from the
quadratic form that the tree cycles carry.  Abel images are not reduced
modulo the lattice; :func:`rsurf.theta.reduce_lattice` does that.
"""

from __future__ import annotations

from dataclasses import dataclass

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

# largest quadrature node count; a branch point closer to a segment than
# this allows raises, and leggauss at the cap takes about 0.1 s
_MAX_NODES = 1000


@dataclass
class HyperellipticCurve:
    coeffs: tuple  # Q coefficients, ascending
    branch_points: tuple
    genus: int
    edges: tuple  # spanning-tree edges (i, j) into branch_points, parent first
    edge_periods: np.ndarray  # [k, e]: period of x^k dx / y over edge cycle e
    intersections: np.ndarray  # intersection numbers of the edge cycles
    a_cycles: np.ndarray  # [i, e]: integer coefficients of A_i in edge cycles
    b_cycles: np.ndarray

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
    genus = deg // 2 - 1
    edges, rhos = _tree(pts)
    for k, (a, b) in enumerate(edges):
        for c, d in edges[k + 1 :]:
            if not {a, b} & {c, d} and _segments_cross(pts[a], pts[b], pts[c], pts[d]):
                raise ArithmeticError("spanning-tree edges cross")
    lead = coeffs[deg]
    periods, ends = zip(
        *(_edge_period(lead, pts, a, b, rho, genus) for (a, b), rho in zip(edges, rhos))
    )
    inter = _intersections(edges, ends)
    a_cycles, b_cycles = _symplectic_basis(inter, genus)
    return HyperellipticCurve(
        coeffs[: deg + 1], tuple(pts), genus, tuple(edges),
        np.array(periods).T, inter, a_cycles, b_cycles,
    )


def _rho(z):
    """Bernstein-ellipse parameter of z with respect to [-1, 1]."""
    s = np.sqrt(z * z - 1.0)
    return np.maximum(np.abs(z + s), np.abs(z - s))


def _node_count(rho):
    """Nodes for 16 digits when the integrand is analytic inside ellipse rho."""
    n = np.log(1e16) / (2.0 * np.log(rho)) + 8 if rho > 1.0 else np.inf
    if n > _MAX_NODES:
        raise ArithmeticError(
            "a branch point lies too close to a segment (rho - 1 = %.1e)" % (rho - 1.0)
        )
    return int(np.ceil(n))


def _tree(pts):
    """Prim's maximal spanning tree for the weight rho(a, b), rooted at 0."""
    p = np.asarray(pts)
    m = len(p)
    a, b, e = p[:, None, None], p[None, :, None], p[None, None, :]
    i, j, k = np.ogrid[:m, :m, :m]
    with np.errstate(divide="ignore", invalid="ignore"):
        rho = np.where((k == i) | (k == j), np.inf, _rho((2 * e - a - b) / (b - a)))
    weight = rho.min(axis=2)
    inside, edges, rhos = [0], [], []
    while len(inside) < m:
        edge = max(
            ((s, t) for s in inside for t in range(m) if t not in inside),
            key=lambda st: weight[st],
        )
        edges.append(edge)
        rhos.append(weight[edge])
        inside.append(edge[1])
    return edges, rhos


def _edge_period(lead, pts, a, b, rho, g):
    """Periods of x^k dx / y over the cycle of edge a -> b, and y's directions.

    With x = mid + h t, y = C sqrt(1 - t^2) G(t) on the sheet the cycle
    leaves a on.  Returns the periods and (C G(-1), C G(1)).
    """
    ea, eb = pts[a], pts[b]
    h, mid = (eb - ea) / 2.0, (ea + eb) / 2.0
    others = np.array([p for k, p in enumerate(pts) if k not in (a, b)])
    u = (others - mid) / h
    c = np.sqrt(-lead * h * h * np.prod(mid - others))
    n = _node_count(rho)
    t = np.cos((2.0 * np.arange(1, n + 1) - 1.0) * np.pi / (2.0 * n))
    gt = np.prod(np.sqrt(1.0 - t[:, None] / u[None, :]), axis=1)
    x = mid + h * t
    powers = x[None, :] ** np.arange(g)[:, None]
    period = 2.0 * h / c * (np.pi / n) * np.sum(powers / gt, axis=1)
    ends = [c * np.prod(np.sqrt(1.0 - s / u)) for s in (-1.0, 1.0)]
    return period, ends


def _intersections(edges, ends):
    """Intersection matrix of the edge cycles.

    Cycles of edges sharing a branch point v cross there.  y is a local
    coordinate at v, and each cycle passes through y = 0 along the direction
    C G(-1) if v is its start, -C G(1) if v is its end.
    """
    m = len(edges)
    inter = np.zeros((m, m), dtype=np.int64)
    for e in range(m):
        for f in range(e + 1, m):
            shared = set(edges[e]) & set(edges[f])
            if shared:
                v = shared.pop()
                de, df = (
                    ends[k][0] if edges[k][0] == v else -ends[k][1] for k in (e, f)
                )
                inter[e, f] = np.sign((np.conj(de) * df).imag)
                inter[f, e] = -inter[e, f]
    return inter


def _bezout(ns):
    """Integers c with sum c_i n_i = gcd(ns) >= 0, and that gcd."""
    d, coef = 0, [0] * len(ns)
    for i, n in enumerate(ns):
        r0, r1, x0, x1, y0, y1 = d, n, 1, 0, 0, 1
        while r1:
            q = r0 // r1
            r0, r1, x0, x1, y0, y1 = r1, r0 - q * r1, x1, x0 - q * x1, y1, y0 - q * y1
        if r0 < 0:
            r0, x0, y0 = -r0, -x0, -y0
        coef = [x0 * c for c in coef]
        coef[i] = y0
        d = r0
    return coef, d


def _symplectic_basis(inter, g):
    """Integer A and B cycles with A_i . B_j = delta_ij, A . A = B . B = 0."""
    vecs = list(np.eye(len(inter), dtype=np.int64))
    a_cycles, b_cycles = [], []
    for _ in range(g):
        for i, a in enumerate(vecs):
            rest = vecs[:i] + vecs[i + 1 :]
            coef, d = _bezout([int(a @ inter @ v) for v in rest])
            if d == 1:
                break
        else:
            raise ArithmeticError("edge cycles hold no unimodular pair")
        b = sum(c * v for c, v in zip(coef, rest))
        vecs = [v - (v @ inter @ b) * a + (v @ inter @ a) * b for v in rest]
        a_cycles.append(a)
        b_cycles.append(b)
    return np.array(a_cycles), np.array(b_cycles)


def _segments_cross(a1, a2, b1, b2, eps=1e-12):
    """Proper intersection test for the open segments a1 a2 and b1 b2."""

    def orient(p, q, r):
        return ((q - p).conjugate() * (r - p)).imag

    tol = -eps * max(abs(a2 - a1) * abs(b2 - b1), eps) ** 2
    return (
        orient(a1, a2, b1) * orient(a1, a2, b2) < tol
        and orient(b1, b2, a1) * orient(b1, b2, a2) < tol
    )


def period_matrix(curve):
    """Normalized period matrix tau and the raw period matrices (M_A, M_B).

    Rows of M_A and M_B index the differentials x^k dx / y, columns the
    cycles.  Raises if tau is not symmetric to 1e-10 of its size before it
    is symmetrized, or if Im tau is not positive definite.
    """
    ma = curve.edge_periods @ curve.a_cycles.T
    mb = curve.edge_periods @ curve.b_cycles.T
    tau = np.linalg.solve(ma, mb)
    asym = float(np.max(np.abs(tau - tau.T)))
    if not asym <= 1e-10 * max(1.0, float(np.max(np.abs(tau)))):
        raise ArithmeticError("period matrix is not symmetric: %.3e" % asym)
    tau = (tau + tau.T) / 2.0
    if not np.linalg.eigvalsh(tau.imag)[0] > 0:
        raise ArithmeticError("Im tau is not positive definite")
    return tau, ma, mb


def abel_map(curve, point):
    """Abel image of the point (x, y), based at branch point 0.

    The result uses the normalized differentials, so it is defined modulo
    Z^g + tau Z^g.  The point is reached from the branch point e for which
    the segment [e, x] lies farthest from the other branch points, by
    Gauss-Legendre quadrature in w with x = e + (x - e) w^2; y picks the
    sheet at the end of that segment.
    """
    x, y = complex(point[0]), complex(point[1])
    g = curve.genus
    _, ma, _ = period_matrix(curve)
    pts = np.asarray(curve.branch_points)
    half = {0: np.zeros(g, dtype=complex)}
    for k, (i, j) in enumerate(curve.edges):
        half[j] = half[i] + curve.edge_periods[:, k] / 2.0
    if x in curve.branch_points:
        return np.linalg.solve(ma, half[curve.branch_points.index(x)])
    # the integrand in w is singular at +-sqrt(v_k)
    v = (pts[None, :] - pts[:, None]) / (x - pts[:, None])
    rho = _rho(np.sqrt(v))
    np.fill_diagonal(rho, np.inf)
    j = int(np.argmax(rho.min(axis=1)))
    e, vk = pts[j], np.delete(v[j], j)
    w, weights = np.polynomial.legendre.leggauss(_node_count(rho[j].min()))
    c = np.sqrt(curve.coeffs[-1] * (x - e) * np.prod(e - np.delete(pts, j)))
    end = c * np.prod(np.sqrt(1.0 - 1.0 / vk))  # y at w = 1 on the sheet of c
    if abs(y + end) < abs(y - end):
        c = -c
    f = c * np.prod(np.sqrt(1.0 - w[:, None] ** 2 / vk[None, :]), axis=1)
    xs = e + (x - e) * w * w
    raw = (x - e) * np.sum(weights * xs[None, :] ** np.arange(g)[:, None] / f, axis=1)
    return np.linalg.solve(ma, half[j] + raw)


def riemann_constant(curve):
    """Vector of Riemann constants for the base point of :func:`abel_map`.

    theta(K + u(D)) vanishes for every effective divisor D of degree g - 1.
    K is the half period (q(B) + tau q(A)) / 2 of the quadratic form q on
    H_1(Z/2) with q(edge cycle) = g mod 2 at the root and 1 elsewhere,
    q(c + d) = q(c) + q(d) + c . d.
    """
    tau, _, _ = period_matrix(curve)
    q_edge = np.array([curve.genus % 2 if 0 in edge else 1 for edge in curve.edges])
    upper = np.triu(curve.intersections, 1)

    def q(c):
        return (c @ q_edge + c @ upper @ c) % 2

    qa = np.array([q(a) for a in curve.a_cycles])
    qb = np.array([q(b) for b in curve.b_cycles])
    return 0.5 * (qb + tau @ qa)


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
