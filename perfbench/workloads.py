"""Seeded inputs for the four workloads.

A workload is a list of ops that makes one round; a run repeats the same
round until its time is up, so every run attempts whole rounds and the
share of failed ops is fixed.  The seed draws numbers only: evaluation
points, Siegel matrices, polynomial coefficients, divisors and the op order.
Which kinds of op a round holds, and how many of each, is fixed, so the cost
mix and the tail percentile do not move with the seed.

Each op is ``(kind, args)`` with plain-data args; nothing here imports rsurf.
"""

import json
from fractions import Fraction

import numpy as np

from oracles import char_point, theta_brute

WORKLOADS = ("jacobian", "kernels", "exact", "cli")

# op_tail_ms is this percentile of the op latencies; each is low enough that
# a run holds at least ten samples beyond it (README, "Tail percentile")
TAIL_PERCENTILE = {"jacobian": 75, "kernels": 91, "exact": 87, "cli": 75}

# Hyperelliptic curves y^2 = Q(x), ascending integer coefficients of Q.
# The README says why each one is there.  The integer curves come from a
# seeded sweep, kept where period_matrix succeeded in under 0.2 s.
CURVES = [
    ("x^4 - 1", [-1, 0, 0, 0, 1]),
    ("x(x-1)(x+1)(x+2)", [0, -2, -1, 2, 1]),
    ("(x^2-1)(x^2-4)", [4, 0, -5, 0, 1]),
    ("x(x-1)(x-2)(x-4)", [0, -8, 14, -7, 1]),
] + [
    ("g1 integer %d" % k, q)
    for k, q in enumerate([
        [2, 3, 2, 2, 1], [3, 4, -2, -3, 1], [-3, -4, 2, -1, 1], [4, -2, 3, 0, 1],
        [2, -5, 5, 3, 1], [-2, 4, -2, -1, 1], [2, -2, 0, 2, 1], [-4, -1, -2, -3, 1],
        [5, 1, 1, -2, 1], [5, 0, 5, -1, 1], [-3, -5, 1, -3, 1],
    ])
] + [
    ("x^6 - 1", [-1, 0, 0, 0, 0, 0, 1]),
] + [
    ("g2 integer %d" % k, q)
    for k, q in enumerate([
        [-5, -5, -2, -2, 4, -5, 1], [2, 0, 2, 4, -2, 3, 1], [-4, -1, 0, -2, 3, -1, 1],
        [1, 5, 2, 1, -2, -2, 1], [-5, 3, 0, -2, -2, 2, 1], [5, 4, 5, 3, -2, 1, 1],
        [0, 2, -3, 1, 2, 5, 1], [-5, 3, -2, -1, 2, 2, 1], [2, -1, -5, -3, 5, -4, 1],
        [-5, 1, -1, -5, -3, -2, 1], [-2, -4, 0, -3, -2, 5, 1], [-2, -1, -1, 0, 2, -2, 1],
        [0, -5, 4, -2, 1, 1, 1],
    ])
] + [
    ("g2 sheet fault", [-4, -1, 5, -4, -1, -1, 1]),
    ("x^8 - 1", [-1, 0, 0, 0, 0, 0, 0, 0, 1]),
] + [
    ("g3 integer %d" % k, q)
    for k, q in enumerate([
        [-4, -5, -5, 2, 2, -3, 5, 3, 1], [-5, -2, -3, 1, 4, 5, 4, -4, 1],
        [-5, -3, -2, 2, -1, -5, 4, 0, 1], [3, 3, 5, -5, 4, -4, 1, -3, 1],
        [-4, -2, 3, 5, -1, 3, -2, -5, 1], [-3, -1, 3, -3, -4, 5, 5, -3, 1],
        [-2, -3, 5, -4, 1, -5, -4, 0, 1], [-2, 3, -3, 5, 1, -5, 2, 3, 1],
        [-3, 4, -3, 5, 4, -4, -4, 2, 1], [-3, 0, 3, 3, 2, 3, 5, -4, 1],
        [-2, 0, 5, -1, 3, -3, 3, 5, 1], [1, -2, -5, -1, -3, -1, 3, -3, 1],
        [1, -4, -5, -5, -2, 2, 0, 1, 1],
    ])
] + [
    ("g3 sheet fault", [-3, 1, 3, -3, -2, 4, 1, 0, 1]),
    ("x^10 - 1", [-1] + [0] * 9 + [1]),
    ("x^12 - 1", [-1] + [0] * 11 + [1]),
]

# period_matrix raises on these every time (ROADMAP item 2); each such op
# is counted as failed and the run stays correct
KNOWN_PERIOD_FAULTS = {"g2 sheet fault", "x^8 - 1", "g3 sheet fault", "x^12 - 1"}

# cold volume signatures: the closed forms and two more cheap ones, then
# ten of 36 ms or more: many boundaries at g = 0, 1 and high genus at
# g = 3, 4, up to the complexity cap 12
VOLUME_SIGNATURES = [
    (0, 4), (1, 1), (0, 5), (2, 2), (3, 1),
    (0, 8), (1, 5), (1, 6), (2, 3), (2, 4), (3, 2), (3, 3), (4, 1), (4, 2), (4, 3),
]

# (y-degree of p, y-degree of q) of the seeded resultant pairs, each with
# x-degree 2: the five then cost the same, between the cheap and the costly
# volumes, and the tail percentile falls among them
RESULTANT_DEGREES = [(4, 3), (3, 4), (4, 3), (3, 4), (4, 3)]

# a point closer than this, relative to the sum of |terms|, to a zero of a
# theta value that an op divides by is redrawn
DIVISOR_MARGIN = 0.05

# eigenvalues of Im tau for the kernels workload; the seed draws the
# eigenvectors and Re tau.  rsurf's theta box grows as the smallest
# eigenvalue shrinks, so fixing the spectrum keeps the cost seed-independent.
IM_TAU_SPECTRA = {1: [(0.9,), (1.3,)], 2: [(1.0, 1.6)], 3: [(1.0, 1.4, 2.0)]}


def _genus(coeffs):
    return (len(coeffs) - 1) // 2 - 1


def _cpx(rng, re, im):
    return complex(rng.uniform(-re, re), rng.uniform(-im, im))


def _far_from_divisor(tau, args):
    """Every Theta(v | tau) for v in args is well away from zero."""
    for v in args:
        val, _, _, scale = theta_brute(np.atleast_1d(v), tau)
        if abs(val) < DIVISOR_MARGIN * scale:
            return False
    return True


def _draw(rng, tau, make, guards):
    """Draw args with ``make`` until every theta argument of ``guards`` is safe."""
    for _ in range(1000):
        args = make()
        if _far_from_divisor(tau, guards(args)):
            return args
    raise RuntimeError("could not draw a point away from the theta divisor")


def jacobian_round(rng):
    ops = []
    for name, coeffs in CURVES:
        g = _genus(coeffs)
        points = []
        if g in (1, 4):
            points = [[_cpx(rng, 0.5, 0.3) for _ in range(g)] for _ in range(4)]
        ops.append(("jacobian", {"name": name, "coeffs": coeffs, "genus": g, "points": points}))
    return ops


def siegel(rng, spectrum):
    """tau with Im tau = Q diag(spectrum) Q^T, Q and Re tau drawn from rng."""
    g = len(spectrum)
    q, _ = np.linalg.qr(rng.normal(size=(g, g)))
    a = rng.normal(size=(g, g))
    re = 0.15 * (a + a.T) if g > 1 else rng.uniform(-0.5, 0.5, size=(1, 1))
    return re + 1j * (q @ np.diag(spectrum) @ q.T)


def _genus_one_ops(rng, tau_m, n_wp):
    tau = complex(tau_m[0, 0])
    c = (1.0 + tau) / 2.0
    ops = []

    def pt():
        return _cpx(rng, 0.5, 0.3)

    for _ in range(12):
        u = _draw(rng, tau_m, pt, lambda u: [u])
        ops.append(("theta", {"tau": tau_m, "u": [u]}))
    for _ in range(6):
        up, uq = _draw(rng, tau_m, lambda: (pt(), pt()), lambda a: [a[0] - a[1] + c])
        ops.append(("bergman", {"tau": tau_m, "up": [up], "uq": [uq],
                                "dup": [1.0], "duq": [1.0], "shift": [c]}))
    for _ in range(4):
        z, w, zeta = _draw(
            rng, tau_m, lambda: (pt(), pt(), _cpx(rng, 0.2, 0.2)),
            lambda a: [a[0] - a[1] + c, a[2] + c, a[0] - a[1] + a[2] + c],
        )
        ops.append(("szego", {"tau": tau, "z": z, "w": w, "zeta": zeta}))
    for _ in range(4):
        z, q1, q2 = _draw(
            rng, tau_m, lambda: (pt(), pt(), pt()),
            lambda a: [a[0] - a[1] + c, a[0] - a[2] + c],
        )
        ops.append(("third_kind", {"tau": tau, "z": z, "q1": q1, "q2": q2}))
    for npairs in (2, 3):
        def fay_args():
            zeta = _cpx(rng, 0.2, 0.2)
            return zeta, [(pt(), pt()) for _ in range(npairs)]

        def fay_guards(args):
            # every theta value fay_check divides by, prime forms included
            zeta, pairs = args
            e0 = zeta + c
            vs = [e0 + sum(a - b for a, b in pairs[:k]) for k in range(npairs)]
            vs += [a - b + e0 for a, b in pairs]
            vs += [a - b + c for a, _ in pairs for _, b in pairs]
            vs += [a - ap + c for a, _ in pairs for ap, _ in pairs if a != ap]
            vs += [b - bp + c for _, b in pairs for _, bp in pairs if b != bp]
            return vs

        zeta, pairs = _draw(rng, tau_m, fay_args, fay_guards)
        ops.append(("fay", {"tau": tau, "zeta": zeta, "pairs": pairs}))
    for _ in range(n_wp):
        z = _draw(rng, tau_m, pt, lambda z: [z + c])
        ops.append(("weierstrass_p", {"tau": tau, "z": z}))
    return ops


def _higher_genus_ops(rng, tau, n_theta, n_bergman):
    g = tau.shape[0]
    odd = ((0,) * (g - 1) + (1,), (0,) * (g - 1) + (1,))
    shift = char_point(odd, tau)
    ops = []

    def vec():
        return [_cpx(rng, 0.5, 0.3) for _ in range(g)]

    for _ in range(n_theta):
        u = _draw(rng, tau, vec, lambda u: [np.asarray(u)])
        ops.append(("theta", {"tau": tau, "u": u}))
    for _ in range(n_bergman):
        up, uq = _draw(rng, tau, lambda: (vec(), vec()),
                       lambda a: [np.asarray(a[0]) - np.asarray(a[1]) + shift])
        dup = [complex(rng.normal(), rng.normal()) for _ in range(g)]
        duq = [complex(rng.normal(), rng.normal()) for _ in range(g)]
        ops.append(("bergman", {"tau": tau, "up": up, "uq": uq, "dup": dup,
                                "duq": duq, "shift": list(shift)}))
    return ops


def kernels_round(rng):
    ops = []
    # p costs more at Im tau 0.9 than at 1.3 (a bigger lattice disc); the
    # 8 + 24 split keeps the median inside the cheaper class
    for spectrum, n_wp in zip(IM_TAU_SPECTRA[1], (8, 24)):
        ops += _genus_one_ops(rng, siegel(rng, spectrum), n_wp)
    ops += _higher_genus_ops(rng, siegel(rng, IM_TAU_SPECTRA[2][0]), 12, 6)
    ops += _higher_genus_ops(rng, siegel(rng, IM_TAU_SPECTRA[3][0]), 12, 4)
    return ops


def _rational(rng, lo=-9, hi=9):
    return Fraction(int(rng.integers(lo, hi + 1)) or 1, int(rng.integers(1, 4)))


def _bivariate(rng, ydeg, xdeg=2):
    """Random p(x, y) of y-degree ydeg whose leading y-coefficient has x-degree xdeg."""
    poly = {(xdeg, ydeg): _rational(rng)}
    for j in range(ydeg):
        for i in range(xdeg + 1):
            if rng.random() < 0.5:
                poly[(i, j)] = _rational(rng)
    return poly


def _support(rng, npts, box=5):
    support = set()
    while len(support) < npts:
        support.add((int(rng.integers(0, box)), int(rng.integers(0, box))))
    return sorted(support)


def _plane_support(rng, npts, box=5):
    """A random support whose hull is two-dimensional (not on one line)."""
    while True:
        support = _support(rng, npts, box)
        (i1, j1), (i2, j2) = support[:2]
        if any((i2 - i1) * (j - j1) != (j2 - j1) * (i - i1) for i, j in support[2:]):
            return support


def _general_poly(rng, npts):
    """Rational coefficients on a random support with a two-dimensional hull."""
    return {pt: _rational(rng) for pt in _plane_support(rng, npts)}


def _hyperelliptic(rng, g):
    """y^2 - Q(x), Q monic of degree 2g + 2 with rational coefficients."""
    poly = {(0, 2): Fraction(1), (2 * g + 2, 0): Fraction(-1)}
    for k in range(2 * g + 2):
        poly[(k, 0)] = -_rational(rng, -5, 5)
    return poly


RR_POINTS = ["inf", Fraction(0), Fraction(1), Fraction(-2), Fraction(1, 2),
             Fraction(3), Fraction(-1), Fraction(-3, 4)]


def _divisor(rng, npts):
    picks = rng.choice(len(RR_POINTS), size=npts, replace=False)
    return [(RR_POINTS[int(k)], int(rng.integers(-3, 4)) or 1) for k in picks]


def exact_round(rng):
    """96 ops: 28 rr_genus0, 36 genus, 12 correction_polynomial, 15 volumes
    and 5 resultants.  The counts put the median in the middle of the genus
    counts, whose cost hardly varies with the seed, and the tail percentile
    among the resultants."""
    ops = [("volume", {"g": g, "n": n}) for g, n in VOLUME_SIGNATURES]
    for dp, dq in RESULTANT_DEGREES:
        ops.append(("resultant", {"p": _bivariate(rng, dp), "q": _bivariate(rng, dq)}))
    for npts in (3, 4, 5, 6, 3, 4, 5, 6):
        ops.append(("correction", {"poly": _general_poly(rng, npts), "hyperelliptic_genus": None}))
    for g in (1, 2, 3):
        ops.append(("correction", {"poly": _hyperelliptic(rng, g), "hyperelliptic_genus": g}))
    ops.append(("correction", {"poly": {(0, 1): Fraction(1), (1, 0): Fraction(-1)},
                               "hyperelliptic_genus": None}))
    for npts in (6, 7, 8) * 12:
        ops.append(("genus", {"support": _plane_support(rng, npts, box=8)}))
    for npts in (1, 2, 3, 4) * 7:
        ops.append(("rr_genus0", {"divisor": _divisor(rng, npts)}))
    return ops


def _poly_text(poly):
    return " + ".join("(%s)*x^%d*y^%d" % (c, i, j) for (i, j), c in sorted(poly.items()))


def _pair(v):
    return "%r,%r" % (v.real, v.imag)


# the genus-one curves the cli workload asks for periods, with Q's coefficients
PERIOD_QUARTICS = {
    "x^4 - 1": [-1, 0, 0, 0, 1],
    "x^4 + 2*x^3 - x^2 - 2*x": [0, -2, -1, 2, 1],
}


# (tau, z) of the two `torus wp` calls.  Fixed, unlike the other cli
# inputs: p is good to about 1e-6 here, and with only two draws a round the
# least accurate would decide cli's digits_min by chance.
CLI_WP_POINTS = [(0.1 + 1.1j, 0.23 + 0.17j), (-0.3 + 0.9j, 0.41 - 0.12j)]


def _cli_calls(rng, variant):
    """One call of every subcommand except selftest; ``variant`` 0 or 1
    picks the fixed inputs (curves, signatures, p points), the rng the rest."""
    tau_m = siegel(rng, IM_TAU_SPECTRA[1][variant % 2])
    tau = complex(tau_m[0, 0])
    u = _draw(rng, tau_m, lambda: _cpx(rng, 0.5, 0.3), lambda u: [u])
    wp_tau, wp_z = CLI_WP_POINTS[variant]
    far_tau = complex(rng.uniform(-3.0, 3.0), rng.uniform(0.05, 0.5))
    general = _general_poly(rng, 5)
    q_hyp = [int(rng.integers(-5, 6)) for _ in range(2 * variant + 4)] + [1]
    q_text = " + ".join("(%d)*x^%d" % (v, k) for k, v in enumerate(q_hyp))
    lengths = [round(float(rng.uniform(0.1, 5.0)), 3) for _ in range(3)]
    divisor = [{"point": str(p), "weight": w} for p, w in _divisor(rng, 3)]
    quartic = list(PERIOD_QUARTICS)[variant]
    small, big = [((0, 4), (0, 7)), ((0, 5), (1, 5))][variant]
    poly = _poly_text(general)
    # values go in as --flag=value: a value may start with "-"
    return [
        ("newton", ["newton", "--poly=" + poly]),
        ("genus", ["genus", "--poly=" + poly]),
        ("forms", ["forms", "--poly=" + poly, "--k=%d" % rng.integers(1, 3),
                   "--l=%d" % rng.integers(1, 3)]),
        ("fundform", ["fundform", "--poly=" + poly]),
        ("fundform", ["fundform", "--hyperelliptic=" + q_text]),
        ("theta", ["theta", "--tau=" + json.dumps([tau.real, tau.imag]),
                   "--u=" + json.dumps([u.real, u.imag])]),
        ("fay-check", ["fay-check", "--tau=" + _pair(tau), "--trials=3"]),
        ("torus", ["torus", "reduce", "--tau=" + _pair(far_tau)]),
        ("torus", ["torus", "wp", "--tau=" + _pair(wp_tau), "--z=" + _pair(wp_z)]),
        ("periods", ["periods", "--q=" + quartic]),
        ("rr", ["rr", "--genus=0", "--divisor=" + json.dumps(divisor)]),
        ("wp", ["wp", "--g=%d" % small[0], "--n=%d" % small[1]]),
        ("wp", ["wp", "--g=%d" % big[0], "--n=%d" % big[1]]),
        ("strebel", ["strebel", "--L=" + ",".join(str(v) for v in lengths)]),
    ]


def cli_round(rng):
    """Two calls of every subcommand except selftest, 28 ops."""
    ops = [("cli", {"schema": schema, "argv": argv})
           for variant in range(2) for schema, argv in _cli_calls(rng, variant)]
    return ops


# kernels and exact draw fresh values for each round, up to this many
# rounds, so no round repeats an input an earlier round evaluated; the
# inputs that do repeat (curves, volume signatures) run in forked children
FRESH_ROUNDS = {"kernels": 80, "exact": 12}

ROUNDS = {"kernels": 60}

ROUNDS = {
    "jacobian": jacobian_round,
    "kernels": kernels_round,
    "exact": exact_round,
    "cli": cli_round,
}


def make_round(workload, seed, rnd=0):
    """The op list of round ``rnd`` of ``workload`` for ``seed``.

    kernels and exact draw new values for each round (FRESH_ROUNDS); the op
    order is drawn once per seed, so slot i holds the same kind of op, at
    the same genus, in every round.
    """
    fresh = rnd if workload in FRESH_ROUNDS else 0
    wid = WORKLOADS.index(workload)
    ops = ROUNDS[workload](np.random.default_rng([seed, wid, fresh]))
    order = np.random.default_rng([seed, wid]).permutation(len(ops))
    return [ops[i] for i in order]
