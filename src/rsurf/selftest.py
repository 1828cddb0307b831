"""Acceptance checks shared by the command line driver and the test suite.

Each criterion function returns (ok, detail).  :func:`run_all` executes
the lot and prints one pass/fail line per criterion.
"""

import time
from fractions import Fraction

import numpy as np

from . import algebra, divisors, fundform, newton, periods, strebel, theta, torus, wpvol


def _pi_poly(table):
    return wpvol.PiPoly({k: Fraction(v) for k, v in table.items()})


def criterion_1_volumes():
    """Closed-form volumes at the three smallest stable signatures."""
    v03 = wpvol.volume(0, 3)
    ok = v03.terms == {(0, 0, 0): _pi_poly({0: 1})}
    v11 = wpvol.volume(1, 1)
    want11 = {(0,): _pi_poly({1: Fraction(1, 12)}), (1,): _pi_poly({0: Fraction(1, 48)})}
    ok = ok and v11.terms == want11
    v04 = wpvol.volume(0, 4)
    want04 = {(0, 0, 0, 0): _pi_poly({1: 2})}
    for i in range(4):
        key = tuple(1 if j == i else 0 for j in range(4))
        want04[key] = _pi_poly({0: Fraction(1, 2)})
    ok = ok and v04.terms == want04
    return ok, "V(0,3), V(1,1), V(0,4) exact"


def criterion_2_laplace():
    """Exact Laplace-transformed volumes for the base cases."""
    w03 = wpvol.w_laurent(0, 3)
    ok = w03.terms == {(1, 1, 1): _pi_poly({0: 1})}
    w11 = wpvol.w_laurent(1, 1)
    want11 = {(1,): _pi_poly({1: Fraction(1, 12)}), (2,): _pi_poly({0: Fraction(1, 8)})}
    ok = ok and w11.terms == want11
    w04 = wpvol.w_laurent(0, 4)
    want04 = {(1, 1, 1, 1): _pi_poly({1: 2})}
    for i in range(4):
        key = tuple(2 if j == i else 1 for j in range(4))
        want04[key] = _pi_poly({0: 3})
    ok = ok and w04.terms == want04
    return ok, "W(0,3), W(1,1), W(0,4) exact"


def criterion_3_structural():
    """Symmetry, homogeneity and positivity up to complexity six."""
    checked = []
    for g in range(0, 3):
        for n in range(1, 10):
            d = wpvol.dim_complexity(g, n)
            if d < 0 or d > 6 or 2 * g - 2 + n <= 0:
                continue
            vol = wpvol.volume(g, n)
            if not wpvol.check_symmetry(vol):
                return False, "V(%d,%d) not symmetric" % (g, n)
            for m, pp in vol.terms.items():
                for k, c in pp.coeffs.items():
                    if sum(m) + k != d:
                        return False, "V(%d,%d) not homogeneous" % (g, n)
                    if c <= 0:
                        return False, "V(%d,%d) has a non-positive coefficient" % (g, n)
            checked.append((g, n))
    return True, "%d signatures checked" % len(checked)


def criterion_4_newton():
    """Genus counts and 1-form classification from the exponent hull."""
    for deg in (4, 6, 8, 10):
        coeffs = {(0, 2): Fraction(1), (0, 0): Fraction(-2)}
        for i in range(deg + 1):
            coeffs[(i, 0)] = Fraction(-1, i + 1)
        g = newton.genus(algebra.BivariatePoly(coeffs))
        if g != deg // 2 - 1:
            return False, "genus failed at degree %d" % deg
    if newton.genus(algebra.parse_poly("y^2 - x^2 + 4")) != 0:
        return False, "conic genus"
    poly = algebra.parse_poly("y^2 - x^6 + 1")
    kinds = {}
    for k, l in ((1, 1), (3, 1), (4, 1)):
        kinds[(k, l)] = newton.classify_form(poly, k, l)
    ok = (
        kinds[(1, 1)].kind == "first"
        and kinds[(3, 1)].kind == "third"
        and kinds[(4, 1)].kind == "second"
        and max(kinds[(4, 1)].pole_orders) == 2
    )
    return ok, "hull genus and form classification exact"


def _random_siegel(rng, g):
    a = rng.normal(size=(g, g))
    re = 0.5 * (a + a.T) * 0.3
    b = rng.normal(size=(g, g)) * 0.4
    im = b @ b.T + np.eye(g)
    return re + 1j * im


def criterion_5_theta():
    """Quasi-periodicity, parity and odd-characteristic vanishing."""
    rng = np.random.default_rng(5)
    worst_q = worst_p = worst_o = 0.0
    for trial in range(100):
        g = int(rng.integers(1, 4))
        tau = _random_siegel(rng, g)
        u = rng.normal(size=g) * 0.7 + 1j * rng.normal(size=g) * 0.3
        m = rng.integers(-2, 3, size=g).astype(float)
        mp = rng.integers(-2, 3, size=g).astype(float)
        worst_q = max(worst_q, theta.theta_quasi_residual(u, tau, m, mp))
        scale = max(abs(theta.theta(u, tau)), 1.0)
        worst_p = max(worst_p, abs(theta.theta(u, tau) - theta.theta(-u, tau)) / scale)
        for char in theta.odd_characteristics(g):
            pt = theta.char_point(char, tau)
            worst_o = max(worst_o, abs(theta.theta(pt, tau)))
    ok = worst_q < 1e-9 and worst_p < 1e-10 and worst_o < 1e-9
    return ok, "quasi %.1e parity %.1e odd %.1e" % (worst_q, worst_p, worst_o)


def criterion_6_periods():
    """Hyperelliptic period matrices against elliptic-integral oracles."""
    curve = periods.build_curve([-1, 0, 0, 0, 1])
    tau1, _, _ = periods.period_matrix(curve)
    d_lemni = abs(complex(tau1[0, 0]) - 1j)
    if d_lemni > 1e-7:
        return False, "tau(x^4 - 1) off by %.2e" % d_lemni

    # Legendre-form curve with cross-ratio 1/4: compare against i K'/K in
    # the modular fundamental domain
    curve2 = periods.build_curve([0, -2, -1, 2, 1])
    tau2, _, _ = periods.period_matrix(curve2)
    t0, _ = torus.reduce_modular(complex(tau2[0, 0]))
    k = 0.5
    target = 1j * periods.elliptic_K(np.sqrt(1 - k * k)) / periods.elliptic_K(k)
    t1, _ = torus.reduce_modular(target)
    d_leg = abs(t0 - t1)
    if d_leg > 1e-7:
        return False, "Legendre tau off by %.2e" % d_leg

    curve3 = periods.build_curve([-1, 0, 0, 0, 0, 0, 1])
    tau3, ma, mb = periods.period_matrix(curve3)
    asym = float(np.max(np.abs(tau3 - tau3.T)))
    mineig = float(np.linalg.eigvalsh(tau3.imag)[0])
    res, pos = periods.bilinear_check(ma, mb)
    ok = asym < 1e-8 and mineig > 0 and res < 1e-8 and pos > 0
    return ok, "lemniscatic %.1e legendre %.1e asym %.1e bilinear %.1e pos %.2f" % (
        d_lemni,
        d_leg,
        asym,
        res,
        pos,
    )


def _kernel_cycle_integrals(tau, n=256):
    w = 0.123 + 0.071j
    ts = (np.arange(n) + 0.5) / n
    za = 0.41 * tau + ts
    a_val = np.sum([theta.bergman_theta(tau, z, w, 1.0, 1.0) for z in za]) / n
    zb = 0.37 + ts * tau
    b_val = np.sum([theta.bergman_theta(tau, z, w, 1.0, 1.0) for z in zb]) * tau / n
    return abs(a_val), abs(b_val - 2j * np.pi)


def _third_kind_residues(tau, n=400):
    q1, q2 = 0.31 + 0.17j, -0.22 + 0.09j
    out = []
    for q, want in ((q1, 1.0), (q2, -1.0)):
        r = 0.05
        ts = 2 * np.pi * (np.arange(n) + 0.5) / n
        zs = q + r * np.exp(1j * ts)
        vals = [theta.third_kind_form_g1(z, q1, q2, tau) for z in zs]
        res = np.sum(np.array(vals) * r * np.exp(1j * ts)) / n
        out.append(abs(res - want))
    return max(out)


def criterion_7_kernels():
    """Genus-one kernel suite: cycle normalization, residues, Fay, Hirota."""
    rng = np.random.default_rng(7)
    detail = []
    for tau in (1j, 2j):
        a_res, b_res = _kernel_cycle_integrals(tau)
        if a_res > 1e-8 or b_res > 1e-8:
            return False, "cycle integrals off: %.1e %.1e" % (a_res, b_res)
        r_res = _third_kind_residues(tau)
        if r_res > 1e-6:
            return False, "third-kind residue off: %.1e" % r_res
        worst_fay = 0.0
        for trial in range(50):
            zeta = rng.normal() * 0.2 + 1j * rng.normal() * 0.1 + 0.11j
            npairs = int(rng.integers(2, 4))
            pts = rng.normal(size=2 * npairs) + 1j * rng.normal(size=2 * npairs) * 0.2
            pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range(npairs)]
            try:
                worst_fay = max(worst_fay, theta.fay_check(tau, zeta, pairs))
            except theta.ThetaDivisorError:
                continue
        if worst_fay > 1e-9:
            return False, "Fay residual %.1e" % worst_fay
        hirota = [
            theta.hirota_check(tau, 0.13 + 0.07j, 0.5 + 0.1j, -0.4 + 0.2j, 0.1 - 0.3j, h)
            for h in (0.1, 0.05, 0.025)
        ]
        if not (hirota[1] < 0.75 * hirota[0] and hirota[2] < 0.75 * hirota[1]):
            return False, "Hirota decay not first order: %r" % (hirota,)
        detail.append("tau=%s fay %.1e" % (tau, worst_fay))
    return True, "; ".join(detail)


def criterion_8_fundform():
    """Correction-polynomial symmetry and kernel identities."""
    rng = np.random.default_rng(8)
    for trial in range(20):
        npts = int(rng.integers(3, 7))
        support = set()
        while len(support) < npts:
            support.add((int(rng.integers(0, 5)), int(rng.integers(0, 5))))
        coeffs = {
            pt: Fraction(int(rng.integers(-9, 10)) or 1, int(rng.integers(1, 5)))
            for pt in support
        }
        q4 = fundform.correction_polynomial(coeffs)
        if not q4.is_swap_symmetric():
            return False, "asymmetric correction for support %r" % (sorted(support),)

    line = algebra.parse_poly("y - x")
    q4l = fundform.correction_polynomial(line)
    x, xp = 1.3 + 0.2j, -0.7 + 1.1j
    val = fundform.general_B0(line, q4l, (x, x), (xp, xp))
    if q4l.terms or abs(val - 1.0 / (x - xp) ** 2) > 1e-14:
        return False, "y - x kernel is not 1/(x - x')^2"

    # y^2 = x^6 - 1: the two kernels differ by T / (4 y y') with
    # T = -((U(x) - U(x'))/(x - x'))^2 - Q4; T must live on interior
    # monomials, here the span of {1, x} x {1, x'}
    sextic = algebra.parse_poly("y^2 - x^6 + 1")
    q4s = fundform.correction_polynomial(sextic)
    t = {}
    for (a, c), w in {(4, 0): 1, (3, 1): 2, (2, 2): 3, (1, 3): 2, (0, 4): 1}.items():
        t[(a, 0, c, 0)] = Fraction(-w)
    for key, coef in q4s.terms.items():
        t[key] = t.get(key, Fraction(0)) - coef
    for (a, b, c, d), coef in t.items():
        if coef != 0 and not (a <= 1 and b == 0 and c <= 1 and d == 0):
            return False, "non-interior monomial %r survives" % ((a, b, c, d),)
    return True, "20 supports symmetric; both kernel identities exact"


def criterion_9_riemann_roch():
    """Dimension formulas against brute force and the elliptic oracle."""
    import random as _random

    rng = _random.Random(9)
    points = [divisors.INFINITY, 0, 1, -2, Fraction(1, 2), 3, -1, Fraction(-3, 4)]
    for trial in range(200):
        pts = rng.sample(points, rng.randint(0, 4))
        div = divisors.Divisor([(p, rng.randint(-3, 3)) for p in pts])
        if divisors.degree(div) > 6 or divisors.degree(div) < -6:
            continue
        got = divisors.rr_genus0(div).r_minus_D
        want = divisors.dim_l_genus0_bruteforce(div)
        if got != want:
            return False, "genus-0 mismatch on %r" % (div,)

    tau = 0.21 + 1.37j
    a = 0.23 + 0.11j
    b = 0.52 - 0.18j
    abel = {"a": a, "-a": -a, "0": 0j, "b": b, "p": a}
    fam1 = divisors.Divisor([("a", 1), ("-a", 1), ("0", -2)])
    r1 = divisors.rr_genus1(fam1, tau, abel)
    # oracle: wp(z) - wp(a) realizes the section, so it vanishes at -a
    f = torus.weierstrass_p(-a, tau) - torus.weierstrass_p(a, tau)
    if r1.r_minus_D != 1 or abs(f) > 1e-8:
        return False, "wp-difference family failed"
    if not divisors.is_principal(fam1, tau, abel):
        return False, "wp-difference divisor not detected as principal"
    fam2 = divisors.Divisor([("a", 1), ("b", -1)])
    if divisors.rr_genus1(fam2, tau, abel).r_minus_D != 0:
        return False, "generic degree-zero family failed"
    fam3 = divisors.Divisor([("p", 1)])
    if divisors.rr_genus1(fam3, tau, abel).r_minus_D != 1:
        return False, "single-pole family failed"
    # wp' has zeros at the half periods and a triple pole at the origin
    half = [0.5, tau / 2, (1 + tau) / 2]
    if max(abs(torus.weierstrass_p_prime(h, tau)) for h in half) > 1e-6:
        return False, "wp' half-period zeros failed"
    abel_h = {"h1": 0.5 + 0j, "h2": tau / 2, "h3": (1 + tau) / 2, "0": 0j}
    famp = divisors.Divisor([("h1", 1), ("h2", 1), ("h3", 1), ("0", -3)])
    if not divisors.is_principal(famp, tau, abel_h):
        return False, "wp' divisor not principal"
    return True, "200 genus-0 divisors; three elliptic families plus wp'"


def criterion_10_strebel():
    """Pants classification partition and exact quadratic differentials."""
    import random as _random

    rng = _random.Random(10)
    for trial in range(10000):
        l0, l1, li = (rng.uniform(0.01, 5.0) for _ in range(3))
        fired = [li > l0 + l1, l1 > l0 + li, l0 > l1 + li]
        fired.append(not any(fired))
        if sum(fired) != 1:
            return False, "partition fired %d times" % sum(fired)
        got = strebel.classify_pants(l0, l1, li)
        want = 1 if fired[3] else (2 if fired[0] else (3 if fired[1] else 4))
        if got.graph != want:
            return False, "classification disagrees at %r" % ((l0, l1, li),)
    g = strebel.classify_pants(2, 3, 4)
    if g.graph != 1 or g.lengths != (Fraction(3, 2), Fraction(1, 2), Fraction(5, 2)):
        return False, "lengths of (2, 3, 4) wrong: %r" % (g.lengths,)
    qd = strebel.quad_diff(0, 3, (2, 3, 4))
    leading = [qd.leading_at(p) for p in (0, 1, "inf")]
    if leading != [Fraction(-4), Fraction(-9), Fraction(-16)]:
        return False, "leading coefficients wrong: %r" % (leading,)
    return True, "10^4 triples partitioned; (2,3,4) exact"


CRITERIA = [
    ("volumes closed form", criterion_1_volumes, 1.0),
    ("Laplace forms", criterion_2_laplace, 1.0),
    ("volume structure", criterion_3_structural, 60.0),
    ("polygon genus and forms", criterion_4_newton, 1.0),
    ("theta identities", criterion_5_theta, 30.0),
    ("period matrices", criterion_6_periods, 60.0),
    ("genus-one kernels", criterion_7_kernels, 120.0),
    ("bidifferential algebra", criterion_8_fundform, 30.0),
    ("Riemann-Roch", criterion_9_riemann_roch, 30.0),
    ("pants and quadratic differentials", criterion_10_strebel, 5.0),
]


def run_all(out=None):
    """Run every criterion; returns True iff all pass within budget."""
    import sys

    out = out or sys.stdout
    all_ok = True
    for idx, (name, fn, budget) in enumerate(CRITERIA, start=1):
        t0 = time.perf_counter()
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - reported as a failure line
            ok, detail = False, "raised %s: %s" % (type(exc).__name__, exc)
        dt = time.perf_counter() - t0
        if dt > budget:
            ok = False
            detail += " [over budget %.0fs]" % budget
        all_ok = all_ok and ok
        print(
            "criterion %2d %-34s %s (%.2fs) %s"
            % (idx, name, "PASS" if ok else "FAIL", dt, detail),
            file=out,
        )
    return all_ok
