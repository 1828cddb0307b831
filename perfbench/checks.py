"""Output checks: each op's result against an oracle or a required property.

A check returns a :class:`Verdict`.  ``digits`` is the smallest
-log10(relative error) over the floating-point values of the op, capped at
:data:`DIGITS_CAP`; ops compared exactly report None.  The tolerances below
are acceptance limits, set well above today's errors (quoted beside each)
and well below the perturbations the tests in ``tests/`` must catch.
"""

import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import oracles
from workloads import KNOWN_PERIOD_FAULTS, PERIOD_QUARTICS

DIGITS_CAP = 16.0

# |theta - oracle| / sum |terms|; today <= 1e-15
THETA_TOL = 1e-11
# genus one: SL(2, Z)-reduced distance to the cross-ratio modulus; today <= 2e-10
TAU_G1_TOL = 1e-8
# genus >= 2: |tau - M_A^-1 M_B|, asymmetry and the relative bilinear
# residual; today <= 1e-11
TAU_TOL = 1e-8
# an even theta constant below this share of its sum |terms| counts as zero;
# today's zeros sit near 1e-12 and the smallest non-zero one near 0.17
VANISH_TOL = 1e-6
# kernel values, relative to max(|oracle|, 1); today <= 1e-12
KERNEL_TOL = 1e-9
# Fay residual, the tolerance the method states
FAY_TOL = 1e-9
# Weierstrass p by lattice sums reaches about 1e-6 today
WP_TOL = 1e-4


@dataclass
class Verdict:
    ok: bool
    digits: float = None
    why: str = ""
    bound_miss: bool = None  # theta ops only: error above the returned bound


def digits_of(err, scale):
    """-log10(err / scale), capped at DIGITS_CAP."""
    if err <= 0:
        return DIGITS_CAP
    return min(DIGITS_CAP, -math.log10(err / scale))


def _fail(why):
    return Verdict(False, None, why)


def _rel(value, ref):
    return abs(value - ref) / max(abs(ref), 1.0)


# -- jacobian ----------------------------------------------------------------


def check_jacobian(args, out):
    g = args["genus"]
    tau = np.asarray(out["tau"], dtype=complex)
    digits = []
    if tau.shape != (g, g):
        return _fail("tau has shape %r" % (tau.shape,))
    if g == 1:
        dist = oracles.sl2z_distance(tau[0, 0], oracles.tau_from_quartic(args["coeffs"]))
        if not dist <= TAU_G1_TOL:
            return _fail("tau is %.2e from the cross-ratio modulus" % dist)
        digits.append(digits_of(dist, abs(oracles.reduce_sl2z(tau[0, 0]))))
    else:
        ma = np.asarray(out["ma"], dtype=complex)
        mb = np.asarray(out["mb"], dtype=complex)
        scale = max(1.0, float(np.max(np.abs(tau))))
        if not oracles.is_symmetric_siegel(tau, TAU_TOL):
            return _fail("tau is not symmetric with Im tau > 0")
        solved = np.linalg.solve(ma, mb)
        drift = float(np.max(np.abs(tau - solved))) / scale
        if not drift <= TAU_TOL:
            return _fail("tau differs from M_A^-1 M_B by %.2e" % drift)
        res = oracles.bilinear_residual(ma, mb)
        if not res <= TAU_TOL:
            return _fail("bilinear residual %.2e" % res)
        digits += [digits_of(drift, 1.0), digits_of(res, 1.0)]
        if g in (2, 3):
            chars = oracles.even_characteristics(g)
            if len(out["values"]) != len(chars):
                return _fail("expected %d theta constants" % len(chars))
            args = dict(args, points=[oracles.char_point(ch, tau) for ch in chars])
        zeros = 0
        for ch in oracles.even_characteristics(g):
            val, _, _, s = oracles.theta_brute(oracles.char_point(ch, tau), tau)
            zeros += abs(val) < VANISH_TOL * s
        if zeros != oracles.vanishing_even_count(g):
            return _fail("%d even theta constants vanish, want %d"
                         % (zeros, oracles.vanishing_even_count(g)))
    if len(out["values"]) != len(args["points"]):
        return _fail("expected %d theta values" % len(args["points"]))
    for u, val in zip(args["points"], out["values"]):
        ref, _, _, s = oracles.theta_brute(u, tau)
        if g == 1:
            ref = oracles.theta_g1(complex(np.ravel(u)[0]), complex(tau[0, 0]))
        err = abs(val - ref)
        if not err <= THETA_TOL * s:
            return _fail("theta at tau off by %.2e of its scale" % (err / s))
        digits.append(digits_of(err, s))
    return Verdict(True, min(digits))


def period_fault_expected(args):
    return args.get("name") in KNOWN_PERIOD_FAULTS


# -- kernels -----------------------------------------------------------------


def check_theta(args, out):
    value, bound = out
    tau = np.asarray(args["tau"], dtype=complex)
    ref, _, _, s = oracles.theta_brute(args["u"], tau)
    if tau.shape == (1, 1):
        ref = oracles.theta_g1(args["u"][0], complex(tau[0, 0]))
    err = abs(value - ref)
    if not err <= THETA_TOL * s:
        return _fail("theta off by %.2e of its scale" % (err / s))
    return Verdict(True, digits_of(err, s), bound_miss=err > bound)


def bergman_reference(args):
    tau = np.asarray(args["tau"], dtype=complex)
    v = np.asarray(args["up"]) - np.asarray(args["uq"]) + np.asarray(args["shift"])
    if tau.shape == (1, 1):
        return oracles.bergman_g1(complex(args["up"][0] - args["uq"][0]), complex(tau[0, 0]))
    val, grad, hess, _ = oracles.theta_brute(v, tau, order=2)
    h = hess / val - np.outer(grad, grad) / val ** 2
    return -complex(np.asarray(args["dup"]) @ h @ np.asarray(args["duq"]))


def _kernel(value, ref, name):
    err = _rel(value, ref)
    if not err <= KERNEL_TOL:
        return _fail("%s off by %.2e" % (name, err))
    return Verdict(True, digits_of(err, 1.0))


def check_bergman(args, out):
    return _kernel(out, bergman_reference(args), "Bergman kernel")


def check_szego(args, out):
    ref = oracles.szego_g1(args["z"], args["w"], args["zeta"], args["tau"])
    return _kernel(out, ref, "Szego kernel")


def check_third_kind(args, out):
    ref = oracles.third_kind_g1(args["z"], args["q1"], args["q2"], args["tau"])
    return _kernel(out, ref, "third kind form")


def check_fay(args, out):
    if not 0 <= out < FAY_TOL:
        return _fail("Fay residual %.2e" % out)
    return Verdict(True, digits_of(out, 1.0))


def check_weierstrass_p(args, out):
    value, _ = out
    ref = oracles.weierstrass_p(args["z"], args["tau"])
    err = _rel(value, ref)
    if not err <= WP_TOL:
        return _fail("p off by %.2e" % err)
    return Verdict(True, digits_of(err, 1.0))


# -- exact -------------------------------------------------------------------


def check_volume(args, out, lower_volume):
    """Closed forms, then string and dilaton against V(g, n-1), then shape.

    ``lower_volume(g, n)`` supplies V(g, n) in the same encoding; it is only
    called where the string and dilaton equations apply.
    """
    g, n = args["g"], args["n"]
    want = oracles.closed_form_volume(g, n)
    if want is not None and out != want:
        return _fail("V(%d,%d) differs from its closed form" % (g, n))
    if not oracles.volume_structure_ok(out, g, n):
        return _fail("V(%d,%d) is not symmetric, homogeneous and positive" % (g, n))
    if n >= 2 and 2 * g - 3 + n > 0:
        small = lower_volume(g, n - 1)
        if not oracles.string_equation_holds(out, small, n - 1):
            return _fail("string equation fails between V(%d,%d) and V(%d,%d)"
                         % (g, n, g, n - 1))
        if not oracles.dilaton_equation_holds(out, small, g, n - 1):
            return _fail("dilaton equation fails between V(%d,%d) and V(%d,%d)"
                         % (g, n, g, n - 1))
    return Verdict(True)


def check_resultant(args, out, reference=oracles.resultant_sympy):
    if out != reference(args["p"], args["q"]):
        return _fail("resultant differs from sympy")
    return Verdict(True)


def _hyperelliptic_u(q):
    """Polynomial part at infinity of sqrt(Q), Q monic of degree 2m."""
    m = (len(q) - 1) // 2
    u = [Fraction(0)] * (m + 1)
    u[m] = Fraction(1)
    for t in range(1, m + 1):
        s = sum(u[m - a] * u[m - t + a] for a in range(1, t))
        u[m - t] = (q[2 * m - t] - s) / 2
    return u


def check_correction(args, out):
    """Swap symmetry; y - x gives nothing; for y^2 = Q(x), Q monic of degree
    2g + 2, the difference T = -((U(x) - U(x'))/(x - x'))^2 - Q4 with
    U = [sqrt Q] lives on x^a x'^c, a, c <= g - 1 (the holomorphic part)."""
    for (a, b, c, d), coef in out.items():
        if out.get((c, d, a, b)) != coef:
            return _fail("correction polynomial is not swap-symmetric")
    poly = args["poly"]
    if poly == {(0, 1): 1, (1, 0): -1} and out:
        return _fail("the line y - x has a non-zero correction")
    g = args["hyperelliptic_genus"]
    if g is not None:
        q = [-poly.get((k, 0), Fraction(0)) for k in range(2 * g + 3)]
        u = _hyperelliptic_u(q)
        du = {}
        for k, uk in enumerate(u):
            for a in range(k):
                du[(a, k - 1 - a)] = du.get((a, k - 1 - a), Fraction(0)) + uk
        t = {}
        for (a, c), w in du.items():
            for (a2, c2), w2 in du.items():
                key = (a + a2, 0, c + c2, 0)
                t[key] = t.get(key, Fraction(0)) - w * w2
        for key, coef in out.items():
            t[key] = t.get(key, Fraction(0)) - coef
        for (a, b, c, d), coef in t.items():
            if coef != 0 and not (a <= g - 1 and b == 0 and c <= g - 1 and d == 0):
                return _fail("non-holomorphic monomial %r survives" % ((a, b, c, d),))
    return Verdict(True)


def check_genus(args, out):
    want = oracles.interior_point_count(args["support"])
    if out != want:
        return _fail("genus %r, interior count %d" % (out, want))
    return Verdict(True)


def check_rr_genus0(args, out):
    if tuple(out) != oracles.rr_genus0(args["divisor"]):
        return _fail("Riemann-Roch dimensions %r differ from the brute force" % (out,))
    return Verdict(True)


# -- cli ---------------------------------------------------------------------


def _complex(pair):
    return complex(pair[0], pair[1])


def _flag(argv, name):
    """Value of ``--name=value`` in argv."""
    return next(a.split("=", 1)[1] for a in argv if a.startswith(name + "="))


def _parse_pair(text):
    re, im = text.split(",")
    return complex(float(re), float(im))


def _parse_poly_text(text):
    """Inverse of workloads._poly_text: '(c)*x^i*y^j + ...'."""
    poly = {}
    for part in text.split(" + "):
        coef, xs, ys = part.split("*")
        poly[(int(xs[2:]), int(ys[2:]))] = Fraction(coef.strip("()"))
    return poly


def _wp_terms(doc):
    vol = {}
    for term in doc["terms"]:
        ms = tuple(e // 2 for e in term["L_exponents"])
        vol.setdefault(ms, {})[term["pi2_power"]] = Fraction(term["coefficient"])
    return vol


def check_cli(args, out, schemas, lower_volume):
    """Exit status 0, the subcommand's JSON schema, then its oracle."""
    import jsonschema

    if out["returncode"] != 0:
        return _fail("exit status %d: %s" % (out["returncode"], out["stderr"][-200:]))
    try:
        doc = json.loads(out["stdout"])
        jsonschema.validate(doc, schemas[args["schema"]])
    except (ValueError, jsonschema.ValidationError) as exc:
        return _fail("output breaks the %s schema: %s" % (args["schema"], str(exc)[:200]))
    argv = args["argv"]
    cmd = argv[0]
    if cmd in ("genus", "newton"):
        want = oracles.interior_point_count(list(_parse_poly_text(_flag(argv, "--poly"))))
        if doc["genus"] != want:
            return _fail("genus %r, interior count %d" % (doc["genus"], want))
    elif cmd == "fundform" and argv[1].startswith("--poly="):
        terms = {tuple(t["exponents"]): Fraction(t["coefficient"]) for t in doc["terms"]}
        return check_correction({"poly": _parse_poly_text(_flag(argv, "--poly")),
                                 "hyperelliptic_genus": None}, terms)
    elif cmd == "fundform":
        q = [Fraction(int(p.split(")")[0].strip("("))) for p in _flag(argv, "--hyperelliptic").split(" + ")]
        u = [Fraction(c) for c in doc["U"]]
        v = [Fraction(c) for c in doc["V"]]
        sq = [Fraction(0)] * (2 * len(u) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(u):
                sq[i + j] += a * b
        for k, c in enumerate(v):
            sq[k] += c
        if sq != q or len(v) - 1 >= len(u) - 1:
            return _fail("Q is not U^2 + V with deg V < deg U")
    elif cmd == "theta":
        tau = _complex(json.loads(_flag(argv, "--tau")))
        u = _complex(json.loads(_flag(argv, "--u")))
        return check_theta({"tau": [[tau]], "u": [u]}, (_complex(doc["value"]), doc["error"]))
    elif cmd == "fay-check":
        if doc["trials"] != int(_flag(argv, "--trials")):
            return _fail("fay-check ran %r trials" % doc["trials"])
        return check_fay({}, doc["max_residual"])
    elif cmd == "torus" and argv[1] == "reduce":
        tau = _parse_pair(_flag(argv, "--tau"))
        (a, b), (c, d) = doc["matrix"]
        got = _complex(doc["tau"])
        image = (a * tau + b) / (c * tau + d)
        if a * d - b * c != 1 or abs(image - got) > 1e-9 * max(1.0, abs(got)):
            return _fail("reduced tau is not the image of tau under the matrix")
        if abs(got.real) > 0.5 + 1e-12 or abs(got) < 1.0 - 1e-12:
            return _fail("reduced tau lies outside the fundamental domain")
    elif cmd == "torus":
        return check_weierstrass_p(
            {"tau": _parse_pair(_flag(argv, "--tau")), "z": _parse_pair(_flag(argv, "--z"))},
            (_complex(doc["value"]), doc["error"]),
        )
    elif cmd == "periods":
        tau = _complex(doc["tau"][0][0])
        quartic = PERIOD_QUARTICS[_flag(argv, "--q")]
        dist = oracles.sl2z_distance(tau, oracles.tau_from_quartic(quartic))
        if not dist <= TAU_G1_TOL:
            return _fail("tau is %.2e from the cross-ratio modulus" % dist)
        return Verdict(True, digits_of(dist, abs(oracles.reduce_sl2z(tau))))
    elif cmd == "rr":
        div = [(item["point"] if item["point"] == "inf" else Fraction(item["point"]), item["weight"])
               for item in json.loads(_flag(argv, "--divisor"))]
        return check_rr_genus0({"divisor": div}, (doc["r_minus_D"], doc["i_D"]))
    elif cmd == "wp":
        g, n = int(_flag(argv, "--g")), int(_flag(argv, "--n"))
        if (doc["g"], doc["n"]) != (g, n):
            return _fail("wp answered for the wrong signature")
        return check_volume({"g": g, "n": n}, _wp_terms(doc), lower_volume)
    elif cmd == "strebel":
        return check_strebel([float(v) for v in _flag(argv, "--L").split(",")], doc)
    return Verdict(True)


def check_strebel(lengths, doc):
    """The graph the triangle inequalities pick, and its edge relations."""
    l0, l1, li = lengths
    graph = 2 if li > l0 + l1 else 3 if l1 > l0 + li else 4 if l0 > l1 + li else 1
    e1, e2, e3 = (float(Fraction(v)) for v in doc["lengths"])
    relations = {
        1: (l0 - e1 - e2, l1 - e2 - e3, li - e3 - e1),
        2: (l0 - e1, l1 - e2, li - e1 - e2 - 2 * e3),
        3: (l0 - e1, li - e3, l1 - e1 - e3 - 2 * e2),
        4: (l1 - e2, li - e3, l0 - e2 - e3 - 2 * e1),
    }[graph]
    if doc["graph"] != graph or max(abs(r) for r in relations) > 1e-12 * max(lengths):
        return _fail("pants graph or edge lengths wrong for %r" % (lengths,))
    return Verdict(True)


def load_schemas(src):
    folder = os.path.join(src, "rsurf", "schemas")
    out = {}
    for name in os.listdir(folder):
        if name.endswith(".json"):
            with open(os.path.join(folder, name)) as fh:
                out[name[:-5]] = json.load(fh)
    return out


class Checker:
    """Checks every op of a run; a repeated output is checked once.

    ``rounds`` holds one op list, repeated, or one list per round.
    """

    def __init__(self, rounds, lower_volume=None, schemas=None):
        self.rounds = rounds
        self.lower_volume = lower_volume
        self.schemas = schemas
        self._seen = {}

    def op(self, rnd, idx):
        return self.rounds[rnd % len(self.rounds)][idx]

    def check(self, rnd, idx, out):
        key = (rnd % len(self.rounds), idx, repr(out))
        if key not in self._seen:
            kind, args = self.op(rnd, idx)
            if kind == "volume":
                verdict = check_volume(args, out, self.lower_volume)
            elif kind == "cli":
                verdict = check_cli(args, out, self.schemas, self.lower_volume)
            else:
                verdict = CHECKS[kind](args, out)
            self._seen[key] = verdict
        return self._seen[key]


CHECKS = {
    "jacobian": check_jacobian,
    "theta": check_theta,
    "bergman": check_bergman,
    "szego": check_szego,
    "third_kind": check_third_kind,
    "fay": check_fay,
    "weierstrass_p": check_weierstrass_p,
    "resultant": check_resultant,
    "correction": check_correction,
    "genus": check_genus,
    "rr_genus0": check_rr_genus0,
}
