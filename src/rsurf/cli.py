"""Command line front end with JSON output.

Exit codes: 0 success, 1 domain error (JSON error object on stderr),
2 usage error.  Exact rationals are printed as "num/den" strings; floats
are printed with full round-trip precision (17 significant digits).
"""

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import algebra, divisors, fundform, newton, periods, strebel
from . import selftest as selftest_mod
from . import theta as theta_mod
from . import torus as torus_mod
from . import wpvol


def _jnum(x):
    """JSON encoding of a number: rationals as 'num/den', floats as floats,
    complex values as [re, im]."""
    if isinstance(x, (int, np.integer)):
        return int(x)
    if isinstance(x, Fraction):
        return "%d/%d" % (x.numerator, x.denominator)
    if isinstance(x, (complex, np.complexfloating)):
        return [float(x.real), float(x.imag)]
    return float(x)


def _parse_complex(text):
    """Parse 're,im' or a JSON number into a complex number."""
    if "," in text:
        re, im = text.split(",")
        return complex(float(re), float(im))
    loaded = json.loads(text)
    if not isinstance(loaded, (int, float)):
        raise ValueError("expected 're,im' or a number, got %s" % text)
    return complex(loaded)


def _complex_array(data, ndim):
    """JSON ``data`` of [re, im] pairs behind ``ndim`` axes of one length g,
    as a complex array; for ndim >= 1 a bare pair means g = 1."""
    try:
        arr = np.asarray(data, dtype=float)
    except TypeError as exc:
        raise ValueError("expected numbers, got %s" % json.dumps(data)) from exc
    if arr.shape == (2,):
        arr = arr.reshape((1,) * ndim + (2,))
    if arr.shape != arr.shape[:1] * ndim + (2,):
        shape = ", ".join(["g"] * ndim + ["2"])
        raise ValueError("expected an array of shape (%s), got %s" % (shape, json.dumps(data)))
    return arr[..., 0] + 1j * arr[..., 1]


def _univariate_coeffs(text):
    poly = algebra.parse_poly(text)
    if poly.degree_y() != 0:
        raise ValueError("expected a polynomial in x only")
    deg = poly.degree_x()
    return [poly.coeffs.get((i, 0), Fraction(0)) for i in range(deg + 1)]


def _cmd_newton(args):
    poly = algebra.parse_poly(args.poly)
    pg = newton.LatticePolygon.of_poly(poly)
    return {
        "support": [list(p) for p in pg.support],
        "hull": [list(p) for p in pg.vertices],
        "edges": [
            {"alpha": e.alpha, "beta": e.beta, "m": e.m} for e in pg.edges
        ],
        "interior": [list(p) for p in pg.interior],
        "genus": newton.genus(poly),
    }


def _cmd_genus(args):
    return {"genus": newton.genus(algebra.parse_poly(args.poly))}


def _cmd_forms(args):
    kind = newton.classify_form(algebra.parse_poly(args.poly), args.k, args.l)
    return {
        "kind": kind.kind,
        "pole_orders": list(kind.pole_orders),
        "edges": [{"alpha": e.alpha, "beta": e.beta, "m": e.m} for e in kind.edges],
    }


def _cmd_fundform(args):
    if args.hyperelliptic is not None:
        split = fundform.hyperelliptic_split(_univariate_coeffs(args.hyperelliptic))
        return {
            "U": [_jnum(c) for c in split.u_coeffs],
            "V": [_jnum(c) for c in split.v_coeffs],
        }
    q4 = fundform.correction_polynomial(algebra.parse_poly(args.poly))
    return {
        "terms": [
            {"exponents": [a, b, c, d], "coefficient": _jnum(coef)}
            for a, b, c, d, coef in q4.to_terms()
        ]
    }


def _cmd_theta(args):
    tau = _complex_array(json.loads(args.tau), 2)
    u = _complex_array(json.loads(args.u), 1)
    val, err = theta_mod.theta(u, tau, with_error=True)
    return {"value": _jnum(val), "error": float(err)}


def _cmd_fay_check(args):
    if args.g != 1:
        raise ValueError("only genus 1 is supported")
    tau = _parse_complex(args.tau)
    rng = np.random.default_rng(0)
    worst = 0.0
    done = 0
    while done < args.trials:
        zeta = rng.normal() * 0.2 + 1j * (0.1 + 0.1 * rng.random())
        pts = rng.normal(size=4) + 1j * rng.normal(size=4) * 0.2
        try:
            worst = max(
                worst,
                theta_mod.fay_check(tau, zeta, [(pts[0], pts[1]), (pts[2], pts[3])]),
            )
        except theta_mod.ThetaDivisorError:
            continue
        done += 1
    tol = 1e-9
    out = {"max_residual": worst, "trials": done, "tolerance": tol}
    if worst >= tol:
        raise ValueError("Fay residual %.3e exceeds %.1e" % (worst, tol))
    return out


def _cmd_torus(args):
    if args.action == "reduce":
        tau0, mat = torus_mod.reduce_modular(_parse_complex(args.tau))
        return {
            "tau": _jnum(tau0),
            "matrix": [[int(mat[0][0]), int(mat[0][1])], [int(mat[1][0]), int(mat[1][1])]],
        }
    if args.z is None:
        raise ValueError("torus wp needs --z")
    val, err = torus_mod.weierstrass_p(
        _parse_complex(args.z), _parse_complex(args.tau), with_error=True
    )
    return {"value": _jnum(val), "error": float(err)}


def _cmd_periods(args):
    curve = periods.build_curve(_univariate_coeffs(args.q))
    tau, ma, mb = periods.period_matrix(curve)
    res, pos = periods.bilinear_check(ma, mb)
    return {
        "branch_points": [_jnum(b) for b in curve.branch_points],
        "A": [[_jnum(v) for v in row] for row in ma],
        "B": [[_jnum(v) for v in row] for row in mb],
        "tau": [[_jnum(v) for v in row] for row in tau],
        "bilinear_residual": float(res),
        "positivity": float(pos),
    }


def _cmd_rr(args):
    data = json.loads(args.divisor)
    if not (isinstance(data, list) and all(isinstance(item, dict) for item in data)):
        raise ValueError("--divisor takes a list of objects with a point and a weight")
    entries = []
    for item in data:
        point = item["point"]
        if isinstance(point, list):
            point = complex(_complex_array(point, 0))
        elif isinstance(point, str) and point != divisors.INFINITY:
            point = Fraction(point)
        elif not isinstance(point, (str, int, float)):
            raise ValueError("a point is 'inf', a rational or a pair, not %s" % json.dumps(point))
        if not isinstance(item["weight"], int):
            raise ValueError("a weight is an integer, not %s" % json.dumps(item["weight"]))
        entries.append((point, item["weight"]))
    div = divisors.Divisor(entries)
    if args.genus == 0:
        rr = divisors.rr_genus0(div)
    else:
        if args.tau is None or args.abel is None:
            raise ValueError("genus 1 needs --tau and --abel")
        tau = _parse_complex(args.tau)
        data = json.loads(args.abel)
        if not isinstance(data, dict):
            raise ValueError("--abel takes an object from points to [re, im] pairs")
        abel = {}
        for key, val in data.items():
            point = key
            if key != divisors.INFINITY:
                try:
                    point = Fraction(key)
                except ValueError:
                    pass
            abel[point] = complex(_complex_array(val, 0))
        rr = divisors.rr_genus1(div, tau, abel)
    return {
        "r_minus_D": rr.r_minus_D,
        "i_D": rr.i_D,
        "genus": rr.genus,
        "degree": rr.deg,
        "tolerance": divisors.LATTICE_TOL,
    }


def _cmd_wp(args):
    vol = wpvol.volume(args.g, args.n)
    if args.latex:
        return {"latex": vol.latex()}
    terms = []
    for ms in sorted(vol.terms):
        for k, c in sorted(vol.terms[ms].coeffs.items()):
            terms.append(
                {"L_exponents": [2 * m for m in ms], "pi2_power": k, "coefficient": _jnum(c)}
            )
    return {"g": args.g, "n": args.n, "terms": terms}


def _cmd_strebel(args):
    lengths = [float(v) for v in args.L.split(",")]
    if len(lengths) != 3:
        raise ValueError("--L takes exactly three boundary lengths")
    pants = strebel.classify_pants(*lengths)
    return {"graph": pants.graph, "lengths": [_jnum(v) for v in pants.lengths]}


def _cmd_selftest(args):
    ok = selftest_mod.run_all()
    if not ok:
        raise ValueError("self test failed")
    return None


def _build_parser():
    parser = argparse.ArgumentParser(prog="rsurf")
    parser.add_argument("--out", help="also write the JSON output to this path")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("newton", help="Newton polygon data of a plane curve")
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_newton)

    p = sub.add_parser("genus", help="genus from the exponent hull")
    p.add_argument("--poly", required=True)
    p.set_defaults(fn=_cmd_genus)

    p = sub.add_parser("forms", help="classify the (k, l) monomial differential")
    p.add_argument("--poly", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.set_defaults(fn=_cmd_forms)

    p = sub.add_parser("fundform", help="correction polynomial or (U, V) split")
    p.add_argument("--poly")
    p.add_argument("--hyperelliptic")
    p.set_defaults(fn=_cmd_fundform)

    p = sub.add_parser("theta", help="Riemann theta value with its error bound")
    p.add_argument("--tau", required=True)
    p.add_argument("--u", required=True)
    p.set_defaults(fn=_cmd_theta)

    p = sub.add_parser("fay-check", help="random Fay identity residuals")
    p.add_argument("--tau", required=True)
    p.add_argument("--g", type=int, default=1)
    p.add_argument("--trials", type=int, default=100)
    p.set_defaults(fn=_cmd_fay_check)

    p = sub.add_parser("torus", help="modular reduction and Weierstrass values")
    p.add_argument("action", choices=["reduce", "wp"])
    p.add_argument("--tau", required=True)
    p.add_argument("--z")
    p.set_defaults(fn=_cmd_torus)

    p = sub.add_parser("periods", help="hyperelliptic period matrix")
    p.add_argument("--q", required=True)
    p.set_defaults(fn=_cmd_periods)

    p = sub.add_parser("rr", help="Riemann-Roch dimensions")
    p.add_argument("--genus", type=int, choices=[0, 1], required=True)
    p.add_argument("--divisor", required=True)
    p.add_argument("--tau")
    p.add_argument("--abel")
    p.set_defaults(fn=_cmd_rr)

    p = sub.add_parser("wp", help="Weil-Petersson volume polynomial")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--latex", action="store_true")
    p.set_defaults(fn=_cmd_wp)

    p = sub.add_parser("strebel", help="pants decomposition graph and lengths")
    p.add_argument("--L", required=True)
    p.set_defaults(fn=_cmd_strebel)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def run(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.subcommand == "fundform" and not args.poly and not args.hyperelliptic:
            raise ValueError("fundform needs --poly or --hyperelliptic")
        result = args.fn(args)
    except (
        ValueError,
        ZeroDivisionError,
        ArithmeticError,
        KeyError,
        algebra.PolyParseError,
        newton.DegeneratePolygonError,
    ) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    if result is not None:
        text = json.dumps(result, indent=2)
        print(text)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
