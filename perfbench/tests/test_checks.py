"""The benchmark's checks accept rsurf's answers and reject perturbed ones.

Run from the repository root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import os
from fractions import Fraction

import numpy as np
import pytest

import checks
import oracles
import workloads
from rsurf import periods, theta, wpvol

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "src")


def _volume(g, n):
    return {ms: dict(pp.coeffs) for ms, pp in wpvol.volume(g, n).terms.items()}


def _jacobian_output(coeffs, points=()):
    tau, ma, mb = periods.period_matrix(periods.build_curve(coeffs))
    g = tau.shape[0]
    if g in (2, 3):
        points = [oracles.char_point(ch, tau) for ch in oracles.even_characteristics(g)]
    out = {"tau": tau, "ma": ma, "mb": mb, "values": [theta.theta(u, tau) for u in points]}
    return out


@pytest.mark.parametrize("coeffs", [[0, -2, -1, 2, 1], [-1, 0, 0, 0, 0, 0, 1]])
def test_tau_off_by_1e6_is_rejected(coeffs):
    g = (len(coeffs) - 1) // 2 - 1
    points = [[0.1 + 0.05j] * g] if g == 1 else []
    args = {"genus": g, "coeffs": coeffs, "points": points}
    out = _jacobian_output(coeffs, points)
    assert checks.check_jacobian(args, out).ok
    bumped = dict(out, tau=np.asarray(out["tau"]) + 1e-6)
    assert not checks.check_jacobian(args, bumped).ok


def test_wrong_vanishing_count_is_rejected():
    args = {"genus": 3, "coeffs": workloads.CURVES[0][1], "points": []}
    # a generic Siegel matrix is not hyperelliptic: no even constant vanishes
    tau = np.array([[1.1j, 0.2, 0.1], [0.2, 1.3j, 0.3], [0.1, 0.3, 1.2j]])
    ma = np.eye(3, dtype=complex)
    chars = oracles.even_characteristics(3)
    values = [oracles.theta_brute(oracles.char_point(ch, tau), tau)[0] for ch in chars]
    verdict = checks.check_jacobian(args, {"tau": tau, "ma": ma, "mb": tau, "values": values})
    assert not verdict.ok and "vanish" in verdict.why


@pytest.mark.parametrize("g", [1, 2, 3])
def test_theta_scaled_by_1e8_is_rejected(g):
    rng = np.random.default_rng(g)
    tau = workloads.siegel(rng, workloads.IM_TAU_SPECTRA[g][0])
    u = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.3, 0.3)) for _ in range(g)]
    value, bound = theta.theta(u, tau, with_error=True)
    args = {"tau": tau, "u": u}
    assert checks.check_theta(args, (value, bound)).ok
    assert not checks.check_theta(args, (value * (1 + 1e-8), bound)).ok


def test_bergman_kernel_against_its_references():
    for g in (1, 2):
        rng = np.random.default_rng(10 + g)
        tau = workloads.siegel(rng, workloads.IM_TAU_SPECTRA[g][0])
        op = workloads._higher_genus_ops(rng, tau, 0, 1)[0] if g > 1 else None
        if g == 1:
            c = (1.0 + tau[0, 0]) / 2.0
            op = ("bergman", {"tau": tau, "up": [0.31 + 0.1j], "uq": [-0.2 + 0.05j],
                              "dup": [1.0], "duq": [1.0], "shift": [c]})
        a = op[1]
        value = theta.bergman_theta(a["tau"], a["up"], a["uq"], a["dup"], a["duq"],
                                    shift=a["shift"])
        assert checks.check_bergman(a, value).ok
        assert not checks.check_bergman(a, value * (1 + 1e-7)).ok


def test_brute_force_theta_agrees_with_mpmath_at_genus_one():
    rng = np.random.default_rng(0)
    for _ in range(20):
        tau = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.4, 2.0))
        u = complex(rng.uniform(-1, 1), rng.uniform(-0.6, 0.6))
        val, _, _, scale = oracles.theta_brute([u], [[tau]])
        assert abs(val - oracles.theta_g1(u, tau)) < 1e-14 * scale


def test_brute_force_derivatives_agree_with_mpmath_at_genus_one():
    tau, u = 0.2 + 0.9j, 0.31 - 0.12j
    _, grad, hess, scale = oracles.theta_brute([u], [[tau]], order=2)
    assert abs(grad[0] - oracles.theta_g1(u, tau, 1)) < 1e-12 * scale
    assert abs(hess[0, 0] - oracles.theta_g1(u, tau, 2)) < 1e-11 * scale


def test_one_volume_coefficient_changed_is_rejected():
    for g, n in [(0, 5), (1, 3), (2, 2)]:
        vol = _volume(g, n)
        assert checks.check_volume({"g": g, "n": n}, vol, _volume).ok
        for ms in sorted(vol):
            k = min(vol[ms])
            bad = {key: dict(inner) for key, inner in vol.items()}
            bad[ms][k] += Fraction(1, 10 ** 6)
            assert not checks.check_volume({"g": g, "n": n}, bad, _volume).ok, (g, n, ms)


def test_closed_forms_satisfy_string_and_dilaton():
    v04 = oracles.closed_form_volume(0, 4)
    v05 = oracles.closed_form_volume(0, 5)
    assert oracles.string_equation_holds(v05, v04, 4)
    assert oracles.dilaton_equation_holds(v05, v04, 0, 4)


def test_resultant_changed_is_rejected():
    p = {(2, 3): Fraction(1), (0, 0): Fraction(3, 2), (1, 1): Fraction(-2)}
    q = {(1, 2): Fraction(5), (0, 1): Fraction(1), (2, 0): Fraction(-1, 3)}
    ref = oracles.resultant_sympy(p, q)
    args = {"p": p, "q": q}
    assert checks.check_resultant(args, ref).ok
    bad = dict(ref)
    key = sorted(bad)[0]
    bad[key] += 1
    assert not checks.check_resultant(args, bad).ok


def test_correction_identity_rejects_a_changed_term():
    from rsurf import fundform

    poly = workloads._hyperelliptic(np.random.default_rng(3), 2)
    out = dict(fundform.correction_polynomial(poly).terms)
    args = {"poly": poly, "hyperelliptic_genus": 2}
    assert checks.check_correction(args, out).ok
    bad = dict(out)
    key = max(bad)
    bad[key] += 1
    bad[(key[2], key[3], key[0], key[1])] = bad[key]
    assert not checks.check_correction(args, bad).ok


def test_genus_and_rr_references():
    assert oracles.interior_point_count([(0, 0), (4, 0), (0, 4)]) == 3
    assert oracles.interior_point_count([(0, 0), (3, 0), (0, 3), (3, 3)]) == 4
    div = [("inf", 2), (Fraction(1), -1), (Fraction(0), 3)]
    assert oracles.rr_genus0(div) == (5, 0)
    assert oracles.rr_genus0([(Fraction(1, 2), -3)]) == (0, 2)


def _cli(doc, code=0):
    return {"returncode": code, "stdout": json.dumps(doc), "stderr": ""}


def test_cli_output_breaking_its_schema_is_rejected():
    schemas = checks.load_schemas(SRC)
    args = {"schema": "genus", "argv": ["genus", "--poly=(1)*x^0*y^0 + (1)*x^4*y^0 + (1)*x^0*y^4"]}
    assert checks.check_cli(args, _cli({"genus": 3}), schemas, None).ok
    assert not checks.check_cli(args, _cli({"genus": 2}), schemas, None).ok
    assert not checks.check_cli(args, _cli({"genus": "3"}), schemas, None).ok
    assert not checks.check_cli(args, _cli({"genus": 3, "extra": 1}), schemas, None).ok
    assert not checks.check_cli(args, _cli({"genus": 3}, code=1), schemas, None).ok
    broken = {"returncode": 0, "stdout": "{not json", "stderr": ""}
    assert not checks.check_cli(args, broken, schemas, None).ok


def test_cli_theta_against_mpmath():
    schemas = checks.load_schemas(SRC)
    tau, u = 0.1 + 1.1j, 0.2 - 0.1j
    value, err = theta.theta([u], [[tau]], with_error=True)
    args = {"schema": "theta", "argv": ["theta", "--tau=" + json.dumps([0.1, 1.1]),
                                        "--u=" + json.dumps([0.2, -0.1])]}
    good = {"value": [value.real, value.imag], "error": err, "tolerance": 1e-12}
    assert checks.check_cli(args, _cli(good), schemas, None).ok
    bad = dict(good, value=[value.real * (1 + 1e-8), value.imag * (1 + 1e-8)])
    assert not checks.check_cli(args, _cli(bad), schemas, None).ok


def test_failed_share_is_fixed_by_the_round():
    for seed in (1, 2):
        ops = workloads.make_round("jacobian", seed)
        names = {a["name"] for _, a in ops}
        assert workloads.KNOWN_PERIOD_FAULTS <= names
        assert len(ops) == len(workloads.CURVES)


def test_rounds_depend_only_on_the_seed():
    for workload in workloads.WORKLOADS:
        a = workloads.make_round(workload, 7)
        b = workloads.make_round(workload, 7)
        assert repr(a) == repr(b)
        assert repr(a) != repr(workloads.make_round(workload, 8))
    kinds = [[k for k, _ in workloads.make_round("kernels", 7, r)] for r in range(3)]
    assert kinds[0] == kinds[1] == kinds[2]
