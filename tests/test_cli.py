import json
from pathlib import Path

import jsonschema
import pytest

from rsurf.cli import run

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "rsurf" / "schemas"


def schema(name):
    with open(SCHEMA_DIR / (name + ".json")) as fh:
        return json.load(fh)


def run_json(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


def run_error(capsys, argv):
    code = run(argv)
    captured = capsys.readouterr()
    assert code == 1
    payload = json.loads(captured.err)
    jsonschema.validate(payload, schema("error"))
    return payload


def test_genus_and_schema(capsys):
    out = run_json(capsys, ["genus", "--poly", "y^2 - x^6 + 1"])
    jsonschema.validate(out, schema("genus"))
    assert out["genus"] == 2


def test_newton_schema(capsys):
    out = run_json(capsys, ["newton", "--poly", "y^2 - x^3 - 1"])
    jsonschema.validate(out, schema("newton"))
    assert out["genus"] == 1


def test_forms_schema(capsys):
    out = run_json(capsys, ["forms", "--poly", "y^2 - x^6 + 1", "--k", "1", "--l", "1"])
    jsonschema.validate(out, schema("forms"))


def test_fundform_hyperelliptic_schema(capsys):
    out = run_json(capsys, ["fundform", "--hyperelliptic", "x^6 - 1"])
    jsonschema.validate(out, schema("fundform"))


def test_fundform_poly_schema(capsys):
    out = run_json(capsys, ["fundform", "--poly", "y^2 - x^4 + 1"])
    jsonschema.validate(out, schema("fundform"))


def test_fundform_requires_an_input(capsys):
    payload = run_error(capsys, ["fundform"])
    assert payload["error"] == "ValueError"


def test_theta_scalar_schema(capsys):
    out = run_json(capsys, ["theta", "--tau", "[0.0,1.0]", "--u", "[[0.2,0.1]]"])
    jsonschema.validate(out, schema("theta"))
    assert out["error"] <= 1e-12


def test_theta_bad_tau_is_domain_error(capsys):
    payload = run_error(capsys, ["theta", "--tau", "[0.0,-1.0]", "--u", "[[0.0,0.0]]"])
    assert payload["error"] == "ValueError"


@pytest.mark.parametrize(
    "argv",
    [
        ["theta", "--tau", "[1.0]", "--u", "[0,0]"],
        ["theta", "--tau", "[0,1]", "--u", "[0.2]"],
        ["theta", "--tau", "[0.0,1.0,5.0]", "--u", "[0.2,0.1]"],
        ["torus", "wp", "--tau", "[1]", "--z", "0.1,0.1"],
        ["torus", "wp", "--tau", "0,1"],
        ["torus", "reduce", "--tau", "null"],
        ["rr", "--genus", "0", "--divisor", "[1]"],
        ["rr", "--genus", "0", "--divisor", '[{"point": [1], "weight": 1}]'],
        ["rr", "--genus", "0", "--divisor", '[{"point": {}, "weight": 1}]'],
        ["rr", "--genus", "0", "--divisor", '[{"point": "0", "weight": null}]'],
        ["rr", "--genus", "0", "--divisor", '[{"point": "0", "weight": 1.5}]'],
        ["rr", "--genus", "1", "--divisor", '[{"point": "0", "weight": 1}]',
         "--tau", "0,1", "--abel", '{"0": [0]}'],
    ],
)
def test_malformed_numbers_are_domain_errors(capsys, argv):
    payload = run_error(capsys, argv)
    assert payload["error"] == "ValueError"


def test_fay_check_schema(capsys):
    out = run_json(capsys, ["fay-check", "--tau", "0.0,1.3", "--trials", "5"])
    jsonschema.validate(out, schema("fay-check"))
    assert out["max_residual"] < 1e-9


def test_torus_reduce_schema(capsys):
    out = run_json(capsys, ["torus", "reduce", "--tau", "5.3,0.7"])
    jsonschema.validate(out, schema("torus"))


def test_torus_wp_schema(capsys):
    out = run_json(capsys, ["torus", "wp", "--tau", "0.0,1.4", "--z", "0.3,0.2"])
    jsonschema.validate(out, schema("torus"))


def test_periods_schema(capsys):
    out = run_json(capsys, ["periods", "--q", "x^4 - 1"])
    jsonschema.validate(out, schema("periods"))
    tau = out["tau"]
    assert tau[0][0][1] == pytest.approx(1.0, abs=1e-9)


def test_rr_genus0_schema(capsys):
    div = json.dumps([{"point": "0", "weight": 3}, {"point": "inf", "weight": -1}])
    out = run_json(capsys, ["rr", "--genus", "0", "--divisor", div])
    jsonschema.validate(out, schema("rr"))
    assert out["r_minus_D"] == 3


def test_rr_genus1_schema(capsys):
    div = json.dumps([{"point": "1/2", "weight": 2}])
    abel = json.dumps({"1/2": [0.2, 0.1]})
    out = run_json(
        capsys,
        ["rr", "--genus", "1", "--divisor", div, "--tau", "0.0,1.3", "--abel", abel],
    )
    jsonschema.validate(out, schema("rr"))
    assert out["r_minus_D"] == 2


def test_wp_schema_and_latex(capsys):
    out = run_json(capsys, ["wp", "--g", "1", "--n", "1"])
    jsonschema.validate(out, schema("wp"))
    out = run_json(capsys, ["wp", "--g", "1", "--n", "1", "--latex"])
    jsonschema.validate(out, schema("wp"))
    assert "latex" in out


def test_strebel_schema(capsys):
    out = run_json(capsys, ["strebel", "--L", "2,3,4"])
    jsonschema.validate(out, schema("strebel"))
    assert out["graph"] == 1


def test_parse_error_exit_code(capsys):
    payload = run_error(capsys, ["genus", "--poly", "x^2 + * y"])
    assert payload["error"] == "PolyParseError"


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["torus", "frobnicate", "--tau", "0,1"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    out = run_json(capsys, ["--out", str(target), "strebel", "--L", "2,3,4"])
    on_disk = json.loads(target.read_text())
    assert on_disk == out

