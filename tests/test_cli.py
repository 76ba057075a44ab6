"""Config parsing, canonical serialization, and the command entry points."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anifield.cli import (RunConfig, canonical_json, main, parse_config,
                          run_suite, suite_report)


def _write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_parse_config_fills_defaults():
    config = parse_config('{"example": "euclidean2", "checks": ["euler"], '
                          '"seed": 7}')
    assert config.example == "euclidean2"
    assert config.checks == ["euler"]
    assert config.seed == 7
    assert config.samples == 200
    assert config.tolerance == 1e-6
    assert config.method == "analytic"
    assert config.step_scale == 1.0


def test_parse_config_defaults_to_applicable_checks():
    config = parse_config('{"example": "handmadeN"}')
    assert config.checks == ["euler", "torsion_residue"]


def test_parse_config_sorts_the_checks():
    config = parse_config('{"example": "euclidean2", '
                          '"checks": ["legendre_residue", "euler"]}')
    assert config.checks == ["euler", "legendre_residue"]


@pytest.mark.parametrize("payload,fragment", [
    ('{"example": "euclidean2", "bogus": 1}', "unknown config keys"),
    ('{"checks": ["euler"]}', "example"),
    ('{"example": "atlantis"}', "atlantis"),
    ('{"example": "euclidean2", "checks": ["flux"]}', "flux"),
    ('{"example": "handmadeN", "checks": ["wick_identity"]}', "wick_identity"),
    ('{"example": "euclidean2", "samples": 0}', "samples"),
    ('{"example": "euclidean2", "tolerance": 0}', "tolerance"),
    ('{"example": "euclidean2", "method": "secant"}', "method"),
    ('{"example": "euclidean2", "step_scale": -1}', "step_scale"),
    ('{"example": ', "line"),
])
def test_parse_config_rejections(payload, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_config(payload)



@pytest.mark.parametrize("key", ["tolerance", "step_scale"])
@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_config_refuses_a_non_finite_tolerance_or_step(tmp_path, capsys,
                                                       key, value):
    """json.loads reads these constants as floats; a tolerance of inf
    passed every verdict and an infinite step scale made every stencil
    pivot NaN."""
    path = tmp_path / "config.json"
    path.write_text(f'{{"example": "euclidean2", "checks": ["euler"], '
                    f'"samples": 2, "{key}": {value}}}')
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {key} must be positive and finite")


@pytest.mark.parametrize("flag,key", [("--tolerance", "tolerance"),
                                      ("--step-scale", "step_scale")],
                         ids=["tolerance", "step_scale"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_report_refuses_a_non_finite_tolerance_or_step(capsys, flag, key,
                                                       value):
    assert main(["report", "--samples", "2", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {key} must be positive and finite")

def test_environment_seed_wins(monkeypatch):
    monkeypatch.setenv("FINSLER_SEED", "99")
    config = parse_config('{"example": "euclidean2", "seed": 7}')
    assert config.seed == 99
    monkeypatch.setenv("FINSLER_SEED", "many")
    with pytest.raises(ValueError):
        parse_config('{"example": "euclidean2"}')


def test_canonical_json_is_key_sorted_and_explicit():
    text = canonical_json({"b": [1.0, True, None], "a": {"z": 0.5, "k": 2}})
    assert text == '{"a":{"k":2,"z":0.5},"b":[1,true,null]}'


def test_canonical_json_keeps_float_precision():
    value = 0.1 + 0.2
    assert canonical_json(value) == format(value, ".17g")
    # the 17 significant digits survive a decode round trip bit for bit
    assert json.loads(canonical_json({"v": value}))["v"] == value


def test_run_suite_reports_are_sorted():
    config = RunConfig("wick(-1)", ["signature_table", "euler"], samples=4,
                       seed=1, tolerance=1e-6, method="analytic",
                       step_scale=1.0)
    reports = run_suite(config)
    assert [r.check for r in reports] == ["euler", "signature_table"]
    assert all(r.passed for r in reports)


def test_suite_report_embeds_the_config():
    config = RunConfig("handmadeN", ["euler"], samples=3, seed=2,
                       tolerance=1e-6, method="analytic", step_scale=1.0)
    doc = suite_report(config)
    assert doc["config"]["example"] == "handmadeN"
    assert doc["reports"][0]["check"] == "euler"


def test_check_command_passes_and_is_deterministic(tmp_path, capsys):
    path = _write_config(tmp_path, {"example": "euclidean2",
                                    "checks": ["euler", "legendre_residue"],
                                    "samples": 5, "seed": 3})
    assert main(["check", path]) == 0
    first = capsys.readouterr().out
    assert main(["check", path]) == 0
    second = capsys.readouterr().out
    assert first == second
    doc = json.loads(first)
    assert [r["pass"] for r in doc["reports"]] == [True, True]


def test_check_command_fails_on_absurd_tolerance(tmp_path, capsys):
    path = _write_config(tmp_path, {"example": "quartic2",
                                    "checks": ["euler"], "samples": 5,
                                    "seed": 3, "method": "fd4",
                                    "tolerance": 1e-14})
    assert main(["check", path]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["reports"][0]["pass"] is False


def test_check_command_rejects_bad_config(tmp_path, capsys):
    path = _write_config(tmp_path, {"example": "nowhere"})
    assert main(["check", path]) == 2
    assert main(["check", str(tmp_path / "missing.json")]) == 2
    capsys.readouterr()


def test_eval_command_frozen_gradient(capsys):
    code = main(["eval", "euclidean2", "ell", "--x", "0", "0",
                 "--y", "3", "4"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == [6, 8]


def test_eval_command_unknown_object(capsys):
    assert main(["eval", "euclidean2", "chimera"]) == 2
    err = capsys.readouterr().err
    assert "chimera" in err


def test_ladder_command_splits_the_wick_metric(capsys):
    code = main(["ladder", "wick(0.5)", "--object", "g", "--to-level", "0",
                 "--x", "0", "0", "--y", "1", "2"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["base"]["alpha"] == 2
    assert [r["rank"] for r in doc["residues"]] == [1, 2]


def test_ladder_command_validates_level(capsys):
    assert main(["ladder", "euclidean2", "--object", "g",
                 "--to-level", "5"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv", [
    ["eval", "euclidean2", "phi", "--x", "0", "0", "--y", "0", "0"],
    ["eval", "quartic2", "phi", "--x", "0", "0", "--y", "1", "0"],
    ["ladder", "quartic2", "--x", "0", "0", "--y", "1", "0"],
])
def test_point_outside_the_domain_is_refused(capsys, argv):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "outside domain" in err
    assert f"x=[0.0, 0.0], y=[{argv[-2]}.0, {argv[-1]}.0]" in err


@pytest.mark.parametrize("argv", [
    ["eval", "euclidean2", "phi", "--x", "0", "0"],
    ["eval", "euclidean2", "phi", "--y", "1", "0"],
    ["ladder", "euclidean2", "--x", "0", "0"],
])
def test_lone_x_or_y_is_refused(capsys, argv):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "--x and --y go together" in err


def test_geodesic_names_a_refused_initial_state(capsys):
    assert main(["geodesic", "quartic2", "--x0", "0", "0",
                 "--y0", "1", "0"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "x=[0.0, 0.0], y=[1.0, 0.0] is outside domain 'quartic2'" in err


def test_typed_error_names_its_sample(capsys):
    # conformal2's factor e^(2 x^1) overflows far out, and phi is not finite
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["geodesic", "conformal2", "--x0", "0", "0", "--y0", "1",
                     "0.5", "--dt", "5", "--steps", "40"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "error: matrix has a non-finite entry at x=[")
    x, y = err.split(" at x=")[1].split(", y=")
    assert len(json.loads(x)) == len(json.loads(y)) == 2


_GEODESIC = ["geodesic", "euclidean2", "--x0", "0", "0", "--y0", "1", "0"]


@pytest.mark.parametrize("argv,option", [
    (_GEODESIC + ["--steps", "-3"], "--steps"),
    (_GEODESIC + ["--dt", "nan"], "--dt"),
    (_GEODESIC + ["--dt", "inf"], "--dt"),
    (["eval", "euclidean2", "phi", "--x", "0", "0", "0",
      "--y", "1", "1", "1"], "--x"),
    (["eval", "euclidean2", "phi", "--x", "0", "0", "--y", "1"], "--y"),
    (["geodesic", "euclidean2", "--x0", "0", "0", "0",
      "--y0", "1", "0", "1"], "--x0"),
    (["geodesic", "euclidean2", "--x0", "0", "0", "--y0", "1"], "--y0"),
    (["eval", "euclidean2", "phi", "--x", "nan", "0", "--y", "1", "0"],
     "--x"),
    (["geodesic", "euclidean2", "--x0", "0", "0", "--y0", "inf", "0"],
     "--y0"),
], ids=["steps", "dt_nan", "dt_inf", "eval_x", "eval_y", "geodesic_x0",
        "geodesic_y0", "eval_x_nan", "geodesic_y0_inf"])
def test_bad_numeric_input_names_its_option(capsys, argv, option):
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {option} ")


def test_geodesic_command_straight_line(capsys):
    code = main(["geodesic", "euclidean2", "--x0", "0", "0",
                 "--y0", "1", "2", "--dt", "0.01", "--steps", "100"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["completed"] is True
    assert doc["steps_taken"] == 100
    np.testing.assert_allclose(doc["final_x"], [1.0, 2.0], atol=1e-12)
    assert doc["energy_initial"] == pytest.approx(doc["energy_final"])


def test_report_command_small_run(capsys):
    code = main(["report", "--samples", "2", "--seed", "1"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    names = [s["config"]["example"] for s in doc["suites"]]
    assert "euclidean2" in names
    assert "wick(-1)" in names
    for suite in doc["suites"]:
        for report in suite["reports"]:
            assert report["pass"], (suite["config"]["example"],
                                    report["check"])


def test_canonical_json_renders_non_finite_as_null():
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    text = canonical_json({"a": float("nan"), "b": [float("inf"),
                                                    -np.inf, 1.5]})
    assert json.loads(text, parse_constant=reject) == {"a": None,
                                                       "b": [None, None, 1.5]}


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "anifield",
         "eval", "euclidean2", "L"],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert data["example"] == "euclidean2"
    assert data["object"] == "L"
