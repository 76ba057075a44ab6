"""Config parsing, canonical serialization, and the command entry points."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from anifield import cli
from anifield.catalog import get_example
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
    assert config.as_dict() == {"example": "euclidean2", "checks": ["euler"],
                                "samples": 200, "seed": 7,
                                "tolerance": 1e-6, "method": "analytic"}


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
    # the stencil step follows from the nesting depth; no key sets it
    ('{"example": "euclidean2", "step_scale": -1}', "step_scale"),
    ('{"example": "euclidean2", "step_scale": 2}',
     "unknown config keys: step_scale;"),
    ('{"example": ', "line"),
    # each value of the wrong JSON type is refused by its key
    ('{"example": "euclidean2", "samples": null}', "samples must be"),
    ('{"example": "euclidean2", "samples": true}', "samples must be"),
    ('{"example": "euclidean2", "samples": 2.7}', "samples must be"),
    ('{"example": "euclidean2", "seed": null}', "seed must be"),
    ('{"example": "euclidean2", "seed": 1.5}', "seed must be"),
    ('{"example": "euclidean2", "seed": -1}', "seed must be"),
    ('{"example": "euclidean2", "tolerance": null}', "tolerance must be"),
    ('{"example": "euclidean2", "tolerance": [1]}', "tolerance must be"),
    ('{"example": "euclidean2", "checks": [1]}', "checks must be"),
    ('{"example": "euclidean2", "checks": [["euler"]]}', "checks must be"),
    ('{"example": "euclidean2", "checks": "euler"}', "checks must be"),
    ('{"example": "euclidean2", "checks": {"euler": 1}}', "checks must be"),
])
def test_parse_config_rejections(payload, fragment):
    with pytest.raises(ValueError, match=fragment):
        parse_config(payload)


def test_check_refuses_a_null_sample_count(tmp_path, capsys):
    """A value of the wrong type is a usage error, not a failed check."""
    path = tmp_path / "config.json"
    path.write_text('{"example": "euclidean2", "samples": null}')
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: samples must be an integer of at least 1, got null\n"


_REFUSED = {"tolerance": "tolerance must be positive and finite",
            "step_scale": "unknown config keys: step_scale; known keys: "
                          "example, checks, samples, seed, tolerance, "
                          "method\n"}


@pytest.mark.parametrize("key", ["tolerance", "step_scale"])
@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN"])
def test_config_refuses_a_non_finite_tolerance_or_step(tmp_path, capsys,
                                                       key, value):
    """json.loads reads these constants as floats; a tolerance of inf
    passed every verdict.  A step is no config key at all."""
    path = tmp_path / "config.json"
    path.write_text(f'{{"example": "euclidean2", "checks": ["euler"], '
                    f'"samples": 2, "{key}": {value}}}')
    assert main(["check", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {_REFUSED[key]}")


@pytest.mark.parametrize("flag,key", [("--tolerance", "tolerance"),
                                      ("--step-scale", "step_scale")],
                         ids=["tolerance", "step_scale"])
@pytest.mark.parametrize("value", ["inf", "nan"])
def test_report_refuses_a_non_finite_tolerance_or_step(capsys, flag, key,
                                                       value):
    assert main(["report", "--samples", "2", flag, value]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    if key == "tolerance":
        assert err.startswith("error: tolerance must be positive and finite")
    else:
        assert f"unrecognized arguments: --step-scale {value}" in err


def test_report_has_no_step_scale_flag(capsys):
    assert main(["report", "--samples", "2", "--step-scale", "2"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.endswith("error: unrecognized arguments: --step-scale 2\n")


@pytest.mark.parametrize("argv,code", [
    (["report", "--bogus"], 2),
    (["report", "--samples", "many"], 2),
    ([], 2),
    (["--help"], 0),
    (["report", "--help"], 0),
], ids=["unknown_flag", "bad_value", "no_command", "help", "report_help"])
def test_main_returns_argparse_exit_code(capsys, argv, code):
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert ("usage: anifield" in out) == (code == 0)
    assert ("error:" in err) == (code == 2)


def _python_dash_m(*argv):
    """`python -W error::RuntimeWarning -m anifield *argv`, run on `src/`."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "anifield",
         *argv], capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_keeps_argparse_exit_codes():
    assert _python_dash_m("report", "--bogus").returncode == 2
    assert _python_dash_m("--help").returncode == 0


def test_environment_seed_wins(monkeypatch):
    monkeypatch.setenv("FINSLER_SEED", "99")
    config = parse_config('{"example": "euclidean2", "seed": 7}')
    assert config.seed == 99
    for raw in ("many", "-1"):
        monkeypatch.setenv("FINSLER_SEED", raw)
        with pytest.raises(ValueError, match="FINSLER_SEED must be"):
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
                       seed=1, tolerance=1e-6, method="analytic")
    reports = run_suite(config)
    assert [r.check for r in reports] == ["euler", "signature_table"]
    assert all(r.passed for r in reports)


def test_suite_report_embeds_the_config():
    config = RunConfig("handmadeN", ["euler"], samples=3, seed=2,
                       tolerance=1e-6, method="analytic")
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


def test_ladder_command_refuses_a_scalar(capsys):
    assert main(["ladder", "euclidean2", "--object", "L"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "'L' is a scalar" in err and "--to-level" not in err


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
    # conformal2's factor e^(2 x^1) overflows far out, and phi is not
    # finite; the overflow writes no numpy warning, only the error line
    assert main(["geodesic", "conformal2", "--x0", "0", "0", "--y0", "1",
                 "0.5", "--dt", "5", "--steps", "40"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.endswith("\n")
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


# stdout of `anifield geodesic`, recorded from the array form of the RK4
# loop; stepping on Python floats reproduces it byte for byte.  quartic2
# under fd4 stencils phi in x at every stage; its run was recorded with the
# array form of the one-sample stencil.  phi does not depend on x, but the
# stencil's -f + 8 f rounds where 7 phi is not exact, so its spray is a
# residue of ~1e-14 and the curve drifts off the straight line in the last
# digits.  The minkowski2 run leaves the domain where x overflows, at a
# stage of its 16th step.
_NEAR = ["--x0", "0.1", "0.2", "--dt", "0.01", "--steps", "40"]
_GEODESIC_STDOUT = {
    "conformal2": (
        ["conformal2", "--y0", "1", "0.5"] + _NEAR,
        '{"completed":true,"dt":0.01,"energy_final":1.5267534478471403,'
        '"energy_initial":1.5267534477002123,"example":"conformal2",'
        '"final_x":[0.44657359036490402,0.34189705440856988],'
        '"final_y":[0.74999999994743094,0.25000000006567324],"steps":40,'
        '"steps_taken":40,"x0":[0.10000000000000001,0.20000000000000001],'
        '"y0":[1,0.5]}'),
    "conformal2_fd4": (
        ["conformal2", "--method", "fd4", "--y0", "1", "0.5"] + _NEAR,
        '{"completed":true,"dt":0.01,"energy_final":1.5267534478471403,'
        '"energy_initial":1.5267534477002123,"example":"conformal2",'
        '"final_x":[0.44657359036490402,0.34189705440856988],'
        '"final_y":[0.74999999994743094,0.25000000006567324],"steps":40,'
        '"steps_taken":40,"x0":[0.10000000000000001,0.20000000000000001],'
        '"y0":[1,0.5]}'),
    "quartic2": (
        ["quartic2", "--y0", "1", "0.7"] + _NEAR,
        '{"completed":true,"dt":0.01,"energy_final":1.1135977729862789,'
        '"energy_initial":1.1135977729862789,"example":"quartic2",'
        '"final_x":[0.50000000000000033,0.48000000000000026],"final_y":[1,'
        '0.69999999999999996],"steps":40,"steps_taken":40,'
        '"x0":[0.10000000000000001,0.20000000000000001],"y0":[1,'
        '0.69999999999999996]}'),
    "quartic2_fd4": (
        ["quartic2", "--method", "fd4", "--y0", "1", "0.7"] + _NEAR,
        '{"completed":true,"dt":0.01,"energy_final":1.1135977729862727,'
        '"energy_initial":1.1135977729862789,"example":"quartic2",'
        '"final_x":[0.49999999999999856,0.48000000000000015],'
        '"final_y":[0.99999999999999689,0.69999999999999885],"steps":40,'
        '"steps_taken":40,"x0":[0.10000000000000001,0.20000000000000001],'
        '"y0":[1,0.69999999999999996]}'),
    "euclidean2": (
        ["euclidean2", "--y0", "1", "0.5"] + _NEAR,
        '{"completed":true,"dt":0.01,"energy_final":1.25,'
        '"energy_initial":1.25,"example":"euclidean2",'
        '"final_x":[0.50000000000000033,0.40000000000000019],"final_y":[1,'
        '0.5],"steps":40,"steps_taken":40,"x0":[0.10000000000000001,'
        '0.20000000000000001],"y0":[1,0.5]}'),
    "minkowski2_leaves": (
        ["minkowski2", "--x0", "1e308", "0", "--y0", "0.5", "1", "--dt", "1e307",
         "--steps", "40"],
        '{"completed":false,"dt":9.9999999999999999e+306,'
        '"energy_final":0.75,"energy_initial":0.75,"example":"minkowski2",'
        '"final_x":[1.7500000000000012e+308,1.4999999999999996e+308],'
        '"final_y":[0.5,1],"steps":40,"steps_taken":15,"x0":[1e+308,0],'
        '"y0":[0.5,1]}'),
}


@pytest.mark.parametrize("run", sorted(_GEODESIC_STDOUT))
def test_geodesic_stdout_is_unchanged(capsys, run):
    argv, stdout = _GEODESIC_STDOUT[run]
    assert main(["geodesic"] + argv) == 0
    out, err = capsys.readouterr()
    assert out == stdout + "\n" and err == ""


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


# SHA-256 of `anifield report --method M --samples N --seed 0` stdout,
# trailing newline included, per (M, N): 4 samples in both methods, and
# the 16 samples the benchmark's analytic report runs.  A change that
# moves a number of the report updates these digests and lists every moved
# number in CHANGES.md.
_REPORT_SHA256 = {
    ("analytic", 4):
        "b7404d59bfb16985dda30b1d0405aba67aa2db4455e830e1cf0b23bb577395e9",
    ("fd4", 4):
        "4c6a8f29fb9da1dd2fae9cc840c099e839e5412036e99bfa21e52df1683f5849",
    ("analytic", 16):
        "5cdaf7cb46bb7ac5911b9d855eb00c3f47503008437297a3cc839282f77b6c39",
}


@pytest.mark.parametrize("method, samples", sorted(_REPORT_SHA256),
                         ids=["analytic", "analytic-16", "fd4"])
def test_report_stdout_is_unchanged(capsys, monkeypatch, method, samples):
    monkeypatch.delenv("FINSLER_SEED", raising=False)
    assert main(["report", "--method", method, "--samples", str(samples),
                 "--seed", "0"]) == 0
    out, err = capsys.readouterr()
    assert (hashlib.sha256(out.encode()).hexdigest()
            == _REPORT_SHA256[method, samples])
    assert err == ""


@pytest.mark.parametrize("command", ["check", "report"])
def test_a_suite_builds_its_bundle_once(monkeypatch, tmp_path, capsys,
                                        command):
    """The bundle built to decide which checks apply is the one the suite
    runs on: one build per suite."""
    built = []
    monkeypatch.setattr(cli, "get_example",
                        lambda name: built.append(name) or get_example(name))
    if command == "check":
        argv = ["check", _write_config(tmp_path, {"example": "quartic2",
                                                  "samples": 2})]
    else:
        argv = ["report", "--samples", "2"]
    assert main(argv) == 0
    suites = json.loads(capsys.readouterr().out).get("suites")
    names = ["quartic2"] if suites is None else [
        suite["config"]["example"] for suite in suites]
    assert built == names


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_fd4_report_passes_every_verdict(capsys, seed):
    """Nested stencils take a step for their depth; one step for every
    depth failed 8-9 of these 73 verdicts."""
    code = main(["report", "--method", "fd4", "--samples", "4", "--seed",
                 str(seed)])
    doc = json.loads(capsys.readouterr().out)
    failed = [(suite["config"]["example"], report["check"],
               report["max_abs_defect"])
              for suite in doc["suites"] for report in suite["reports"]
              if not report["pass"]]
    assert failed == [] and code == 0
    assert sum(len(suite["reports"]) for suite in doc["suites"]) == 73


def test_canonical_json_renders_non_finite_as_null():
    def reject(token):
        raise ValueError(f"non-JSON constant {token}")

    text = canonical_json({"a": float("nan"), "b": [float("inf"),
                                                    -np.inf, 1.5]})
    assert json.loads(text, parse_constant=reject) == {"a": None,
                                                       "b": [None, None, 1.5]}


def test_python_dash_m_runs_the_cli():
    done = _python_dash_m("eval", "euclidean2", "L")
    assert done.returncode == 0, done.stderr
    data = json.loads(done.stdout)
    assert data["example"] == "euclidean2"
    assert data["object"] == "L"


@pytest.mark.parametrize("argv,code", [
    (["--help"], 0),
    (["report", "--samples", "many"], 2),
    (["geodesic", "quartic2", "--x0", "0.1", "0.2", "--y0", "1", "0.5",
      "--steps", "0"], 0),
], ids=["help", "usage_error", "geodesic"])
def test_main_parses_with_one_parser_and_repeats_its_output(capsys, argv,
                                                            code):
    """`main` builds its parser once per process; a call after another
    prints what the first printed, and what a new `build_parser` prints."""
    outputs = []
    for _ in range(2):
        assert main(argv) == code
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert cli._parser() is cli._parser()
    if code == 2:
        with pytest.raises(SystemExit) as info:
            cli.build_parser().parse_args(argv)
        assert info.value.code == 2
        assert capsys.readouterr().err == outputs[0].err
        assert outputs[0].err.startswith("usage: anifield report")
