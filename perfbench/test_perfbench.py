"""Fast tests of the benchmark harness:  python3 -m pytest perfbench -q"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workload  # noqa: E402
from layers import EXACT  # noqa: E402
from workload import FAILED, KNOWN_FAIL, OK  # noqa: E402

SMALL_GEODESIC = {"kind": "geodesic", "dt": 0.002, "steps": 4,
                  "states": {"conformal2": 3, "quartic2": 1}}
SMALL_REPORT = {"kind": "report", "method": "analytic", "samples": 1}


def _report_text(reports, example="ex"):
    return json.dumps({"suites": [{"config": {"example": example},
                                   "reports": reports}]})


def _rep(check, defect, passed):
    return {"check": check, "max_abs_defect": defect, "pass": passed}


def test_benchmark_json_names_every_metric_with_its_unit():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workload.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert spec["paths"] == ["perfbench"]


def test_reference_lists_the_known_failing_fd4_verdicts():
    ref = workload.load_reference()
    assert len(ref["report-fd4"]["ops"]) == 73
    assert ref["report-analytic"]["known_fail"] == []
    assert "quartic2/functional_laws" in ref["report-fd4"]["known_fail"]


def test_report_verdicts_are_classified_against_the_reference():
    text = _report_text([_rep("a", 1e-9, True), _rep("b", 0.5, False),
                         _rep("c", 0.5, False)])
    out = workload.check_report(text, 1, None, {"ex/b", "ex/d"},
                                {"ex/a", "ex/b", "ex/c", "ex/d"})
    assert out["ex/a"][0] == OK
    assert out["ex/b"][0] == KNOWN_FAIL
    assert out["ex/c"][:1] == (FAILED,)            # flipped to fail
    assert out["ex/d"][0] == FAILED                # missing
    # a known failure that passes now is a fix, not a failure
    fixed = workload.check_report(_report_text([_rep("b", 0.0, True)]), 0,
                                  None, {"ex/b"}, {"ex/b"})
    assert fixed["ex/b"][0] == OK


@pytest.mark.parametrize("text", [
    '{"suites": [{"config": {"example": "ex"}, "reports": '
    '[{"check": "a", "max_abs_defect": nan, "pass": true}]}]}',
    '{"suites": [{"config": {"example": "ex"}, "reports": '
    '[{"check": "a", "max_abs_defect": NaN, "pass": true}]}]}',
    "", "error"])
def test_unparsable_report_fails_every_operation(text):
    out = workload.check_report(text, 0, None, set(), {"ex/a", "ex/b"})
    assert {v[0] for v in out.values()} == {FAILED}
    assert set(out) == {"ex/a", "ex/b"}


def test_non_finite_defect_and_wrong_exit_code_fail():
    out = workload.check_report(_report_text([_rep("a", None, True)]), 0,
                                None, set(), {"ex/a"})
    assert out["ex/a"][0] == FAILED
    out = workload.check_report(_report_text([_rep("a", 0.0, True)]), 1,
                                None, set(), {"ex/a"})
    assert out["ex/a"][0] == FAILED


def _geo(completed=True, steps=4, e0=1.0, ef=1.0):
    return json.dumps({"completed": completed, "steps_taken": steps,
                       "energy_initial": e0, "energy_final": ef})


def test_geodesic_checks():
    assert workload.check_geodesic(_geo(), 0, None, 4)[0] == OK
    assert workload.check_geodesic(_geo(), None, "DomainError: x", 4)[0] == FAILED
    assert workload.check_geodesic(_geo(completed=False), 0, None, 4)[0] == FAILED
    assert workload.check_geodesic(_geo(steps=3), 0, None, 4)[0] == FAILED
    assert workload.check_geodesic(_geo(ef=1.1), 0, None, 4)[0] == FAILED
    assert workload.check_geodesic(
        _geo().replace("1.0}", "nan}"), 0, None, 4)[0] == FAILED


def test_summary_counts_known_failures_in_fail_frac_only():
    ops = {"a": [OK, True, 0.0, "", 1.0], "b": [KNOWN_FAIL, False, 1.0, "", 2.0],
           "c": [FAILED, False, 1.0, "x", 3.0], "d": [OK, True, 0.0, "", 4.0]}
    record = {"peak_rss_mb": 60.0,
              "passes": [{"traced": False, "wall_s": 1.0, "layers": None,
                          "probe_s": run.PROBE_REF_S, "ops": ops}]}
    setups = [{"setup_s": 0.2, "probe_s": run.PROBE_REF_S}]
    metrics, _, rows, info = run.summarize(record, setups)
    assert (info["attempted"], info["failed"], info["known_fail"]) == (4, 1, 1)
    assert info["fail_frac"] == 0.5 and metrics["pass_frac"] == 0.5
    assert rows["c"][2] == FAILED and rows["c"][4] == 3.0


def test_times_are_scaled_by_the_speed_probe_of_each_pass():
    ops = {"a": [OK, True, 0.0, "", 10.0]}
    ref = run.PROBE_REF_S
    record = {"peak_rss_mb": 60.0,
              "passes": [{"traced": False, "wall_s": 4.0, "layers": None,
                          "probe_s": 2 * ref, "ops": ops}] * 2}
    setups = [{"setup_s": 0.3, "probe_s": 1.5 * ref}]
    metrics, _, _, info = run.summarize(record, setups)
    assert metrics["wall_s"] == pytest.approx(2.0)      # host twice as slow
    assert metrics["op_p50_ms"] == pytest.approx(5.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert info["raw"]["wall_s"] == 4.0 and info["raw"]["op_p50_ms"] == 10.0


def test_harrell_davis_quantile():
    assert run.hd_quantile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == pytest.approx(3.0)
    assert run.hd_quantile([7.0], 85) == 7.0
    # a gap at the median: the estimate lies between its two sides
    gap = [1.0] * 36 + [10.0] * 37
    assert 1.0 < run.hd_quantile(gap, 50) < 10.0
    assert run.hd_quantile(range(100), 85) > run.hd_quantile(range(100), 50)


def test_geodesic_argv_round_trips_tiny_negative_coordinates():
    from anifield import cli

    argv = workload.geodesic_argv("conformal2", [-1.6571547321556e-05, 0.5],
                                  [1e-300, -2.0], 0.002, 4)
    args = cli.build_parser().parse_args(argv)
    assert args.x0 == [-1.6571547321556e-05, 0.5]
    assert args.y0 == [1e-300, -2.0] and args.dt == 0.002


def test_tail_percentile_leaves_ten_operations():
    assert run.tail_percentile(73) == 85
    assert run.tail_percentile(80) == 85
    assert run.tail_percentile(40) == 75
    assert run.tail_percentile(12) == 50


def _short_run(spec, trace):
    return workload.run("geodesic" if spec["kind"] == "geodesic"
                        else "report-analytic", 5, 0.0, trace, spec=spec,
                        min_passes=1)


def test_every_metric_is_reported_on_a_short_report_run():
    record = _short_run(SMALL_REPORT, trace=1)
    setups = [{"setup_s": record["setup_s"], "probe_s": run.PROBE_REF_S}]
    metrics, layers, rows, info = run.summarize(record, setups)
    assert info["failed"] == 0 and len(rows) == 73
    assert set(metrics) == set(run.END_TO_END)
    assert set(layers) == set(run.PER_LAYER)
    for value in list(metrics.values()) + list(layers.values()):
        assert isinstance(value, (int, float)) and math.isfinite(value)
    assert metrics["wall_s"] > 0 and metrics["setup_s"] > 0
    assert layers["fields.call.count"] > layers["fields.call.top_count"] > 0


def test_passes_take_the_input_sets_in_turn():
    record = workload.run("geodesic", 5, 0.0, 1, spec=SMALL_GEODESIC,
                          min_passes=workload.INPUT_SETS + 1)
    for traced in (False, True):
        sets = [p["input_set"] for p in record["passes"]
                if p["traced"] == traced]
        assert sets == list(range(workload.INPUT_SETS)) + [0]
    assert all(p["probe_s"] > 0 for p in record["passes"])
    bench = workload.Workload("geodesic", 5, spec=SMALL_GEODESIC)
    bench.setup()
    assert len({json.dumps(argvs) for argvs in bench.inputs}) == len(
        bench.inputs) == workload.INPUT_SETS


def test_a_report_that_raises_fails_every_operation():
    bench = workload.Workload("report-analytic", 5, spec=SMALL_REPORT)
    bench.setup()

    class Broken:
        @staticmethod
        def main(argv):
            raise RuntimeError("broken before the first check")

    bench.cli = Broken
    wall, ops = bench.run_pass(0)
    assert len(ops) == 73 and {v[0] for v in ops.values()} == {FAILED}
    assert wall >= 0 and bench.probe_s() > 0


def test_traced_counts_repeat_exactly():
    runs = [_short_run(SMALL_GEODESIC, trace=1) for _ in range(2)]
    counts = [{name: p["layers"][name] for p in r["passes"] if p["traced"]
               for name in EXACT} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["fields.stencil.depth_max"] == 1
    assert counts[0]["fields.call.count"] > 0
