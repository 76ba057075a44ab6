"""Benchmark of the anifield CLI, end to end and per layer.

    python3 perfbench/run.py --workload report-analytic --seed 1 --seconds 36 --trace 0

Runs from the root of a source checkout; anifield is imported from
``src/``.  Starts ``workload.py`` in fresh processes with one BLAS/OpenMP
thread and no ``FINSLER_SEED``: a few processes that only set up (for
``setup_s``), then one that runs whole passes of the workload for
``--seconds`` in a closed loop, one client, and checks every output.

Times are scaled to a reference machine speed.  The host is shared, and
how fast it runs drifts by tens of percent over minutes; so the workload
process runs pieces of a fixed speed probe (``workload.speed_probe``, which
uses no anifield code) between the operations of every pass, and each time
of the pass is multiplied by ``PROBE_REF_S / probe seconds``.  A change to
anifield moves the scaled times as much as the unscaled ones; a slower
host moves them far less.  The unscaled values are printed too.  Passes
take their inputs in turn from a few input sets drawn from ``--seed``
(``workload.INPUT_SETS``), so that a run averages over inputs as well.

Prints the environment, one line per operation (example, check, verdict,
defect, median ms, status), one line per metric with its unit, and as the
last line the JSON result.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones plus the tracing overhead.
"""

import sys

sys.dont_write_bytecode = True  # the benchmark leaves no __pycache__ behind

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

from layers import EXACT, METRICS as LAYER_METRICS  # noqa: E402
from workload import FAILED, KNOWN_FAIL, OK, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "pass_frac": "ratio",
    "peak_rss_mb": "MB",
}
PER_LAYER = {**LAYER_METRICS, "trace.overhead_s": "s"}

SETUP_PROBES = 7
# Seconds the speed probe (workload.speed_probe) takes at the reference
# speed, about its median on a 2.1 GHz Xeon vCPU of a shared 2-vCPU host.
PROBE_REF_S = 0.2
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env():
    env = dict(os.environ)
    env.pop("FINSLER_SEED", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return env


def spawn(args, timeout):
    """Run workload.py with `args`; return its JSON record."""
    argv = [sys.executable, str(HERE / "workload.py")] + args
    argv += ["--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(argv, env=child_env(), cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(count):
    """Highest multiple of 5 that leaves at least 10 operations beyond it
    (p85 for 73 operations); 50 when there are fewer than 20."""
    best = 50
    for p in range(50, 100, 5):
        if count * (100 - p) / 100 >= 10:
            best = p
    return best


def hd_quantile(values, p, grid=20000):
    """Harrell-Davis estimate of the `p`-th percentile: a Beta-weighted
    mean of all order statistics.  Unlike a single order statistic it moves
    little when the values near the percentile have a gap between them, as
    the per-operation latencies of a report do around their median."""
    x = sorted(values)
    n = len(x)
    if n == 1:
        return x[0]
    q = p / 100
    a, b = q * (n + 1), (1 - q) * (n + 1)
    # Mass of Beta(a, b) over each ((i-1)/n, i/n], by the midpoint rule.
    t = (numpy.arange(grid) + 0.5) / grid
    logpdf = (a - 1) * numpy.log(t) + (b - 1) * numpy.log1p(-t)
    pdf = numpy.exp(logpdf - logpdf.max())
    weights = numpy.bincount((t * n).astype(int), weights=pdf, minlength=n)
    return float(numpy.dot(weights, x) / weights.sum())


def speed(probe_s):
    """Factor that scales a time measured while the speed probe took
    `probe_s` seconds to the time at the reference speed."""
    return PROBE_REF_S / probe_s


def summarize(record, setups):
    """Metrics, per-operation rows and counts from one workload record and
    the records of the set-up probes.

    Every time metric is scaled to the reference speed: each pass by the
    speed probe run between its operations, each set-up by the probe its
    process ran after set-up.  The unscaled values are returned
    in info["raw"]."""
    passes = record["passes"]
    factors = [speed(p["probe_s"]) for p in passes]
    plain = [i for i, p in enumerate(passes) if not p["traced"]]
    traced = [i for i, p in enumerate(passes) if p["traced"]]

    tally = defaultdict(int)
    op_ms = defaultdict(list)
    raw_ms = defaultdict(list)
    rows = {}
    for i, p in enumerate(passes):
        for op, (status, verdict, defect, reason, ms) in p["ops"].items():
            tally[status] += 1
            if ms is not None and not p["traced"]:
                op_ms[op].append(ms * factors[i])
                raw_ms[op].append(ms)
            if op not in rows or status == FAILED:
                rows[op] = [verdict, defect, status, reason]
    attempted = sum(tally.values())
    for op, row in rows.items():
        row.append(statistics.median(op_ms[op]) if op in op_ms else None)
    # Percentiles over the per-operation medians: the tail percentile then
    # leaves at least ten distinct operations beyond it.
    medians = [statistics.median(v) for v in op_ms.values()]
    raw_medians = [statistics.median(v) for v in raw_ms.values()]
    tail_p = tail_percentile(len(medians))

    metrics = {
        "wall_s": statistics.median(
            passes[i]["wall_s"] * factors[i] for i in plain),
        "setup_s": statistics.median(
            r["setup_s"] * speed(r["probe_s"]) for r in setups),
        "op_p50_ms": hd_quantile(medians, 50),
        "op_tail_ms": hd_quantile(medians, tail_p),
        "pass_frac": tally[OK] / attempted,
        "peak_rss_mb": record["peak_rss_mb"],
    }
    info = {
        "attempted": attempted,
        "failed": tally[FAILED],
        "known_fail": tally[KNOWN_FAIL],
        "fail_frac": (tally[FAILED] + tally[KNOWN_FAIL]) / attempted,
        "tail_p": tail_p,
        "ops": len(op_ms),
        "executions": sum(len(v) for v in op_ms.values()),
        "passes": len(plain),
        "probe_s": statistics.median(p["probe_s"] for p in passes),
        "raw": {
            "wall_s": statistics.median(passes[i]["wall_s"] for i in plain),
            "setup_s": statistics.median(r["setup_s"] for r in setups),
            "op_p50_ms": hd_quantile(raw_medians, 50),
            "op_tail_ms": hd_quantile(raw_medians, tail_p),
        },
    }
    layers = {}
    if traced:
        for name in LAYER_METRICS:
            values = [passes[i]["layers"][name] for i in traced]
            if name not in EXACT:
                layers[name] = statistics.median(values)
                continue
            # Counts of the first traced pass, on input set 0; every
            # traced pass on that set must repeat them.
            first = passes[traced[0]]["input_set"]
            layers[name] = values[0]
            if any(v != values[0] for i, v in zip(traced, values)
                   if passes[i]["input_set"] == first):
                info.setdefault("unsteady_counts", []).append(name)
        layers["trace.overhead_s"] = statistics.median(
            passes[i]["wall_s"] * factors[i] for i in traced) - metrics["wall_s"]
        info["traced_passes"] = len(traced)
    return metrics, layers, rows, info


def _fmt(value):
    return "-" if value is None else f"{value:.6g}"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "anifield" / "__init__.py").is_file():
        print(f"error: no anifield sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [spawn(common + ["--setup-only"], deadline - time.monotonic())
                  for _ in range(SETUP_PROBES)]
        record = spawn(common + ["--seconds", repr(args.seconds),
                                 "--trace", str(args.trace)],
                       deadline - time.monotonic())
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics, layers, rows, info = summarize(record, setups)
    print(f"# perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("# op verdict defect median_ms status reason")
    for op in sorted(rows):
        verdict, defect, status, reason, ms = rows[op]
        print(f"op {op} {verdict} {_fmt(defect)} {_fmt(ms)} {status}"
              + (f" {reason}" if reason else ""))
    print(f"# {info['passes']} untraced passes, {info['ops']} operations per "
          f"pass; op_p50_ms and op_tail_ms (p{info['tail_p']}) are over "
          f"{info['executions']} executions")
    print(f"# attempted {info['attempted']}, failed {info['failed']}, "
          f"known failing verdicts {info['known_fail']}")
    print(f"# times are scaled to the reference speed; the speed probe took "
          f"{info['probe_s']:.6g} s (median), {PROBE_REF_S:g} s at the "
          f"reference")
    for name, value in info["raw"].items():
        print(f"unscaled {name} {value!r} {END_TO_END[name]}")
    for name, unit in END_TO_END.items():
        print(f"metric {name} {metrics[name]!r} {unit}")
    print(f"metric fail_frac {info['fail_frac']!r} ratio")
    if args.trace:
        print(f"# {info['traced_passes']} traced passes; counts are those of "
              f"the first, on input set 0")
        for name, unit in PER_LAYER.items():
            print(f"layer {name} {layers[name]!r} {unit}")
        for name in info.get("unsteady_counts", []):
            print(f"# warning: {name} differs between traced passes")
    chosen = PER_LAYER if args.trace else END_TO_END
    values = layers if args.trace else metrics
    print(json.dumps({
        "correct": info["failed"] == 0,
        "attempted": info["attempted"],
        "failed": info["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in chosen.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
