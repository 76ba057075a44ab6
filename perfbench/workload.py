"""Workload process of the benchmark.

Runs one workload in-process through the public CLI entry point
``anifield.cli.main``, times every operation from outside, checks every
output, and prints one JSON record as the last line of stdout.  ``run.py``
starts this file as a child process with a fixed environment (one BLAS
thread, no ``FINSLER_SEED``) and turns the record into metrics.

    python3 perfbench/workload.py --workload report-fd4 --seed 3 --seconds 36

An operation is one (example, check) call on the report workloads and one
``anifield geodesic`` call on the geodesic workload.  A pass is one full
run of the workload's operations.
"""

import argparse
import contextlib
import gc
import io
import json
import math
import os
import platform
import resource
import sys
import time
from decimal import Decimal
from pathlib import Path

import numpy

# The speed probe's einsum: the original, even while a traced pass has
# numpy.einsum replaced by a counting wrapper.
_einsum = numpy.einsum

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Sample counts keep a report pass at 2-7 s, so a run holds several passes.
# At 4 samples fd4 fails the same 8-9 known verdicts on each of seeds 0-19;
# at 2 samples the failing set varies between 6 and 9.
WORKLOADS = {
    "report-analytic": {"kind": "report", "method": "analytic",
                        "samples": 16},
    "report-fd4": {"kind": "report", "method": "fd4", "samples": 4},
    # Three conformal2 calls to each quartic2 call keep the median and the
    # tail operation inside one example instead of between the two.
    "geodesic": {"kind": "geodesic", "dt": 0.002, "steps": 50,
                 "states": {"conformal2": 60, "quartic2": 20}},
}

# The examples `anifield report` walks.
REPORT_EXAMPLES = ("conformal2", "euclidean2", "handmadeN", "minkowski2",
                   "quadchart", "quartic2", "wick(-2)", "wick(-1)",
                   "wick(0.5)")

# Largest relative energy drift |E_final - E_0| / |E_0| a geodesic call may
# show.  RK4 at dt = 0.002 over 50 steps stays below 1e-10 on the sampled
# conformal2 states and is exactly 0 on quartic2, whose spray vanishes.
DRIFT_BOUND = 1e-6

MIN_PASSES = 2

# Passes take their inputs in turn from this many input sets; set j of
# benchmark seed s is drawn with seed INPUT_SETS * s + j.  The work of one
# set depends on its samples (the field calls of an fd4 report range over
# +-8% between seeds), so medians over passes also average over inputs.
INPUT_SETS = 4

# Rounds of the speed probe; about 0.2 s on a 2.1 GHz Xeon vCPU.  A pass
# runs PROBE_PIECE rounds before each of its operations, so that the probe
# samples the host's speed over the same seconds as the pass.
PROBE_ROUNDS = 1500
PROBE_PIECE = 20

OK, KNOWN_FAIL, FAILED = "ok", "known_fail", "failed"


def load_reference():
    """Per report workload: every operation ("example/check") of the code
    the benchmark was written against, and those whose verdict was fail on
    at least one of seeds 0-19."""
    with open(HERE / "reference.json", encoding="utf-8") as handle:
        return json.load(handle)


def report_argv(spec, seed):
    return ["report", "--method", spec["method"],
            "--samples", str(spec["samples"]), "--seed", str(seed)]


def _plain(value):
    """Exact decimal without an exponent: argparse takes "-1e-05" for an
    option, but reads "-0.00001" as a negative number."""
    return format(Decimal(repr(float(value))), "f")


def geodesic_argv(example, x0, y0, dt, steps):
    return (["geodesic", example, "--x0"] + [_plain(v) for v in x0]
            + ["--y0"] + [_plain(v) for v in y0]
            + ["--dt", _plain(dt), "--steps", str(int(steps))])


# ---------------------------------------------------------------------------
# output checks; pure functions so the tests can feed them broken output


def _reject_constant(token):
    raise ValueError(f"non-JSON constant {token}")


def parse_output(text):
    """Strict JSON: bare nan/inf and NaN/Infinity are both unparsable."""
    return json.loads(text, parse_constant=_reject_constant)


def _finite(value):
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def check_report(text, rc, error, known_fail, expected_ops):
    """Classify every operation of one report pass.

    Returns {op: (status, verdict, defect, reason)}.  A fail verdict counts
    as FAILED unless the reference lists the operation as a known failure;
    a known failure that now passes is simply OK.
    """
    ops = {}
    try:
        if error is not None:
            raise ValueError(error)
        data = parse_output(text)
        suites = data["suites"]
        for suite in suites:
            example = suite["config"]["example"]
            for rep in suite["reports"]:
                ops[f"{example}/{rep['check']}"] = rep
    except (ValueError, KeyError, TypeError) as exc:
        reason = f"unparsable output: {exc}"[:200]
        return {op: (FAILED, None, None, reason) for op in expected_ops}

    all_pass = all(rep.get("pass") is True for rep in ops.values())
    rc_ok = rc == (0 if all_pass else 1)
    out = {}
    for op in sorted(set(expected_ops) | set(ops)):
        rep = ops.get(op)
        if rep is None:
            out[op] = (FAILED, None, None, "missing from the report")
            continue
        defect = rep.get("max_abs_defect")
        verdict = rep.get("pass")
        if not _finite(defect):
            out[op] = (FAILED, verdict, None, f"non-finite defect {defect!r}")
        elif not isinstance(verdict, bool):
            out[op] = (FAILED, None, defect, f"verdict {verdict!r}")
        elif not rc_ok:
            out[op] = (FAILED, verdict, defect, f"exit code {rc}")
        elif verdict:
            out[op] = (OK, True, defect, "")
        elif op in known_fail:
            out[op] = (KNOWN_FAIL, False, defect, "known failing verdict")
        else:
            out[op] = (FAILED, False, defect, "verdict flipped to fail")
    return out


def check_geodesic(text, rc, error, steps):
    """Classify one geodesic call: (status, verdict, drift, reason)."""
    if error is not None:
        return FAILED, None, None, error[:200]
    if rc != 0:
        return FAILED, None, None, f"exit code {rc}"
    try:
        data = parse_output(text)
        completed = data["completed"]
        taken = data["steps_taken"]
        e0, ef = data["energy_initial"], data["energy_final"]
    except (ValueError, KeyError, TypeError) as exc:
        return FAILED, None, None, f"unparsable output: {exc}"[:200]
    if completed is not True or taken != steps:
        return FAILED, False, None, f"incomplete: {taken} of {steps} steps"
    if not (_finite(e0) and _finite(ef)) or e0 == 0.0:
        return FAILED, False, None, f"energies {e0!r}, {ef!r}"
    drift = abs(ef - e0) / abs(e0)
    if drift > DRIFT_BOUND:
        return FAILED, False, drift, f"energy drift {drift:.3e}"
    return OK, True, drift, ""


# ---------------------------------------------------------------------------
# running


def call_main(cli, argv):
    """anifield.cli.main(argv) with stdout captured: (rc, text, error)."""
    buf = io.StringIO()
    error = None
    rc = None
    with contextlib.redirect_stdout(buf):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception as exc:  # the operation failed; keep measuring
            error = f"{type(exc).__name__}: {exc}"
    return rc, buf.getvalue(), error


class Workload:
    """Set-up and passes of one workload at one seed."""

    def __init__(self, name, seed, spec=None):
        self.seed = int(seed)
        self.spec = spec or WORKLOADS[name]
        entry = load_reference().get(name, {})
        self.expected = set(entry.get("ops", ()))
        self.known_fail = set(entry.get("known_fail", ()))
        self.op_ms = {}
        self.first_output = {}
        self.probe = [0.0, 0]  # seconds and rounds of the pass's probe

    def setup(self):
        """Import anifield, parse arguments, build the example bundles (and
        the geodesic initial states) of every input set; everything before
        the first operation."""
        from anifield import cli
        from anifield.catalog import get_example

        if ROOT / "src" not in Path(cli.__file__).resolve().parents:
            raise ImportError(f"anifield imported from {cli.__file__}, "
                              f"not from {ROOT / 'src'}")
        self.cli = cli
        parser = cli.build_parser()
        spec = self.spec
        self.inputs = []
        for seed in range(INPUT_SETS * self.seed,
                          INPUT_SETS * (self.seed + 1)):
            argvs = {}
            if spec["kind"] == "report":
                argvs["report"] = report_argv(spec, seed)
                for name in REPORT_EXAMPLES:
                    get_example(name)
            else:
                for example, count in spec["states"].items():
                    xs, ys = get_example(example).domain.sample(count, seed)
                    for i, (x, y) in enumerate(zip(xs, ys)):
                        argvs[f"{example}#{i:02d}"] = geodesic_argv(
                            example, x, y, spec["dt"], spec["steps"])
            for argv in argvs.values():
                parser.parse_args(argv)
            self.inputs.append(argvs)

    @contextlib.contextmanager
    def _timed_checks(self):
        """Time every CHECKS entry as one operation while the block runs."""
        from anifield.checks import CHECKS

        def timed(check, fn):
            def run_check(bundle, config):
                self._probe()
                t0 = time.perf_counter()
                try:
                    return fn(bundle, config)
                finally:
                    self.op_ms[f"{bundle.name}/{check}"] = (
                        (time.perf_counter() - t0) * 1e3)
            return run_check

        checks = dict(CHECKS)
        CHECKS.update({name: timed(name, fn) for name, fn in checks.items()})
        try:
            yield
        finally:
            CHECKS.update(checks)

    def _probe(self):
        self.probe[0] += speed_probe(PROBE_PIECE)
        self.probe[1] += PROBE_PIECE

    def probe_s(self):
        """Seconds the pass's probe pieces took, per PROBE_ROUNDS rounds."""
        seconds, rounds = self.probe
        return seconds * PROBE_ROUNDS / rounds

    def run_pass(self, index):
        """One full pass on input set `index` mod INPUT_SETS; returns
        (wall_s, {op: (status, verdict, defect, reason, ms)}).  The wall
        time leaves out the probe pieces.  One piece runs before the pass,
        so that a pass whose operations never start still has a probe."""
        which = index % INPUT_SETS
        self.probe = [0.0, 0]
        self._probe()
        argvs = self.inputs[which]
        if self.spec["kind"] == "report":
            return self._report_pass(which, argvs["report"])
        return self._geodesic_pass(which, argvs)

    def _same_as_first(self, key, text):
        first = self.first_output.setdefault(key, text)
        return first == text

    def _report_pass(self, which, argv):
        self.op_ms.clear()
        with self._timed_checks():
            t0 = time.perf_counter()
            probed = self.probe[0]
            rc, text, error = call_main(self.cli, argv)
            wall = time.perf_counter() - t0 - (self.probe[0] - probed)
        results = check_report(text, rc, error, self.known_fail,
                               self.expected | set(self.op_ms))
        stable = self._same_as_first(which, text)
        ops = {}
        for op, (status, verdict, defect, reason) in results.items():
            if not stable and status != FAILED:
                status, reason = FAILED, "output differs from the first pass"
            ops[op] = (status, verdict, defect, reason, self.op_ms.get(op))
        return wall, ops

    def _geodesic_pass(self, which, argvs):
        ops = {}
        t_pass = time.perf_counter()
        probed = self.probe[0]
        for op, argv in argvs.items():
            self._probe()
            t0 = time.perf_counter()
            rc, text, error = call_main(self.cli, argv)
            ms = (time.perf_counter() - t0) * 1e3
            status, verdict, drift, reason = check_geodesic(
                text, rc, error, self.spec["steps"])
            if (status != FAILED
                    and not self._same_as_first((which, op), text)):
                status, reason = FAILED, "output differs from the first pass"
            ops[op] = (status, verdict, drift, reason, ms)
        return time.perf_counter() - t_pass - (self.probe[0] - probed), ops


def environment(seed):
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"seed": seed, "nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "finsler_seed": os.environ.get("FINSLER_SEED")}


def speed_probe(rounds=PROBE_ROUNDS):
    """Seconds a fixed kernel takes: memoised recursive central differences
    over small numpy arrays, the kind of work a field graph does, written
    without anifield so that no change to the program moves it.  Run
    between operations, it measures how fast the shared host runs."""
    x0 = numpy.array([0.3, 0.7])
    y0 = numpy.array([1.1, -0.4])
    t0 = time.perf_counter()
    for r in range(rounds):
        memo = {}

        def node(depth, a, b):
            key = (depth, a.tobytes(), b.tobytes())
            hit = memo.get(key)
            if hit is not None:
                return hit
            if depth == 0:
                out = _einsum("i,i->", a, b) + float(a @ a) * b
            else:
                out = (node(depth - 1, a + 1e-3, b)
                       - node(depth - 1, a - 1e-3, b)) / 2e-3
            memo[key] = out
            return out

        node(5, x0 + r * 1e-3, y0)
    return time.perf_counter() - t0


def _more(passes, trace, min_passes, elapsed, seconds):
    """Whether to start another pass: until each kind has `min_passes`, and
    then while the next pass, timed like the last one of its kind, still
    ends within `seconds`."""
    traced = sum(p["traced"] for p in passes)
    if len(passes) - traced < min_passes or (trace and traced < min_passes):
        return True
    last = passes[-2] if trace else passes[-1]
    return elapsed + last["wall_s"] <= seconds


def run(name, seed, seconds, trace, spawned_at=None, setup_only=False,
        spec=None, min_passes=MIN_PASSES):
    """Set up, then run passes for about `seconds` (at least `min_passes`;
    with tracing, untraced and traced passes alternate and each kind gets
    at least `min_passes`).  The j-th pass of each kind takes input set j;
    the first traced pass, on set 0, gives counts that repeat exactly for a
    seed.  Returns the JSON-ready record."""
    t_setup = time.perf_counter()
    bench = Workload(name, seed, spec=spec)
    bench.setup()
    ready = time.monotonic()
    record = {"setup_s": (ready - spawned_at if spawned_at is not None
                          else time.perf_counter() - t_setup)}
    if setup_only:
        record["probe_s"] = speed_probe()
        return record

    tracer = None
    if trace:
        from layers import Tracer
        tracer = Tracer()
    passes = []
    start = time.perf_counter()
    while _more(passes, trace, min_passes, time.perf_counter() - start,
                seconds):
        traced = bool(trace) and len(passes) % 2 == 1
        index = sum(p["traced"] == traced for p in passes)
        # Free the previous pass's field graphs first, as a fresh CLI
        # process would start without them.
        gc.collect()
        if traced:
            tracer.reset()
            with tracer.installed():
                wall, ops = bench.run_pass(index)
            layers = tracer.metrics()
        else:
            wall, ops = bench.run_pass(index)
            layers = None
        passes.append({"traced": traced, "input_set": index % INPUT_SETS,
                       "wall_s": wall, "probe_s": bench.probe_s(),
                       "layers": layers,
                       "ops": {op: list(v) for op, v in ops.items()}})
        if len(passes) == 1:
            # A CLI process makes one pass; later passes only add heap
            # fragmentation to the peak.
            record["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    record["passes"] = passes
    record["env"] = environment(seed)
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, default=None,
                        help="time.monotonic() of the parent at spawn")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    record = run(args.workload, args.seed, args.seconds, args.trace,
                 spawned_at=args.spawned_at, setup_only=args.setup_only)
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
