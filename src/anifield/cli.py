"""Command-line front end: run check suites on the built-in examples,
evaluate fields at points, split fields along the ladder, and integrate
geodesics.  All output is canonical JSON (sorted keys, 17 significant
digits) so identical configs and seeds give byte-identical reports.
"""

import argparse
import dataclasses
import functools
import json
import os
import sys

import numpy as np

from .catalog import example_names, get_example
from .checks import CHECKS, applicable_checks
from .connections import canonical_spray, geodesic_integrate
from .errors import AnifieldError, DomainError
from .fields import DiffEngine, _require_inside
from .ladder import decompose

_SEED_ENV = "FINSLER_SEED"


@dataclasses.dataclass
class RunConfig:
    example: str
    checks: list
    samples: int = 200
    seed: int = 0
    tolerance: float = 1e-6
    method: str = "analytic"

    def as_dict(self):
        return dataclasses.asdict(self)


_CONFIG_KEYS = tuple(f.name for f in dataclasses.fields(RunConfig))


def _env_seed(seed):
    raw = os.environ.get(_SEED_ENV)
    if raw is None:
        return seed
    try:
        seed = int(raw)
    except ValueError:
        seed = None
    if seed is None or seed < 0:
        raise ValueError(f"{_SEED_ENV} must be an integer of at least 0, "
                         f"got {raw!r}")
    return seed


def _integer(data, key, default, least):
    """`data[key]`, or `default` when it is missing: a JSON integer (not a
    bool) of at least `least`, else a ValueError naming `key`."""
    value = data.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{key} must be an integer of at least {least}, "
                         f"got {json.dumps(value)}")
    return value


def _build_config(data):
    """(config, bundle): the RunConfig `data` asks for, and the bundle of
    its example, built once to decide which checks apply to it."""
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}; "
                         f"known keys: {', '.join(_CONFIG_KEYS)}")
    if "example" not in data:
        raise ValueError("config needs an \"example\" name; available: "
                         + ", ".join(example_names()))
    try:
        bundle = get_example(str(data["example"]))
    except DomainError as exc:
        raise ValueError(str(exc))

    allowed = applicable_checks(bundle)
    checks = data.get("checks", allowed)
    if not (isinstance(checks, list)
            and all(isinstance(c, str) for c in checks)):
        raise ValueError(f"checks must be a list of check names, "
                         f"got {json.dumps(checks)}")
    checks = checks or allowed
    bad = sorted(set(checks) - set(CHECKS))
    if bad:
        raise ValueError(f"unknown checks: {', '.join(bad)}; vocabulary: "
                         + ", ".join(sorted(CHECKS)))
    inapplicable = sorted(set(checks) - set(allowed))
    if inapplicable:
        raise ValueError(
            f"checks not applicable to {bundle.name!r}: "
            f"{', '.join(inapplicable)}; applicable: {', '.join(allowed)}")

    samples = _integer(data, "samples", 200, 1)
    tolerance = data.get("tolerance", 1e-6)
    if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
        raise ValueError(f"tolerance must be a number, "
                         f"got {json.dumps(tolerance)}")
    tolerance = float(tolerance)
    if not 0.0 < tolerance < np.inf:
        raise ValueError(f"tolerance must be positive and finite, "
                         f"got {tolerance}")
    method = str(data.get("method", "analytic"))
    if method not in ("analytic", "fd4"):
        raise ValueError(f"method must be \"analytic\" or \"fd4\", "
                         f"got {method!r}")
    seed = _env_seed(_integer(data, "seed", 0, 0))
    return RunConfig(example=str(data["example"]), checks=sorted(checks),
                     samples=samples, seed=seed, tolerance=tolerance,
                     method=method), bundle


def parse_config(text):
    """Validate a JSON config and apply defaults; see RunConfig."""
    return _parse_config(text)[0]


def _parse_config(text):
    """(config, bundle) of a JSON config, as `_build_config` gives them."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error at line {exc.lineno}, "
                         f"column {exc.colno}: {exc.msg}")
    if not isinstance(data, dict):
        raise ValueError("config must be a JSON object")
    return _build_config(data)


def run_suite(config, bundle=None):
    """Run the configured checks; returns CheckReports sorted by name.  They
    run on `bundle`, the config's example, built here when None."""
    if bundle is None:
        bundle = get_example(config.example)
    return [CHECKS[name](bundle, config) for name in sorted(config.checks)]


def suite_report(config, bundle=None):
    reports = run_suite(config, bundle)
    return {"config": config.as_dict(),
            "reports": [r.as_dict() for r in reports]}


def canonical_json(obj):
    """Deterministic rendering: sorted keys, floats at 17 significant
    digits, no whitespace variation.  NaN and +-inf, which JSON cannot
    represent, render as null."""
    if isinstance(obj, dict):
        parts = (json.dumps(str(k)) + ":" + canonical_json(obj[k])
                 for k in sorted(obj))
        return "{" + ",".join(parts) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        if not np.isfinite(obj):
            return "null"
        return format(float(obj), ".17g")
    return json.dumps(obj)


def _object_registry(bundle):
    objects = dict(bundle.fields)
    if bundle.lagrangian is not None:
        objects.setdefault("L", bundle.lagrangian.field)
        objects.setdefault("ell", bundle.lagrangian.ell_field())
        objects.setdefault("phi", bundle.lagrangian.phi_field())
        objects.setdefault("spray",
                           canonical_spray(bundle.lagrangian).coefficients)
    if bundle.metric is not None:
        objects.setdefault("g", bundle.metric.field)
    elif bundle.lagrangian is not None:
        objects.setdefault("g", bundle.lagrangian.phi_field())
    if bundle.nonlinear is not None:
        objects.setdefault("N", bundle.nonlinear.coefficients)
    return objects


def _pick_object(bundle, name):
    objects = _object_registry(bundle)
    if name not in objects:
        raise ValueError(f"example {bundle.name!r} has no object {name!r}; "
                         f"available: {', '.join(sorted(objects))}")
    return objects[name]


def _point(bundle, args):
    """The --x/--y point, which must lie in the example's domain, or a
    seeded sample when both are omitted."""
    if (args.x is None) != (args.y is None):
        raise ValueError("--x and --y go together: give both or neither")
    if args.x is None:
        xs, ys = bundle.domain.sample(1, args.seed)
        return xs[0], ys[0]
    x = _coordinates(args.x, "--x", bundle.domain)
    y = _coordinates(args.y, "--y", bundle.domain)
    _require_inside(bundle.domain, x, y)
    return x, y


def _coordinates(values, option, domain):
    """The values given to `option`: one finite number per dimension."""
    if len(values) != domain.dim:
        raise ValueError(f"{option} needs {domain.dim} coordinates for "
                         f"domain {domain.name!r}, got {len(values)}")
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{option} must be finite, got {values}")
    return np.asarray(values, dtype=float)


def _cmd_check(args):
    with open(args.config_file, encoding="utf-8") as handle:
        config, bundle = _parse_config(handle.read())
    report = suite_report(config, bundle)
    print(canonical_json(report))
    return 0 if all(r["pass"] for r in report["reports"]) else 1


def _cmd_eval(args):
    bundle = get_example(args.example)
    target = _pick_object(bundle, args.object)
    x, y = _point(bundle, args)
    value = target(x, y)
    print(canonical_json({
        "example": bundle.name,
        "object": args.object,
        "x": x.tolist(),
        "y": y.tolist(),
        "value": np.asarray(value).tolist(),
    }))
    return 0


def _cmd_ladder(args):
    bundle = get_example(args.example)
    target = _pick_object(bundle, args.object)
    if target.s == 0:
        raise ValueError(f"{args.object!r} is a scalar of {bundle.name!r}, "
                         f"with no covariant rung to split")
    if args.to_level < 0 or args.to_level >= target.s:
        raise ValueError(
            f"--to-level must lie in [0, {target.s - 1}] for {args.object!r} "
            f"(covariant rank {target.s})")
    engine = DiffEngine(args.method)
    beta = round(target.alpha) + (target.s - args.to_level)
    split = decompose(target, beta, engine)
    x, y = _point(bundle, args)
    print(canonical_json({
        "example": bundle.name,
        "object": args.object,
        "to_level": args.to_level,
        "x": x.tolist(),
        "y": y.tolist(),
        "base": {"alpha": split.base.alpha, "rank": split.base.s,
                 "value": np.asarray(split.base(x, y)).tolist()},
        "residues": [
            {"alpha": res.alpha, "rank": res.s,
             "value": np.asarray(res(x, y)).tolist()}
            for res in split.residues
        ],
    }))
    return 0


def _cmd_geodesic(args):
    bundle = get_example(args.example)
    if bundle.lagrangian is None:
        raise ValueError(f"example {bundle.name!r} has no energy to build "
                         f"a spray from")
    if args.steps < 0:
        raise ValueError(f"--steps must be at least 0, got {args.steps}")
    if not np.isfinite(args.dt):
        raise ValueError(f"--dt must be finite, got {args.dt}")
    x0 = _coordinates(args.x0, "--x0", bundle.domain)
    y0 = _coordinates(args.y0, "--y0", bundle.domain)
    spray = canonical_spray(bundle.lagrangian, DiffEngine(args.method))
    path = geodesic_integrate(spray, x0, y0, args.dt, args.steps)
    L = bundle.lagrangian.field
    e0 = float(L(path.xs[0], path.ys[0]))
    xf, yf = path.xs[-1], path.ys[-1]
    ef = float(L(xf, yf))
    print(canonical_json({
        "example": bundle.name,
        "x0": x0.tolist(),
        "y0": y0.tolist(),
        "dt": args.dt,
        "steps": args.steps,
        "steps_taken": len(path) - 1,
        "completed": path.completed,
        "final_x": xf.tolist(),
        "final_y": yf.tolist(),
        "energy_initial": e0,
        "energy_final": ef,
    }))
    return 0


def _cmd_report(args):
    names = [n for n in example_names() if "(" not in n]
    names += ["wick(-2)", "wick(-1)", "wick(0.5)"]
    suites = []
    ok = True
    for name in names:
        config, bundle = _build_config({
            "example": name,
            "samples": args.samples,
            "seed": args.seed,
            "tolerance": args.tolerance,
            "method": args.method,
        })
        suite = suite_report(config, bundle)
        ok = ok and all(r["pass"] for r in suite["reports"])
        suites.append(suite)
    print(canonical_json({"suites": suites}))
    return 0 if ok else 1


def _add_point_options(sub):
    sub.add_argument("--x", type=float, nargs="+",
                     help="base point (defaults to a seeded sample)")
    sub.add_argument("--y", type=float, nargs="+",
                     help="direction (defaults to a seeded sample)")
    sub.add_argument("--seed", type=int, default=0,
                     help="sample seed when --x/--y are omitted")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="anifield",
        description="Property suites and pointwise tools for the built-in "
                    "homogeneous-field examples.")
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run a JSON config of checks")
    p_check.add_argument("config_file")
    p_check.set_defaults(handler=_cmd_check)

    p_eval = subs.add_parser("eval", help="evaluate a named object")
    p_eval.add_argument("example")
    p_eval.add_argument("object")
    _add_point_options(p_eval)
    p_eval.set_defaults(handler=_cmd_eval)

    p_ladder = subs.add_parser("ladder", help="split a field into its "
                                              "derivative tower")
    p_ladder.add_argument("example")
    p_ladder.add_argument("--object", default="g")
    p_ladder.add_argument("--to-level", type=int, default=0, dest="to_level")
    p_ladder.add_argument("--method", choices=("analytic", "fd4"),
                          default="analytic")
    _add_point_options(p_ladder)
    p_ladder.set_defaults(handler=_cmd_ladder)

    p_geo = subs.add_parser("geodesic", help="integrate the canonical spray")
    p_geo.add_argument("example")
    p_geo.add_argument("--x0", type=float, nargs="+", required=True)
    p_geo.add_argument("--y0", type=float, nargs="+", required=True)
    p_geo.add_argument("--dt", type=float, default=0.01)
    p_geo.add_argument("--steps", type=int, default=100)
    p_geo.add_argument("--method", choices=("analytic", "fd4"),
                       default="analytic")
    p_geo.set_defaults(handler=_cmd_geodesic)

    p_report = subs.add_parser("report", help="full suite over all examples")
    p_report.add_argument("--samples", type=int, default=200)
    p_report.add_argument("--seed", type=int, default=0)
    p_report.add_argument("--tolerance", type=float, default=1e-6)
    p_report.add_argument("--method", choices=("analytic", "fd4"),
                          default="analytic")
    p_report.set_defaults(handler=_cmd_report)
    return parser


@functools.cache
def _parser():
    """The parser `main` uses, built once per process: parsing changes no
    state of it."""
    return build_parser()


def _at_sample(exc):
    """The suffix ' at x=[...], y=[...]' naming the sample a typed error
    carries; empty when it carries none."""
    sample = getattr(exc, "sample", None)
    if sample is None:
        return ""
    x, y = sample
    return f" at x={x}, y={y}"


def main(argv=None):
    """Run the command `argv` names; its exit code.  A usage error exits
    with 2 and `--help` with 0, as argparse exits, but returned."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        with np.errstate(all="ignore"):
            return args.handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AnifieldError as exc:
        print(f"error: {exc}{_at_sample(exc)}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
