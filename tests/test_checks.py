"""The named check suite and its report shape."""

import gc
import json
import re
import weakref
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import anifield.checks
from anifield import (AnisotropicConnection, ConicDomain, DiffEngine,
                      LevelError, LinearConnection, NonlinearConnection,
                      Spray, TensorField, classical_linear, coherence_defect,
                      form_field, liouville_contract, wick_metric,
                      zero_field)
from anifield.catalog import ExampleBundle, _energy_bundle, get_example
from anifield.checks import (CHECKS, _Worst, applicable_checks,
                             check_cocycle_coherence, check_euler,
                             kernel_shift)
from anifield.cli import RunConfig, canonical_json, parse_config
from anifield.fields import Y, _row_dot

_LAGRANGIAN = ["canonical_spray_oracle", "euler", "functional_laws",
               "geodesic_conservation", "ladder_roundtrip", "landsberg_kernel",
               "legendre_residue", "linear_roundtrip"]


def _config(example, **overrides):
    base = dict(example=example, checks=["euler"], samples=6, seed=1,
                tolerance=1e-6, method="analytic")
    base.update(overrides)
    return RunConfig(**base)


def test_applicable_checks_by_bundle_shape():
    assert applicable_checks(get_example("handmadeN")) == ["euler",
                                                           "torsion_residue"]
    lag = applicable_checks(get_example("euclidean2"))
    assert "geodesic_conservation" in lag
    assert "wick_identity" not in lag
    wick = applicable_checks(get_example("wick(0.5)"))
    assert "wick_identity" in wick
    assert "signature_table" in wick
    quad = applicable_checks(get_example("quadchart"))
    assert "cocycle_coherence" in quad


def test_every_name_is_runnable():
    assert set(applicable_checks(get_example("quadchart"))) <= set(CHECKS)
    assert set(applicable_checks(get_example("wick(-2)"))) <= set(CHECKS)


def test_report_dictionary_shape():
    report = check_euler(get_example("euclidean2"), _config("euclidean2"))
    d = report.as_dict()
    assert set(d) == {"check", "max_abs_defect", "pass", "samples_used",
                      "worst_sample"}
    assert d["check"] == "euler"
    assert d["pass"] is True
    assert d["samples_used"] == 6
    assert set(d["worst_sample"]) == {"x", "y"}


def test_tiny_tolerance_fails_honestly():
    """Under fd4 every derivative the Euler check takes of the quartic
    fields is a stencil, so its defect is stencil-sized; an absurd
    tolerance must report the failure."""
    config = _config("quartic2", tolerance=1e-14, method="fd4")
    report = check_euler(get_example("quartic2"), config)
    assert not report.passed
    assert report.max_abs_defect > 1e-14


def test_a_cold_cache_and_a_warm_cache_give_the_same_numbers():
    """Every applicable check, run on one bundle per example under both
    methods in turn, reads exactly what it reads on a bundle of its own."""
    def run(fresh):
        out = []
        for name in ("conformal2", "quartic2", "handmadeN", "wick(-1)"):
            shared = get_example(name)
            for method in ("analytic", "fd4"):
                for check in applicable_checks(shared):
                    bundle = get_example(name) if fresh else shared
                    config = _config(name, checks=[check], samples=4,
                                     method=method)
                    out.append(CHECKS[check](bundle, config).as_dict())
        return canonical_json(out)

    assert run(fresh=False) == run(fresh=True)


def test_kernel_shift_ranks_and_kernel_property():
    domain = get_example("euclidean2").domain
    rng = np.random.default_rng(21)
    two = kernel_shift(domain, rng.normal(size=(2, 2, 2, 2)), rank=2)
    one = kernel_shift(domain, rng.normal(size=(2, 2, 2)), rank=1)
    assert (two.rank, two.alpha) == ((1, 2), 0.0)
    assert (one.rank, one.alpha) == ((1, 1), 1.0)
    xs, ys = domain.sample(5, seed=3)
    for x, y in zip(xs, ys):
        assert np.max(np.abs(liouville_contract(two)(x, y))) < 1e-12
        assert np.max(np.abs(liouville_contract(one)(x, y))) < 1e-12
        assert_allclose(two(x, 3.0 * y), two(x, y), atol=1e-12)
    with pytest.raises(LevelError):
        kernel_shift(domain, rng.normal(size=(2, 2, 2, 2, 2)), rank=3)


def test_energy_helper_has_a_full_chain():
    """kernel_shift's |y|^2, like every quadratic energy of the catalog, is
    the form leaf of a constant D, with exact chains down to 2 D."""
    domain = get_example("handmadeN").domain
    E = form_field(domain, np.eye(2), 2)
    assert E.chain(Y).chain(Y).const.tolist() == [[2.0, 0.0], [0.0, 2.0]]
    assert E(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(25.0)
    lorentz = form_field(domain, np.diag([-1.0, 1.0]), 2)
    assert lorentz(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(7.0)
    assert_allclose(lorentz.chain(Y)(np.zeros(2), np.array([3.0, 4.0])),
                    [-6.0, 8.0])


def _form_bundle(dim, lorentzian):
    """The bundle of y^T D y on R^dim: D = I, or D = diag(1, -1, ..., -1)
    on the cone y^0 > |(y^1, ..., y^(dim-1))|."""
    D = np.diag([1.0] + [-1.0 if lorentzian else 1.0] * (dim - 1))
    name = f"{'lorentz' if lorentzian else 'euclid'}{dim}"
    domain = ConicDomain(dim, (lambda x, y: y[0] > np.linalg.norm(y[1:]))
                         if lorentzian else None, name=name)
    return _energy_bundle(name, domain, form_field(domain, D, 2, name=name))


@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("lorentzian", [False, True],
                         ids=["euclidean", "lorentzian"])
@pytest.mark.parametrize("dim", [3, 4])
def test_every_check_runs_and_passes_in_dimensions_3_and_4(dim, lorentzian,
                                                          method):
    bundle = _form_bundle(dim, lorentzian)
    names = applicable_checks(bundle)
    assert names == _LAGRANGIAN
    for name in names:
        config = _config(bundle.name, checks=[name], samples=4, seed=0,
                         method=method)
        report = CHECKS[name](bundle, config)
        assert report.passed, (name, report.max_abs_defect)


def test_linear_roundtrip_reports_the_size_of_gamma2_y(monkeypatch):
    """A vertical block with |Gamma2 . y| = 1e-8 at one sample reads as a
    defect of 1e-8 there, not as a 0/1 regularity score."""
    bundle = get_example("euclidean2")
    config = _config("euclidean2", checks=["linear_roundtrip"])
    xs, ys = bundle.domain.sample(config.samples, config.seed)
    target = ys[2]

    def bump(xs, ys):
        out = np.zeros((len(ys), 2, 2, 2))
        hit = np.all(ys == target, axis=1)
        y = ys[hit]
        out[hit, 0, 0, :] = 1e-8 * y / _row_dot(y, y)[:, None]
        return out

    gamma2 = TensorField(bundle.domain, 1, 2, -1.0, bump, name="bump")

    def bumped(L, kind, engine=None):
        conn = classical_linear(L, kind, engine)
        return LinearConnection(conn.gamma1, gamma2, name=conn.name)

    monkeypatch.setattr(anifield.checks, "classical_linear", bumped)
    report = CHECKS["linear_roundtrip"](bundle, config)
    assert report.max_abs_defect == pytest.approx(1e-8, rel=1e-12)
    assert report.worst_sample["y"] == target.tolist()
    assert report.passed


@pytest.mark.parametrize("name", ["euclidean2", "wick(-1)", "handmadeN"])
def test_full_applicable_suite_passes(name):
    bundle = get_example(name)
    config = _config(name, checks=applicable_checks(bundle))
    for check_name in config.checks:
        report = CHECKS[check_name](bundle, config)
        assert report.passed, (check_name, report.max_abs_defect)


def test_cocycle_coherence_names_the_worst_sample():
    """The reported sample is the one with the largest coherence gap, not
    the first sample of the batch."""
    bundle = get_example("quadchart")
    config = _config("quadchart", checks=["cocycle_coherence"], samples=16,
                     seed=0)
    report = check_cocycle_coherence(bundle, config)
    xs, ys = bundle.domain.sample(16, 0)
    domain = bundle.domain
    objects = (Spray(zero_field(domain, 1, 0, 2.0)),
               NonlinearConnection(zero_field(domain, 1, 1, 1.0)),
               AnisotropicConnection(zero_field(domain, 1, 2, 0.0)),
               bundle.lagrangian.ell_field())
    gaps = np.column_stack([
        gap for obj in objects for gap in coherence_defect(
            obj, bundle.transition, xs, ys, DiffEngine("analytic")).values()])
    row = int(np.argmax(gaps.max(axis=1)))
    assert row != 0
    assert report.max_abs_defect == gaps.max()
    assert report.worst_sample == {"x": xs[row].tolist(),
                                   "y": ys[row].tolist()}


def test_a_nan_bundle_field_fails_euler_at_its_sample():
    """A field that is NaN at one sample fails `euler` with a NaN defect
    named at that sample, though a finite defect of 0.5 is fed before and
    after it."""
    domain = get_example("euclidean2").domain
    config = _config("nan", samples=6, seed=1)
    xs, ys = domain.sample(config.samples, config.seed)
    target = ys[2]

    def holed(xs, ys):
        out = np.ones(len(ys))
        out[np.all(ys == target, axis=1)] = np.nan
        return out

    def leaf(alpha, fn):
        return TensorField(domain, 0, 0, alpha, fn,
                           dy=lambda: zero_field(domain, 0, 1, alpha - 1.0))

    off = leaf(1.0, lambda xs, ys: np.ones(len(ys)))  # defect 1 / (1 + 1)
    bundle = ExampleBundle("nan", domain, fields={
        "before": off, "holed": leaf(0.0, holed), "after": off})
    report = CHECKS["euler"](bundle, config)
    assert np.isnan(report.max_abs_defect)
    assert not report.passed
    assert report.worst_sample == {"x": xs[2].tolist(), "y": target.tolist()}


def test_feed_reads_an_array_at_the_samples_it_names():
    """An array fed with `at=` has one row per sample of `at`: a NaN row
    names its sample and stays the worst; defects are relative to 1 + the
    reference's largest |entry|; and the worst sample is the check's first
    when every defect is 0.0."""
    xs, ys = get_example("euclidean2").domain.sample(4, 0)
    worst = _Worst(xs, ys)
    worst.feed(np.zeros((4, 3)), at=(xs[::-1], ys[::-1]))
    assert worst.value == 0.0
    assert worst.sample == {"x": xs[0].tolist(), "y": ys[0].tolist()}
    worst.feed(np.array([-2.0, 0.5]), at=(xs[3], ys[3]), relative_to=-3.0)
    assert worst.value == 0.5
    assert worst.sample == {"x": xs[3].tolist(), "y": ys[3].tolist()}
    worst.feed(np.array([[0.5, 1.0], [np.nan, 0.0], [7.0, 0.0]]),
               at=(xs[1:], ys[1:]))
    worst.feed(100.0, at=(xs[0], ys[0]))
    assert np.isnan(worst.value)
    assert worst.sample == {"x": xs[2].tolist(), "y": ys[2].tolist()}


_PARENT_APPLICABLE = {
    "conformal2": _LAGRANGIAN,
    "euclidean2": _LAGRANGIAN,
    "handmadeN": ["euler", "torsion_residue"],
    "minkowski2": _LAGRANGIAN,
    "quadchart": sorted(_LAGRANGIAN + ["cocycle_coherence"]),
    "quartic2": _LAGRANGIAN,
    "wick(-2)": sorted(_LAGRANGIAN + ["signature_table", "wick_identity"]),
    "wick(-1)": sorted(_LAGRANGIAN + ["signature_table", "wick_identity"]),
    "wick(0.5)": sorted(_LAGRANGIAN + ["signature_table", "wick_identity"]),
}


def _applicability():
    return {name: applicable_checks(get_example(name))
            for name in _PARENT_APPLICABLE}


def test_applicability_is_the_frozen_table():
    assert _applicability() == _PARENT_APPLICABLE


def test_applicability_survives_wrapped_checks():
    """Wrapping every CHECKS entry, as a tracer or timer does, changes
    neither applicability nor config validation."""
    quad = json.dumps({"example": "quadchart",
                       "checks": _PARENT_APPLICABLE["quadchart"]})
    wrong = json.dumps({"example": "handmadeN", "checks": ["euler",
                                                           "wick_identity"]})
    before = parse_config(quad)
    with pytest.raises(ValueError) as refused:
        parse_config(wrong)
    saved = dict(CHECKS)

    def wrap(fn):
        return lambda bundle, config: fn(bundle, config)

    CHECKS.update({name: wrap(fn) for name, fn in saved.items()})
    try:
        assert _applicability() == _PARENT_APPLICABLE
        assert parse_config(quad) == before
        with pytest.raises(ValueError) as again:
            parse_config(wrong)
        assert str(again.value) == str(refused.value)
    finally:
        CHECKS.update(saved)


@pytest.mark.parametrize("example", ["euclidean2", "wick(-1)", "handmadeN",
                                     "quadchart"])
def test_runner_names_each_report_and_counts_its_samples(example):
    bundle = get_example(example)
    config = _config(example, samples=40)
    used = {"functional_laws": 32, "geodesic_conservation": 201}
    for name in applicable_checks(bundle):
        report = CHECKS[name](bundle, config)
        assert report.check == name
        assert report.samples_used == used.get(name, 40), name


@pytest.mark.parametrize("example", sorted(_PARENT_APPLICABLE))
def test_a_short_draw_is_a_prefix_of_a_long_one(example):
    """The geodesic check starts from the first sample of the batch it is
    given, which is the sample a one-point draw gives."""
    domain = get_example(example).domain
    for seed in range(10):
        xs, ys = domain.sample(40, seed)
        for k in (1, 5):
            xk, yk = domain.sample(k, seed)
            assert np.array_equal(xk, xs[:k]) and np.array_equal(yk, ys[:k])


def test_readme_lists_every_check():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"Available\s+checks:\s*```\n(.*?)```", readme,
                      re.DOTALL)
    assert block is not None
    assert block.group(1).split() == sorted(CHECKS)


# geodesic_conservation at --samples 4 --seed 0: example, method,
# max_abs_defect, samples_used, and the worst sample's x and y
_GEODESIC_PINS = [
    ("conformal2", "analytic", 1.2499619526027126e-14, 201,
     [0.49992713196046723, -0.42737609449348885], [1.3605405480138832, 0.17691319382303758]),
    ("euclidean2", "analytic", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("minkowski2", "analytic", 0.0, 201,
     [-0.648688758794882, 0.7263578446997732], [-0.6909658409001123, 0.8992175121594524]),
    ("quadchart", "analytic", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("quartic2", "analytic", 0.0, 201,
     [0.8255111545554434, 0.21327155153435973], [1.5271611855478908, -1.1347679647956048]),
    ("wick(-2)", "analytic", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("wick(-1)", "analytic", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("wick(0.5)", "analytic", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("conformal2", "fd4", 1.2499619526027126e-14, 201,
     [0.49992713196046723, -0.42737609449348885], [1.3605405480138832, 0.17691319382303758]),
    ("euclidean2", "fd4", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("minkowski2", "fd4", 0.0, 201,
     [-0.648688758794882, 0.7263578446997732], [-0.6909658409001123, 0.8992175121594524]),
    ("quadchart", "fd4", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("quartic2", "fd4", 1.666939632818696e-16, 201,
     [0.8270383157409913, 0.2121367835695641], [1.5271611855478908, -1.134767964795605]),
    ("wick(-2)", "fd4", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("wick(-1)", "fd4", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
    ("wick(0.5)", "fd4", 0.0, 201,
     [0.2739233746429086, -0.4604265724722594], [1.6972870697854452, 0.2780126723181865]),
]


@pytest.mark.parametrize("name,method,defect,used,x,y", _GEODESIC_PINS,
                         ids=[f"{pin[0]}-{pin[1]}" for pin in _GEODESIC_PINS])
def test_the_geodesic_check_reads_its_pinned_numbers(name, method, defect,
                                                     used, x, y):
    """The check's own path (dt = 1e-3, 200 steps from the first sample)
    on every example with an energy; the quadratic energies keep it
    exactly, and their worst sample is the first one fed."""
    config = _config(name, checks=["geodesic_conservation"], samples=4,
                     seed=0, method=method)
    report = CHECKS["geodesic_conservation"](get_example(name), config)
    assert report.as_dict() == {
        "check": "geodesic_conservation", "max_abs_defect": defect,
        "pass": True, "samples_used": used, "worst_sample": {"x": x, "y": y}}


@pytest.mark.parametrize("method", ["analytic", "fd4"])
def test_a_checked_bundle_dies_by_reference_counting_alone(method):
    """Every applicable check of every example, then `del`: the bundle and
    everything it built and kept (analytic derivatives of inverses and
    reciprocals included) leave nothing for the cyclic collector."""
    gc.collect()
    gc.disable()
    try:
        for name in sorted(_PARENT_APPLICABLE):
            bundle = get_example(name)
            config = _config(name, samples=4, seed=0, method=method)
            for check in applicable_checks(bundle):
                CHECKS[check](bundle, config)
            held = [weakref.ref(bundle.domain)]
            if bundle.lagrangian is not None:
                held.append(weakref.ref(bundle.lagrangian))
            del bundle
            assert [ref() for ref in held] == [None] * len(held), name
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_signature_table_counts_the_samples_whose_signature_mismatches():
    """A wick metric of kappa = -2 has signature (1, 1, 0) on the
    euclidean plane, where kappa = 0.5 predicts (2, 0, 0): every sample
    mismatches, and the worst sample is the last one."""
    base = get_example("euclidean2")
    bundle = ExampleBundle("mislabelled", base.domain,
                           lagrangian=base.lagrangian,
                           metric=wick_metric(base.lagrangian, -2.0),
                           kappa=0.5)
    config = _config("mislabelled", checks=["signature_table"])
    report = CHECKS["signature_table"](bundle, config)
    xs, ys = bundle.domain.sample(config.samples, config.seed)
    assert not report.passed
    assert report.max_abs_defect == config.samples
    assert report.worst_sample == {"x": xs[-1].tolist(), "y": ys[-1].tolist()}


def test_geodesic_conservation_fails_a_truncated_curve():
    """On a box 0.05 wide every 200-step curve at |y| >= 0.5 leaves the
    domain: the energy stays constant along what was taken, and the
    truncation alone fails the check at its first sample."""
    box = ConicDomain(2, lambda x, y: bool(np.all(np.abs(x) < 0.05)),
                      x_box=[(-0.01, 0.01)] * 2, name="box")
    bundle = _energy_bundle("box", box, form_field(box, np.eye(2), 2))
    config = _config("box", checks=["geodesic_conservation"])
    report = CHECKS["geodesic_conservation"](bundle, config)
    xs, ys = box.sample(config.samples, config.seed)
    assert not report.passed
    assert report.max_abs_defect == 1.0
    assert 1 < report.samples_used < 201
    assert report.worst_sample == {"x": xs[0].tolist(), "y": ys[0].tolist()}
