"""The named check suite and its report shape."""

import json
import re
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (AnisotropicConnection, DiffEngine, LevelError,
                      NonlinearConnection, Spray, coherence_defect,
                      liouville_contract, zero_field)
from anifield.catalog import get_example
from anifield.checks import (CHECKS, applicable_checks,
                             check_cocycle_coherence, check_euler,
                             euclidean_energy_field, kernel_shift)
from anifield.cli import RunConfig, canonical_json, parse_config
from anifield.fields import Y

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
    """The quartic third derivative has no stored chain, so its Euler defect
    is stencil-sized; an absurd tolerance must report the failure."""
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
    E = euclidean_energy_field(get_example("handmadeN").domain)
    assert E.chain(Y) is not None
    assert E(np.zeros(2), np.array([3.0, 4.0])) == pytest.approx(25.0)


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
