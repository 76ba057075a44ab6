"""The sample axis: batched evaluation agrees with pointwise evaluation bit
for bit, degeneracies name the offending sample, and memoized arrays are
read-only."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from anifield import (ChartTransition, DiffEngine, DivisionError,
                      TensorField, berwald_connection, canonical_spray,
                      cartan_tensor, chern_connection, classical_linear,
                      coherence_defect, constant_field, landsberg_tensor,
                      liouville_field, matrix_inverse, raise_connection,
                      scalar_power, scalar_reciprocal, transform_connection,
                      transform_tensor, vertical_derivative, x_derivative,
                      zero_field)
from anifield.atlas import compose
from anifield.catalog import get_example
from anifield.checks import check_euler
from anifield.cli import RunConfig, _object_registry
from anifield.errors import DegeneracyError, ShapeError
from anifield.fields import Y
from anifield.metrics import AnisotropicMetric

EXAMPLES = ["euclidean2", "minkowski2", "conformal2", "quartic2", "handmadeN",
            "quadchart", "wick(-2)", "wick(-1)", "wick(0.5)"]
LAGRANGIANS = ["euclidean2", "minkowski2", "conformal2", "quartic2"]
METHODS = ["analytic", "fd4"]


def _registry_fields(name, engine):
    """Every catalog field and CLI object of an example, with its vertical
    and x derivatives under `engine`; built fresh, so no memo is shared."""
    bundle = get_example(name)
    out = {}
    for key, field in {**bundle.fields, **_object_registry(bundle)}.items():
        out[key] = field
        out[f"dv {key}"] = vertical_derivative(field, engine)
        out[f"dx {key}"] = x_derivative(field, engine)
    return out


def _connection_fields(name, engine):
    L = get_example(name).lagrangian
    out = {"berwald": berwald_connection(L, engine).coefficients,
           "chern": chern_connection(L, engine).coefficients,
           "landsberg": landsberg_tensor(L, engine),
           "cartan": cartan_tensor(L, engine)}
    for kind in ("berwald", "chern", "hashiguchi", "cartan"):
        conn = classical_linear(L, kind, engine)
        out[f"{kind} gamma1"] = conn.gamma1
        out[f"{kind} gamma2"] = conn.gamma2
    return out


def _assert_rows_match_points(build, name, method):
    """Row i of field(xs, ys) equals field(xs[i], ys[i]) bit for bit, at
    batch sizes 1 and 7; each evaluation runs on its own fresh graph."""
    engine = DiffEngine(method)
    xs, ys = get_example(name).domain.sample(7, seed=17)
    pointwise = build(name, engine)
    batch7 = build(name, engine)
    batch1 = build(name, engine)
    for key, field in pointwise.items():
        points = [field(x, y) for x, y in zip(xs, ys)]
        rows7 = batch7[key](xs, ys)
        rows1 = batch1[key](xs[:1], ys[:1])
        assert rows7.shape == (7,) + field.component_shape(), key
        for i, point in enumerate(points):
            assert_array_equal(rows7[i], point, err_msg=f"{key} row {i}")
        assert_array_equal(rows1[0], points[0], err_msg=f"{key} B=1")


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", EXAMPLES)
def test_registry_rows_match_points(name, method):
    _assert_rows_match_points(_registry_fields, name, method)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("name", LAGRANGIANS)
def test_connection_rows_match_points(name, method):
    _assert_rows_match_points(_connection_fields, name, method)


def _flat_at(domain, xs, bad):
    """(0, 2) field diag(1, 1 + x1 - xs[bad, 0]): singular at sample `bad`."""
    shift = xs[bad, 0]

    def fn(bx, by):
        out = np.zeros((len(bx), 2, 2))
        out[:, 0, 0] = 1.0
        out[:, 1, 1] = 1.0 + bx[:, 0] - (1.0 + shift)
        return out
    return TensorField(domain, 0, 2, 0.0, fn, name="flat_at")


def test_degenerate_sample_in_a_batch_is_named():
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=4)
    flat = _flat_at(domain, xs, 3)
    with pytest.raises(DegeneracyError) as info:
        matrix_inverse(flat)(xs, ys)
    assert info.value.sample == (xs[3].tolist(), ys[3].tolist())
    with pytest.raises(DegeneracyError) as info:
        AnisotropicMetric(flat).check_at(xs, ys)
    assert info.value.sample == (xs[3].tolist(), ys[3].tolist())


def test_first_degenerate_sample_wins_across_columns():
    """Sample 1 fails at the second pivot, sample 4 at the first; the error
    names sample 1, as a loop over the samples would."""
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=4)
    mats = np.tile(np.eye(2), (6, 1, 1))
    mats[1] = [[1.0, 1.0], [1.0, 1.0 + 1e-15]]
    mats[4] = 0.0
    field = TensorField(domain, 0, 2, 0.0, lambda bx, by: mats[:len(bx)])
    with pytest.raises(DegeneracyError) as info:
        matrix_inverse(field)(xs, ys)
    assert info.value.sample == (xs[1].tolist(), ys[1].tolist())
    assert "column 1" in str(info.value)


def test_vanishing_scalar_in_a_batch_is_named():
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=5)
    xs[:, 0] = [0.2, 0.3, 0.0, 0.5, -0.5, 0.7]
    first = TensorField(domain, 0, 0, 0.0, lambda bx, by: bx[:, 0].copy())
    for build in (scalar_reciprocal, lambda a: scalar_power(a, -0.5)):
        with pytest.raises(DivisionError) as info:
            build(first)(xs, ys)
        assert info.value.sample == (xs[2].tolist(), ys[2].tolist())
        assert "vanishes" in str(info.value)
    with pytest.raises(DivisionError) as info:
        scalar_power(first, 0.5)(xs, ys)
    assert info.value.sample == (xs[4].tolist(), ys[4].tolist())
    assert "negative" in str(info.value)


def test_cached_values_are_read_only():
    quartic = get_example("quartic2")
    phi = quartic.lagrangian.phi_field()
    x, y = np.array([0.3, -0.1]), np.array([1.0, 2.0])
    before = phi(x, y).copy()
    with pytest.raises(ValueError):
        phi(x, y)[0, 0] = 99.0
    assert_array_equal(phi(x, y), before)
    xs, ys = quartic.domain.sample(3, seed=1)
    with pytest.raises(ValueError):
        phi(xs, ys)[1, 0, 0] = 99.0


def test_captured_arrays_are_not_aliased():
    domain = get_example("euclidean2").domain
    x, y = np.array([0.3, -0.1]), np.array([1.0, 2.0])
    values = np.eye(2)
    const = constant_field(domain, values, 1, 1)
    values[0, 0] = 7.0
    assert const(x, y)[0, 0] == 1.0
    identity = liouville_field(domain).chain(Y)
    for field in (const, zero_field(domain, 0, 2, 0.0), identity):
        with pytest.raises(ValueError):
            field(x, y)[0, 0] = 5.0
    C = liouville_field(domain)
    got = C(x, y)
    y[0] = 9.0
    assert got[0] == 1.0


def test_batch_shape_is_validated():
    L = get_example("euclidean2").lagrangian.field
    with pytest.raises(ShapeError):
        L(np.zeros((3, 2)), np.ones((2, 2)))
    with pytest.raises(ShapeError):
        L(np.zeros((1, 4)), np.ones((1, 4)))


def test_nan_after_a_small_defect_fails_the_check():
    """A NaN defect at a later sample outranks a 1e-9 defect before it."""
    bundle = get_example("euclidean2")
    config = RunConfig(example="euclidean2", checks=["euler"], samples=6,
                       seed=1)
    xs, ys = bundle.domain.sample(config.samples, config.seed)
    target = xs[2]

    def fn(bx, by):
        out = np.sum(by * by, axis=-1) * (1.0 + 1e-9 * bx[:, 1])
        out[np.all(bx == target, axis=1)] = np.nan
        return out

    bundle.fields = {"tainted": TensorField(bundle.domain, 0, 0, 2.0, fn,
                                            name="tainted")}
    report = check_euler(bundle, config)
    assert not report.passed
    assert np.isnan(report.max_abs_defect)
    assert report.worst_sample == {"x": xs[2].tolist(), "y": ys[2].tolist()}


def test_coherence_gap_reports_nan():
    quad = get_example("quadchart")
    xs, ys = quad.domain.sample(5, seed=2)
    target = xs[3]

    def fn(bx, by):
        # pulling a pushed sample back may round, so match it loosely
        out = 2.0 * by
        out[np.all(np.abs(bx - target) < 1e-9, axis=1)] = np.nan
        return out

    field = TensorField(quad.domain, 0, 1, 1.0, fn, name="tainted")
    gaps = coherence_defect(field, quad.transition, xs, ys,
                            DiffEngine("analytic"))
    assert np.flatnonzero(np.isnan(gaps["liouville"])).tolist() == [3]


def _reverse(t):
    """The inverse chart map of `t`, from its closures.  It has no analytic
    inverse Jacobian, so partial-pivot inversion fills in."""

    def hessian(xt):
        x = t.inverse(xt)
        Ji = t.inverse_jacobian(x)
        return -np.einsum("...ak,...kbc,...bi,...cj->...aij", Ji,
                          t.hessian(x), Ji, Ji)

    return ChartTransition(t.inverse, t.forward,
                           lambda xt: t.inverse_jacobian(t.inverse(xt)),
                           hessian, name=f"reverse({t.name})")


def _transition(kind):
    quad = get_example("quadchart").transition
    return quad if kind == "quadchart" else compose(quad, _reverse(quad))


@pytest.mark.parametrize("kind", ["quadchart", "compose"])
def test_transition_rows_match_points(kind):
    """Transition closures, point maps and pushforwards broadcast over a
    batch: row i equals the pointwise result bit for bit."""
    t = _transition(kind)
    xs, ys = get_example("quadchart").domain.sample(7, seed=17)
    for key in ("forward", "jacobian", "hessian", "inverse_jacobian"):
        fn = getattr(t, key)
        rows = fn(xs)
        for i, x in enumerate(xs):
            assert_array_equal(rows[i], fn(x), err_msg=f"{key} row {i}")
    for key in ("push_point", "pull_point"):
        fn = getattr(t, key)
        row_x, row_y = fn(xs, ys)
        for i, (x, y) in enumerate(zip(xs, ys)):
            point_x, point_y = fn(x, y)
            assert_array_equal(row_x[i], point_x, err_msg=f"{key} x row {i}")
            assert_array_equal(row_y[i], point_y, err_msg=f"{key} y row {i}")

    def build(name, engine):
        t = _transition(kind)
        L = get_example(name).lagrangian
        G = canonical_spray(L, engine)
        out = {key: transform_tensor(field, t) for key, field in (
            ("ell", L.ell_field()), ("phi", L.phi_field()),
            ("C", liouville_field(L.domain)))}
        for key, obj in (("spray", G), ("N", raise_connection(G, engine)),
                         ("gamma", berwald_connection(L, engine))):
            out[key] = transform_connection(obj, t).coefficients
        return out

    _assert_rows_match_points(build, "quadchart", "analytic")
