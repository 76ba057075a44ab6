"""The RK4 geodesic integrator steps on Python floats.

Every point has the bits of the array form of the loop, kept here as the
reference; a spray folded to an unguarded constant is never called, and a
guarded one is called at every stage."""

import warnings

import numpy as np
import pytest

from anifield import (ConicDomain, DiffEngine, Spray, TensorField,
                      canonical_spray, connections, fields,
                      geodesic_integrate, matrix_inverse, tensor_product,
                      zero_field)
from anifield.catalog import get_example
from anifield.errors import DegeneracyError, DomainError, ShapeError
from anifield.fields import _folded


def _array_rk4(spray, x0, y0, dt, steps):
    """RK4 on (dim,) arrays, G called at every stage: the array form of
    `geodesic_integrate`.  Returns the points, whether the run completed,
    and where a truncated run stopped, "stage" or "step"."""
    G = spray.coefficients
    domain = G.domain
    x = np.asarray(x0, dtype=float).copy()
    y = np.asarray(y0, dtype=float).copy()
    points = [(x.copy(), y.copy())]

    def rhs(xc, yc):
        if not domain.contains(xc, yc):
            raise DomainError("stage point left the admissible cone")
        return yc, -2.0 * G(xc, yc)

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(steps)):
            try:
                k1x, k1y = rhs(x, y)
                k2x, k2y = rhs(x + 0.5 * dt * k1x, y + 0.5 * dt * k1y)
                k3x, k3y = rhs(x + 0.5 * dt * k2x, y + 0.5 * dt * k2y)
                k4x, k4y = rhs(x + dt * k3x, y + dt * k3y)
            except DomainError:
                return points, False, "stage"
            x = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
            y = y + (dt / 6.0) * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
            if not domain.contains(x, y):
                return points, False, "step"
            points.append((x.copy(), y.copy()))
    return points, True, None


def _assert_same_bits(path, reference):
    points, completed, _ = reference
    assert path.completed == completed
    assert len(path) == len(points)
    for (x, y), (rx, ry) in zip(path.points, points):
        assert x.dtype == rx.dtype and x.shape == rx.shape
        assert x.tobytes() == rx.tobytes() and y.tobytes() == ry.tobytes()


_STARTS = {"conformal2": [1.0, 0.5], "quartic2": [1.0, 0.7],
           "minkowski2": [0.2, 1.0], "euclidean2": [1.0, 0.5]}


@pytest.mark.parametrize("dt", [1e-3, 0.01, 0.05])
@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("name", sorted(_STARTS))
def test_catalog_geodesics_match_the_array_form_bit_for_bit(name, method,
                                                             dt):
    L = get_example(name).lagrangian
    x0, y0 = np.array([0.1, 0.2]), np.array(_STARTS[name])
    reference = _array_rk4(canonical_spray(L, DiffEngine(method)), x0, y0,
                           dt, 40)
    path = geodesic_integrate(canonical_spray(L, DiffEngine(method)), x0, y0,
                              dt, 40)
    assert path.completed
    _assert_same_bits(path, reference)


@pytest.mark.parametrize("method", ["analytic", "fd4"])
def test_a_one_sample_stencil_leaves_its_childs_memos_empty(method):
    """Each RK4 stage stencils phi in x at one point, on perturbed rows no
    other call shares, so neither phi nor its leaf memoizes them."""
    L = get_example("conformal2").lagrangian
    phi = L.phi_field()
    leaf = phi.operands[0]
    assert leaf.operands is None
    x0, y0 = np.array([0.1, 0.2]), np.array(_STARTS["conformal2"])
    path = geodesic_integrate(canonical_spray(L, DiffEngine(method)), x0, y0,
                              0.01, 40)
    assert (len(phi._memo), len(leaf._memo)) == (0, 0)
    fresh = get_example("conformal2").lagrangian
    _assert_same_bits(path, _array_rk4(
        canonical_spray(fresh, DiffEngine(method)), x0, y0, 0.01, 40))


def _upper_push():
    """y' = (0, -2|y|^2) on the upper half plane: y^2 falls through 0."""
    upper = ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")
    return Spray(TensorField(upper, 1, 0, 2.0, lambda xs, ys: np.stack(
        [np.zeros(len(ys)), np.sum(ys * ys, axis=-1)], axis=-1)))


def _constant_push():
    """A spray folded to the unguarded constant (0, 3/4): y^2 falls
    linearly through 0."""
    upper = ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")
    return Spray(_folded(upper, 1, 0, 2.0, [0.0, 0.75], (), None, "push"))


def _constant_over_a_gap():
    """The constant push of `_constant_push` over a domain missing the band
    0.95 < y^2 < 0.97.  At dt = 0.05 from y = (1, 1) the midpoint stages
    of the first step land in the band (y^2 = 0.9625) and its end does not
    (y^2 = 0.925), so only a stage check truncates the run."""
    gap = ConicDomain(2, membership=lambda x, y: not 0.95 < y[1] < 0.97,
                      name="gap")
    return Spray(_folded(gap, 1, 0, 2.0, [0.0, 0.75], (), None, "push"))


def _accelerate():
    """y' = (2|y|^2, 0) on x^1 < 1.9: at dt = 0.1 from the origin with
    y = (1, 1), every stage of the fourth step stays below 1.9 (at most
    1.879) and its end lands at 2.013."""
    left = ConicDomain(2, membership=lambda x, y: x[0] < 1.9, name="left")
    return Spray(TensorField(left, 1, 0, 2.0, lambda xs, ys: np.stack(
        [-np.sum(ys * ys, axis=-1), np.zeros(len(ys))], axis=-1)))


def _euclidean():
    return canonical_spray(get_example("euclidean2").lagrangian)


@pytest.mark.parametrize("build,y0,dt,where,length", [
    (_upper_push, [1.0, 1.0], 0.05, "stage", 8),
    (_constant_push, [1.0, 1.0], 0.05, "stage", 14),
    (_constant_over_a_gap, [1.0, 1.0], 0.05, "stage", 1),
    (_accelerate, [1.0, 1.0], 0.1, "step", 4),
    (_euclidean, [1e300, 1e300], 1e10, "stage", 1),
], ids=["varying_stage", "constant_stage", "constant_gap", "step",
        "overflow"])
def test_truncated_geodesics_match_the_array_form_bit_for_bit(
        build, y0, dt, where, length):
    x0, y0 = np.zeros(2), np.array(y0)
    reference = _array_rk4(build(), x0, y0, dt, 400)
    assert reference[2] == where and len(reference[0]) == length
    _assert_same_bits(geodesic_integrate(build(), x0, y0, dt, 400),
                      reference)


@pytest.mark.parametrize("build", [_euclidean, _constant_push],
                         ids=["bare_zero", "constant"])
def test_an_unguarded_constant_spray_is_never_called(monkeypatch, build):
    x0, y0 = np.zeros(2), np.array([1.0, 1.0])
    reference = _array_rk4(build(), x0, y0, 0.01, 50)
    spray = build()
    assert spray.coefficients.const is not None
    assert spray.coefficients.guards == ()

    def refuse(field, x, y):
        raise AssertionError(f"field {field.name!r} was called")

    monkeypatch.setattr(TensorField, "__call__", refuse)
    _assert_same_bits(geodesic_integrate(spray, x0, y0, 0.01, 50), reference)


def _guarded_zero():
    """A spray folded to zero over the inverse of diag(max(0, 1 - x^1), 1),
    which is singular from x^1 = 1 on."""
    plane = ConicDomain(2, None, name="plane")

    def diag(xs, ys):
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = np.maximum(0.0, 1.0 - xs[:, 0])
        out[:, 1, 1] = 1.0
        return out

    inverse = matrix_inverse(TensorField(plane, 0, 2, 0.0, diag, name="M"))
    return Spray(tensor_product(inverse, zero_field(plane, 1, 0, 2.0),
                                "ij,k->k", 1, 0))


def test_a_guarded_constant_spray_is_called_at_every_stage(monkeypatch):
    spray = _guarded_zero()
    G = spray.coefficients
    assert G.const is not None and not G.const.any() and G.guards
    calls = []
    call = TensorField.__call__

    def counted(field, x, y):
        calls.append(field is G)
        return call(field, x, y)

    monkeypatch.setattr(TensorField, "__call__", counted)
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    path = geodesic_integrate(spray, x0, y0, 0.1, 5)
    assert path.completed and calls == [True] * 20

    with pytest.raises(DegeneracyError) as info:
        geodesic_integrate(spray, x0, y0, 0.1, 20)
    with pytest.raises(DegeneracyError) as expected:
        _array_rk4(_guarded_zero(), x0, y0, 0.1, 20)
    assert str(info.value) == str(expected.value)
    assert info.value.sample == expected.value.sample
    assert info.value.sample[0][0] > 0.99


def test_a_guarded_constant_spray_runs_its_guard_at_distinct_stages_only():
    """Over these 5 steps of a zero spray k2 = k3, and each k1 after the
    first is the k4 before it: 11 distinct stage points among 20 stages."""
    spray = _guarded_zero()
    [inverse] = spray.coefficients.guards
    [diag] = inverse.operands
    runs = []
    fn = diag._fn
    diag._fn = lambda xs, ys: runs.append(len(xs)) or fn(xs, ys)
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    assert geodesic_integrate(spray, x0, y0, 0.1, 5).completed
    assert runs == [1] * 11


def test_an_overflowing_conformal_leaf_raises_without_a_warning():
    """Far out e^(2 x^1) overflows and phi is not finite: the integration
    stops on the typed error alone."""
    spray = canonical_spray(get_example("conformal2").lagrangian)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegeneracyError,
                           match="matrix has a non-finite entry") as info:
            geodesic_integrate(spray, [0, 0], [1, 0.5], 5.0, 40)
    assert info.value.sample is not None


def test_a_conformal_leaf_called_directly_far_out_warns():
    # the integrator silences numpy, the leaf itself does not
    L = get_example("conformal2").lagrangian.field
    with pytest.warns(RuntimeWarning, match="overflow"):
        assert L([400.0, 0.0], [1.0, 0.5]) == np.inf


@pytest.mark.parametrize("name", ["conformal2", "euclidean2"])
def test_the_first_stage_of_a_step_is_not_checked_again(monkeypatch, name):
    # the initial check, then three stages and the end of each step
    spray = canonical_spray(get_example(name).lagrangian)
    calls = []
    admits = ConicDomain.admits

    def counted(domain, x, y, arrays=None):
        calls.append((list(x), list(y)))
        return admits(domain, x, y, arrays)

    monkeypatch.setattr(ConicDomain, "admits", counted)
    path = geodesic_integrate(spray, [0.1, 0.2], [1.0, 0.5], 0.01, 10)
    assert path.completed and len(path) == 11
    assert len(calls) == 4 * 10 + 1
    ends = [(x.tolist(), y.tolist()) for x, y in path.points]
    assert calls[::4] == ends


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("x,y,admitted", [
    ([0.1, 0.2], [1.0, 0.5], True),
    ([_NAN, 0.2], [1.0, 0.5], False),
    ([0.1, 0.2], [1.0, _NAN], False),
    ([_INF, 0.2], [1.0, 0.5], False),
    ([0.1, 0.2], [1.0, -_INF], False),
    ([0.1, 0.2], [0.0, 0.0], False),
    ([0.1, 0.2], [-0.0, -0.0], False),
    ([0.1, 0.2], [0.0, -0.5], False),
], ids=["inside", "nan_x", "nan_y", "inf_x", "minus_inf_y", "zero_y",
        "minus_zero_y", "refused"])
def test_contains_and_the_stage_check_agree(x, y, admitted):
    """`contains` on arrays and `admits` on the float state a stage is
    checked on give one answer; the upper half plane refuses y^2 <= 0."""
    upper = ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")
    assert upper.contains(np.array(x), np.array(y)) is admitted
    assert upper.admits(x, y) is admitted
    assert upper.admits(x, y, (np.array(x), np.array(y))) is admitted


@pytest.mark.parametrize("build", [_upper_push, _constant_push],
                         ids=["varying", "constant"])
def test_a_membership_predicate_gets_float64_state_arrays(build):
    spray = build()
    domain = spray.coefficients.domain
    seen = []
    inside = domain.membership

    def recorded(x, y):
        seen.append((type(x), x.dtype, x.shape, type(y), y.dtype, y.shape))
        return inside(x, y)

    domain.membership = recorded
    path = geodesic_integrate(spray, [0, 0], [1, 1], 0.01, 5)
    assert path.completed
    assert len(seen) == 4 * 5 + 1
    assert set(seen) == {(np.ndarray, np.dtype(np.float64), (2,)) * 2}


class _CountedNumpy:
    """numpy, counting the calls of `np.array`."""

    def __init__(self):
        self.arrays = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def array(self, *args, **kwargs):
        self.arrays += 1
        return np.array(*args, **kwargs)


def _plane_push():
    """The varying push of `_upper_push` over a domain with no predicate."""
    plane = ConicDomain(2, None, name="plane")
    return Spray(TensorField(plane, 1, 0, 2.0, lambda xs, ys: np.stack(
        [np.zeros(len(ys)), np.sum(ys * ys, axis=-1)], axis=-1)))


@pytest.mark.parametrize("build,per_step", [
    (_euclidean, 0), (_constant_push, 8), (_plane_push, 8),
    (_upper_push, 8),
], ids=["constant_no_predicate", "constant_predicate", "varying",
        "varying_predicate"])
def test_a_stage_builds_arrays_only_for_a_spray_call_or_a_predicate(
        monkeypatch, build, per_step):
    """Two arrays per checked stage and step end when a spray call or a
    predicate needs them, shared when both do, and two per run for the
    trajectory; the initial state's arrays come before the loop."""
    spray = build()
    counted = _CountedNumpy()
    monkeypatch.setattr(connections, "np", counted)
    monkeypatch.setattr(fields, "np", counted)
    path = geodesic_integrate(spray, [0, 0], [1, 1], 0.01, 5)
    assert path.completed
    called = spray.coefficients.const is None
    assert counted.arrays == 5 * per_step + 2 * called + 2


def _raises_on_write(array):
    with pytest.raises(ValueError, match="read-only"):
        array[...] = 0.0


@pytest.mark.parametrize("build,dt,steps,length", [
    (_euclidean, 0.01, 10, 11),
    (_euclidean, 0.01, 0, 1),
    (_constant_over_a_gap, 0.05, 400, 1),
], ids=["completed", "no_steps", "cut_at_first_stage"])
def test_a_trajectory_is_read_only(build, dt, steps, length):
    path = geodesic_integrate(build(), [0, 0], [1, 1], dt, steps)
    assert path.completed is (build is _euclidean)
    assert path.xs.shape == path.ys.shape == (length, 2)
    assert len(path) == len(path.points) == length
    for array in (path.xs, path.ys, *(a for point in path for a in point)):
        _raises_on_write(array)
    points = path.points
    points[0] = None
    points.append(None)
    assert path.points is not points and len(path.points) == length
    assert path.points[0][0].tolist() == path.xs[0].tolist() == [0.0, 0.0]
    assert path.ys[0].tolist() == [1.0, 1.0]


def test_a_batch_of_initial_states_is_refused():
    spray = canonical_spray(get_example("euclidean2").lagrangian)
    with pytest.raises(ShapeError, match=r"one state of shape \(2,\)"):
        geodesic_integrate(spray, [[0.1, 0.2]], [[1.0, 0.5]], 0.01, 10)
