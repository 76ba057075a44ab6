"""The RK4 geodesic integrator keeps the bits of the array form of its loop.

Every point has the bits of that array form, kept here as the reference,
whether the spray is stepped on Python floats or, folded to a constant,
64 steps at a time on arrays; a spray folded to an unguarded constant is
never called, and a guarded one has its guards run once per block of the
points the array form calls it at."""

import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from anifield import (ConicDomain, DiffEngine, Spray, TensorField, add,
                      canonical_spray, connections, fields,
                      geodesic_integrate, matrix_inverse, scalar_reciprocal,
                      tensor_product, zero_field)
from anifield.catalog import get_example
from anifield.errors import (DegeneracyError, DivisionError, DomainError,
                             ShapeError)
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
    other call shares, so neither phi nor any leaf of its plan memoizes
    them."""
    L = get_example("conformal2").lagrangian
    phi = L.phi_field()
    x0, y0 = np.array([0.1, 0.2]), np.array(_STARTS["conformal2"])
    path = geodesic_integrate(canonical_spray(L, DiffEngine(method)), x0, y0,
                              0.01, 40)
    leaves = [memo for memo, _, _, leaf in phi._plan if leaf is not None]
    assert leaves and len(phi._memo) == 0
    assert all(len(memo) == 0 for memo in leaves)
    fresh = get_example("conformal2").lagrangian
    _assert_same_bits(path, _array_rk4(
        canonical_spray(fresh, DiffEngine(method)), x0, y0, 0.01, 40))


def _zero_leaf(runs):
    """A spray whose leaf, not folded, is zero everywhere on the plane and
    appends the row count of each of its runs to `runs`."""
    plane = ConicDomain(2, None, name="plane")
    return Spray(TensorField(plane, 1, 0, 2.0, lambda xs, ys: runs.append(
        len(xs)) or np.zeros_like(ys), name="zero"))


@pytest.mark.parametrize("x0,dt,calls", [
    ([0.1, 0.2], 0.01, 3), ([0.0, 0.2], 0.0, 1), ([-0.0, 0.2], 0.0, 2),
], ids=["moving", "standing", "signed_zero"])
def test_a_stage_at_the_last_called_point_reuses_its_value(x0, dt, calls):
    """A varying spray is called at each stage whose point's bytes differ
    from those of the point it was called at last.  Under a zero spray the
    second and third stages of a step share their point.  With dt = 0
    every stage is at x + 0 k: the start itself when x^1 is 0.0, a second
    point when it is -0.0, as -0.0 + 0.0 is 0.0."""
    x0, y0 = np.array(x0), np.array([1.0, 0.5])
    runs = []
    path = geodesic_integrate(_zero_leaf(runs), x0, y0, dt, 1)
    assert runs == [1] * calls
    _assert_same_bits(path, _array_rk4(_zero_leaf([]), x0, y0, dt, 1))


def _upper_push():
    """y' = (0, -2|y|^2) on the upper half plane: y^2 falls through 0."""
    upper = ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")
    return Spray(TensorField(upper, 1, 0, 2.0, lambda xs, ys: np.stack(
        [np.zeros(len(ys)), np.sum(ys * ys, axis=-1)], axis=-1)))


def _constant_push():
    """A spray folded to the unguarded constant (0, 3/4): y^2 falls
    linearly through 0."""
    upper = ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")
    return Spray(_folded(upper, 1, 0, 2.0, [0.0, 0.75], (), "push"))


def _constant_over_a_gap():
    """The constant push of `_constant_push` over a domain missing the band
    0.95 < y^2 < 0.97.  At dt = 0.05 from y = (1, 1) the midpoint stages
    of the first step land in the band (y^2 = 0.9625) and its end does not
    (y^2 = 0.925), so only a stage check truncates the run."""
    gap = ConicDomain(2, membership=lambda x, y: not 0.95 < y[1] < 0.97,
                      name="gap")
    return Spray(_folded(gap, 1, 0, 2.0, [0.0, 0.75], (), "push"))


def _accelerate():
    """y' = (2|y|^2, 0) on x^1 < 1.9: at dt = 0.1 from the origin with
    y = (1, 1), every stage of the fourth step stays below 1.9 (at most
    1.879) and its end lands at 2.013."""
    left = ConicDomain(2, membership=lambda x, y: x[0] < 1.9, name="left")
    return Spray(TensorField(left, 1, 0, 2.0, lambda xs, ys: np.stack(
        [-np.sum(ys * ys, axis=-1), np.zeros(len(ys))], axis=-1)))


def _euclidean():
    return canonical_spray(get_example("euclidean2").lagrangian)


def _step_end_edge():
    """On the curve of `_constant_push` at dt = 0.007 from the origin with
    y = (1, 1), the x^2 of the last stage of step 65, the first step from
    64 on whose end rounds above its last stage."""
    dt = 0.007
    points = _array_rk4(_constant_push(), [0, 0], [1, 1], dt, 128)[0]
    for (x, y), (end, _) in zip(points[64:], points[65:]):
        x4 = x + dt * (y + 0.5 * dt * np.array([0.0, -1.5]))
        if end[1] > x4[1]:
            return x4[1]
    raise AssertionError("no step ends above its last stage")


def _constant_push_to_a_step_end():
    """The constant push of `_constant_push` on the half plane x^2 <=
    `_step_end_edge()`: the end of step 65 is refused, none of its
    stages."""
    edge = _step_end_edge()
    below = ConicDomain(2, membership=lambda x, y: x[1] <= edge,
                        name="below")
    return Spray(_folded(below, 1, 0, 2.0, [0.0, 0.75], (), "push"))


@pytest.mark.parametrize("build,y0,dt,where,length", [
    (_upper_push, [1.0, 1.0], 0.05, "stage", 8),
    (_constant_push, [1.0, 1.0], 0.05, "stage", 14),
    (_constant_over_a_gap, [1.0, 1.0], 0.05, "stage", 1),
    (_accelerate, [1.0, 1.0], 0.1, "step", 4),
    (_euclidean, [1e300, 1e300], 1e10, "stage", 1),
    (_constant_push, [1.0, 1.0], 0.0083, "stage", 81),
    (_constant_push_to_a_step_end, [1.0, 1.0], 0.007, "step", 66),
    (_euclidean, [1e6, 1e6], 1e300, "stage", 180),
], ids=["varying_stage", "constant_stage", "constant_gap", "step",
        "overflow", "second_block_stage", "second_block_step",
        "overflow_mid_block"])
def test_truncated_geodesics_match_the_array_form_bit_for_bit(
        build, y0, dt, where, length):
    x0, y0 = np.zeros(2), np.array(y0)
    reference = _array_rk4(build(), x0, y0, dt, 400)
    assert reference[2] == where and len(reference[0]) == length
    _assert_same_bits(geodesic_integrate(build(), x0, y0, dt, 400),
                      reference)


@pytest.mark.parametrize("steps", [63, 64, 65, 130])
@pytest.mark.parametrize("name", ["euclidean2", "minkowski2"])
def test_a_constant_spray_keeps_every_bit_across_block_edges(name, steps):
    """Blocks take 64 steps: one short, one full, one and a step, two and
    two steps."""
    L = get_example(name).lagrangian
    x0, y0 = np.array([0.1, 0.2]), np.array(_STARTS[name])
    assert canonical_spray(L).coefficients.const is not None
    reference = _array_rk4(canonical_spray(L), x0, y0, 0.01, steps)
    path = geodesic_integrate(canonical_spray(L), x0, y0, 0.01, steps)
    assert path.completed and len(path) == steps + 1
    _assert_same_bits(path, reference)


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


def _singular_from(edge, plane=None):
    """The inverse of diag(max(0, edge - x^1), 1), which is singular from
    x^1 = edge on."""
    plane = plane or ConicDomain(2, None, name="plane")

    def diag(xs, ys):
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = np.maximum(0.0, edge - xs[:, 0])
        out[:, 1, 1] = 1.0
        return out

    return matrix_inverse(TensorField(plane, 0, 2, 0.0, diag, name="M"))


def _zero_over(guard):
    """A spray coefficient folded to zero over the node `guard`."""
    zero = zero_field(guard.domain, 1, 0, 2.0)
    if guard.r + guard.s == 0:
        return tensor_product(guard, zero, ",k->k", 1, 0)
    return tensor_product(guard, zero, "ij,k->k", 1, 0)


def _guarded_zero():
    """A spray folded to zero over the inverse of diag(max(0, 1 - x^1), 1),
    which is singular from x^1 = 1 on."""
    return Spray(_zero_over(_singular_from(1.0)))


def _guarded_push():
    """The constant push (0, 3/4) of `_constant_push`, guarded as
    `_guarded_zero` is."""
    G = _zero_over(_singular_from(1.0))
    return Spray(add(G, _folded(G.domain, 1, 0, 2.0, [0.0, 0.75], (),
                                "push")))


def _guard_runs(G):
    """The row count of every run, from now on, of the leaf beneath G's
    one guard, an inverse."""
    [inverse] = G.guards
    [leaf] = inverse.operands
    runs = []
    fn = leaf._fn
    leaf._fn = lambda xs, ys: runs.append(len(xs)) or fn(xs, ys)
    return runs


def test_a_guarded_constant_spray_is_called_once_per_block():
    """Over 5 steps the array form calls G at 20 points: the start and the
    three later stages of each step.  The loop runs G's guard once, on all
    20."""
    spray = _guarded_zero()
    G = spray.coefficients
    assert G.const is not None and not G.const.any() and G.guards
    runs = _guard_runs(G)
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    path = geodesic_integrate(spray, x0, y0, 0.1, 5)
    assert path.completed and runs == [20]

    with pytest.raises(DegeneracyError) as info:
        geodesic_integrate(spray, x0, y0, 0.1, 20)
    with pytest.raises(DegeneracyError) as expected:
        _array_rk4(_guarded_zero(), x0, y0, 0.1, 20)
    assert str(info.value) == str(expected.value)
    assert info.value.sample == expected.value.sample
    assert info.value.sample[0][0] > 0.99


def test_a_guarded_constant_spray_runs_its_guard_once_per_block():
    """The guard's leaf runs once, on the 20 points of 5 steps."""
    spray = _guarded_zero()
    runs = _guard_runs(spray.coefficients)
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    assert geodesic_integrate(spray, x0, y0, 0.1, 5).completed
    assert runs == [20]


@pytest.mark.parametrize("build", [_guarded_zero, _guarded_push],
                         ids=["zero", "push"])
def test_a_guarded_constant_longer_than_a_block_keeps_every_bit(build):
    """300 steps make 1200 guard points: four full blocks of 256 and 176
    more."""
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    reference = _array_rk4(build(), x0, y0, 1e-3, 300)
    spray = build()
    runs = _guard_runs(spray.coefficients)
    path = geodesic_integrate(spray, x0, y0, 1e-3, 300)
    _assert_same_bits(path, reference)
    assert path.completed and len(path) == 301
    assert runs == [256] * 4 + [176]


def _guarded_push_on(domain):
    """The constant push (0, 3/4) on `domain`, guarded as `_guarded_zero`
    is; the guard holds while x^1 < 1."""
    G = _zero_over(_singular_from(1.0, domain))
    return Spray(add(G, _folded(domain, 1, 0, 2.0, [0.0, 0.75], (),
                                "push")))


@pytest.mark.parametrize("where", ["stage", "step"])
def test_a_guarded_constant_cut_mid_block_is_called_where_the_loop_is(where):
    """The guard's last block run holds the points the array form calls G
    at after the first 256: up to the refused stage, or through the last
    stage of the step whose end is refused."""
    dt, build = {"stage": (0.0083, _constant_push),
                 "step": (0.007, _constant_push_to_a_step_end)}[where]
    domain = build().coefficients.domain
    reference_spray = _guarded_push_on(domain)
    called = _guard_runs(reference_spray.coefficients)
    reference = _array_rk4(reference_spray, [0, 0], [1, 1], dt, 400)
    assert reference[1:] == (False, where)
    assert set(called) == {1}
    spray = _guarded_push_on(domain)
    runs = _guard_runs(spray.coefficients)
    path = geodesic_integrate(spray, [0, 0], [1, 1], dt, 400)
    _assert_same_bits(path, reference)
    assert runs == [256, len(called) - 256]


def _two_guards(first):
    """A spray folded to zero over two guards: the inverse of
    `_singular_from(1)`, which fails first along the curve from x = (0.1,
    0.2), y = (1, 0.5), and 1 / max(0, 0.8 - x^2), which fails later.
    `first` names the guard a batch call evaluates first."""
    inverse = _singular_from(1.0)
    reciprocal = scalar_reciprocal(TensorField(
        inverse.domain, 0, 0, 0.0,
        lambda xs, ys: np.maximum(0.0, 0.8 - xs[:, 1]), name="gap"))
    guards = [_zero_over(inverse), _zero_over(reciprocal)]
    if first == "later":
        guards.reverse()
    return Spray(add(*guards))


@pytest.mark.parametrize("first", ["earlier", "later"])
def test_of_two_failing_guards_the_one_point_form_names_the_first(first):
    spray = _two_guards(first)
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    assert len(spray.coefficients.guards) == 2
    with pytest.raises((DegeneracyError, DivisionError)) as block:
        spray.coefficients(np.array([[0.1, 0.9], [1.2, 0.2]]),
                           np.ones((2, 2)))
    assert block.type is (DegeneracyError if first == "earlier"
                          else DivisionError)
    with pytest.raises(DegeneracyError) as info:
        geodesic_integrate(spray, x0, y0, 0.1, 20)
    with pytest.raises(DegeneracyError) as expected:
        _array_rk4(_two_guards(first), x0, y0, 0.1, 20)
    assert str(info.value) == str(expected.value)
    assert info.value.sample == expected.value.sample
    assert 0.99 < info.value.sample[0][0] and info.value.sample[0][1] < 0.8


def _domain_error_guard():
    """A spray folded to zero over a leaf that raises DomainError from
    x^1 = 0.5 on."""
    plane = ConicDomain(2, None, name="plane")

    def refuse(xs, ys):
        if np.any(xs[:, 0] >= 0.5):
            raise DomainError("x^1 reached 0.5")
        return np.ones(len(xs))

    leaf = TensorField(plane, 0, 0, 0.0, refuse, name="edge", raises=True)
    return Spray(_zero_over(leaf))


def test_a_guard_raising_domain_error_truncates_at_the_same_state():
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    reference = _array_rk4(_domain_error_guard(), x0, y0, 0.01, 100)
    assert reference[1:] == (False, "stage") and len(reference[0]) == 40
    _assert_same_bits(geodesic_integrate(_domain_error_guard(), x0, y0,
                                         0.01, 100), reference)


def _singular_near_the_edge(edge):
    """`_guarded_zero` on the domain x^1 < 0.9, with its inverse singular
    from x^1 = `edge` on."""
    left = ConicDomain(2, membership=lambda x, y: x[0] < 0.9, name="left")
    return Spray(_zero_over(_singular_from(edge, left)))


def test_a_curve_that_leaves_the_domain_first_truncates_and_does_not_raise():
    """With the edge of the guard at the domain's, every point the domain
    admits passes the guard."""
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    reference = _array_rk4(_singular_near_the_edge(0.9), x0, y0, 0.1, 20)
    assert reference[1:] == (False, "stage")
    path = geodesic_integrate(_singular_near_the_edge(0.9), x0, y0, 0.1, 20)
    assert not path.completed
    _assert_same_bits(path, reference)


def test_a_guard_failing_before_the_curve_leaves_the_domain_raises():
    """The last block, cut short by the domain, is checked too."""
    x0, y0 = np.array([0.1, 0.2]), np.array([1.0, 0.5])
    with pytest.raises(DegeneracyError) as info:
        geodesic_integrate(_singular_near_the_edge(0.85), x0, y0, 0.1, 20)
    with pytest.raises(DegeneracyError) as expected:
        _array_rk4(_singular_near_the_edge(0.85), x0, y0, 0.1, 20)
    assert str(info.value) == str(expected.value)
    assert info.value.sample == expected.value.sample


def test_no_steps_never_call_a_guarded_spray(monkeypatch):
    def refuse(field, x, y):
        raise AssertionError(f"field {field.name!r} was called")

    spray = _guarded_zero()
    runs = _guard_runs(spray.coefficients)
    monkeypatch.setattr(TensorField, "__call__", refuse)
    path = geodesic_integrate(spray, [0.1, 0.2], [1.0, 0.5], 0.1, 0)
    assert path.completed and len(path) == 1 and runs == []


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


def _checked_states(monkeypatch):
    """The states the admissibility rule checks from now on, in order, and
    the row count of each batch given to `first_refused`, which checks the
    rows up to the first refused one."""
    states, batches = [], []
    admits, first_refused = ConicDomain.admits, ConicDomain.first_refused

    def one(domain, x, y, arrays=None):
        states.append((list(x), list(y)))
        return admits(domain, x, y, arrays)

    def rows(domain, xs, ys):
        batches.append(len(xs))
        i = first_refused(domain, xs, ys)
        states.extend(zip(xs[:i + 1].tolist(), ys[:i + 1].tolist()))
        return i

    monkeypatch.setattr(ConicDomain, "admits", one)
    monkeypatch.setattr(ConicDomain, "first_refused", rows)
    return states, batches


@pytest.mark.parametrize("name", ["conformal2", "euclidean2"])
def test_the_first_stage_of_a_step_is_not_checked_again(monkeypatch, name):
    """The initial state, then three stages and the end of each step.  A
    varying spray checks them one at a time; a constant one checks the
    4 rows of each step of a block in one batch, in the same order."""
    spray = canonical_spray(get_example(name).lagrangian)
    states, batches = _checked_states(monkeypatch)
    path = geodesic_integrate(spray, [0.1, 0.2], [1.0, 0.5], 0.01, 10)
    assert path.completed and len(path) == 11
    assert len(states) == 4 * 10 + 1
    ends = [(x.tolist(), y.tolist()) for x, y in path.points]
    assert states[::4] == ends
    assert batches == ([1] if spray.coefficients.const is None
                       else [1, 4 * 10])


def test_a_constant_spray_checks_its_blocks_in_the_loops_order(monkeypatch):
    """130 steps are two blocks of 64 steps and one of 2, and the checked
    states are those of the one-point loop: stages x2, x3 and x4 from the
    array form of a step, then its end."""
    reference = _array_rk4(_constant_push(), [0, 0], [1, 100], 1e-3, 130)
    states, batches = _checked_states(monkeypatch)
    path = geodesic_integrate(_constant_push(), [0, 0], [1, 100], 1e-3, 130)
    _assert_same_bits(path, reference)
    assert batches == [1, 256, 256, 8]
    a = np.array([0.0, -1.5])
    expected = [(path.xs[0].tolist(), path.ys[0].tolist())]
    for x, y in reference[0][:-1]:
        y2 = y + 0.5 * 1e-3 * a
        expected += [((x + 0.5 * 1e-3 * y).tolist(), y2.tolist()),
                     ((x + 0.5 * 1e-3 * y2).tolist(), y2.tolist()),
                     ((x + 1e-3 * y2).tolist(), (y + 1e-3 * a).tolist()),
                     None]
    ends = [(x.tolist(), y.tolist()) for x, y in path.points]
    expected[4::4] = ends[1:]
    assert states == expected


_NAN, _INF = float("nan"), float("inf")

_CASES = [
    ([0.1, 0.2], [1.0, 0.5], True),
    ([_NAN, 0.2], [1.0, 0.5], False),
    ([0.1, 0.2], [1.0, _NAN], False),
    ([_INF, 0.2], [1.0, 0.5], False),
    ([0.1, 0.2], [1.0, -_INF], False),
    ([0.1, 0.2], [0.0, 0.0], False),
    ([0.1, 0.2], [-0.0, -0.0], False),
    ([0.1, 0.2], [0.0, -0.5], False),
]


def _upper():
    return ConicDomain(2, membership=lambda x, y: y[1] > 0.0, name="upper")


@pytest.mark.parametrize("x,y,admitted", _CASES,
                         ids=["inside", "nan_x", "nan_y", "inf_x",
                              "minus_inf_y", "zero_y", "minus_zero_y",
                              "refused"])
def test_contains_and_the_stage_check_agree(x, y, admitted):
    """`contains` on arrays, `admits` on the float state a stage is
    checked on, and `first_refused` on a batch of that one row give one
    answer; the upper half plane refuses y^2 <= 0."""
    upper = _upper()
    assert upper.contains(np.array(x), np.array(y)) is admitted
    assert upper.admits(x, y, (np.array(x), np.array(y))) is admitted
    assert upper.first_refused(np.array([x]), np.array([y])) == admitted


def test_the_batched_rule_refuses_the_first_refused_row_of_a_stack():
    xs = np.array([x for x, _, _ in _CASES])
    ys = np.array([y for _, y, _ in _CASES])
    assert _upper().first_refused(xs, ys) == 1
    assert _upper().first_refused(xs[:1], ys[:1]) == 1
    assert _upper().first_refused(xs[:0], ys[:0]) == 0


_ENTRIES = st.sampled_from([0.5, -0.5, 0.0, -0.0, 2.0, -1e300, _NAN, _INF,
                            -_INF])


@given(rows=st.lists(st.lists(_ENTRIES, min_size=4, max_size=4),
                     max_size=12),
       predicate=st.booleans())
def test_the_batched_rule_is_admits_row_after_row(rows, predicate):
    """The first row `first_refused` names is the first `admits` refuses,
    and the predicate sees the same rows in the same order."""
    seen = []

    def upper(x, y):
        seen.append((x.tolist(), y.tolist()))
        return y[1] > 0.0

    domain = ConicDomain(2, upper if predicate else None, name="upper")
    xs = np.array(rows, dtype=float).reshape(-1, 4)[:, :2]
    ys = np.array(rows, dtype=float).reshape(-1, 4)[:, 2:]
    batched = domain.first_refused(xs, ys)
    batch_seen = seen.copy()
    seen.clear()
    one = next((i for i, (x, y) in enumerate(zip(xs.tolist(), ys.tolist()))
                if not domain.admits(x, y, (np.array(x), np.array(y)))),
               len(rows))
    assert batched == one
    assert batch_seen == seen


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
    """numpy, counting the calls of `np.array`, and the calls of all its
    functions and ufunc methods together."""

    def __init__(self):
        self.arrays = 0
        self.calls = 0

    def __getattr__(self, name):
        value = getattr(np, name)
        if isinstance(value, type) or not callable(value):
            return value
        return _Counted(self, value)


class _Counted:
    def __init__(self, counter, function):
        self.counter = counter
        self.function = function

    def __call__(self, *args, **kwargs):
        self.counter.calls += 1
        self.counter.arrays += self.function is np.array
        return self.function(*args, **kwargs)

    def __getattr__(self, name):    # a ufunc's methods
        value = getattr(self.function, name)
        return _Counted(self.counter, value) if callable(value) else value


def _plane_push():
    """The varying push of `_upper_push` over a domain with no predicate."""
    plane = ConicDomain(2, None, name="plane")
    return Spray(TensorField(plane, 1, 0, 2.0, lambda xs, ys: np.stack(
        [np.zeros(len(ys)), np.sum(ys * ys, axis=-1)], axis=-1)))


def _numpy_use(monkeypatch, build, steps):
    """The counted numpy of one integration of `build()`'s spray."""
    spray, counted = build(), _CountedNumpy()
    with monkeypatch.context() as patch:
        patch.setattr(connections, "np", counted)
        patch.setattr(fields, "np", counted)
        path = geodesic_integrate(spray, [0, 0], [1, 1], 1e-3, steps)
    assert path.completed and len(path) == steps + 1
    return counted


@pytest.mark.parametrize("build,per_step", [
    (_euclidean, 0), (_constant_push, 0), (_plane_push, 8),
    (_upper_push, 8),
], ids=["constant_no_predicate", "constant_predicate", "varying",
        "varying_predicate"])
def test_a_stage_builds_arrays_only_for_a_spray_call_or_a_predicate(
        monkeypatch, build, per_step):
    """A varying spray's stage builds two arrays per checked stage and step
    end, shared by its call and the predicate, two for the initial state
    and two for the trajectory.  A constant spray builds no array per
    stage: a block of up to 64 steps makes the same numpy calls whatever
    its length, and the predicate gets views of the block's rows."""
    counted = _numpy_use(monkeypatch, build, 5)
    if build().coefficients.const is None:
        assert counted.arrays == 5 * per_step + 2 + 2
        return
    assert counted.arrays == 0
    calls = [_numpy_use(monkeypatch, build, steps).calls
             for steps in (0, 5, 64, 65, 128)]
    none, one_block = calls[0], calls[2] - calls[0]
    assert one_block > 0
    assert calls == [none, none + one_block, none + one_block,
                     none + 2 * one_block, none + 2 * one_block]


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
