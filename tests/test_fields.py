"""Core field algebra: domains, chains, combinators, derivative fallbacks."""

import gc
import itertools
import math
import re
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from anifield import (ConicDomain, DiffEngine, DomainError, DivisionError,
                      RankError, ShapeError, TensorField, add, constant_field,
                      evaluate, form_field, homogeneity_defect,
                      liouville_contract, liouville_field, matrix_inverse,
                      reindex, scalar_power, scalar_reciprocal, scale,
                      subtract, tensor_product, vertical_derivative,
                      x_derivative, zero_field)
from anifield import fields
from anifield.catalog import get_example
from anifield.fields import X, Y, DegeneracyError, _is_zero, pivot_inverse

EUC = get_example("euclidean2")
QUARTIC = get_example("quartic2")
CONFORMAL = get_example("conformal2")

X0 = np.array([0.3, -0.1])
Y0 = np.array([1.0, 2.0])


def test_domain_contains_ignores_sampling_box():
    # the x box only steers sampling, membership is conic in y
    assert EUC.domain.contains(np.array([50.0, -50.0]), Y0)
    assert not EUC.domain.contains(X0, np.zeros(2))


@pytest.mark.parametrize("x,y", [
    ([np.nan, 0.0], [1.0, 1.0]),
    ([0.0, 0.0], [np.inf, 1.0]),
    ([-np.inf, 0.0], [1.0, 1.0]),
    ([0.0, 0.0], [1.0, np.nan]),
], ids=["x_nan", "y_inf", "x_minus_inf", "y_nan"])
def test_domain_refuses_non_finite_points(x, y):
    x, y = np.array(x), np.array(y)
    assert not EUC.domain.contains(x, y)
    L = EUC.lagrangian.field
    with pytest.raises(DomainError, match="outside domain 'euclidean2'"):
        evaluate(L, x, y)
    with pytest.raises(DomainError, match="outside domain 'euclidean2'"):
        homogeneity_defect(L, x, y)


@pytest.mark.parametrize("second,named", [
    ([1.0, -1.0], "y=[1.0, -1.0]"), ([1.0, np.nan], "y=[1.0, nan]"),
], ids=["refused", "nan"])
def test_a_batch_outside_the_domain_names_its_first_refused_sample(
        monkeypatch, second, named):
    """The batch is checked in one pass, not one `contains` per row; the
    predicate runs on the rows up to the first refused one, which the
    error names."""
    seen = []

    def upper(x, y):
        seen.append(y.tolist())
        return y[1] > 0.0

    field = TensorField(ConicDomain(2, upper, name="upper"), 0, 0, 2.0,
                        lambda xs, ys: np.sum(ys * ys, axis=-1))
    xs = np.zeros((4, 2))
    ys = np.array([[1.0, 1.0], second, [0.0, 0.0], [1.0, -2.0]])

    def refuse(*args):
        raise AssertionError("contains was called")

    monkeypatch.setattr(ConicDomain, "contains", refuse)
    with pytest.raises(DomainError) as info:
        evaluate(field, xs, ys)
    assert str(info.value) == (f"point x=[0.0, 0.0], {named} is outside "
                               f"domain 'upper'")
    assert seen == [[1.0, 1.0]] + [second] * (named == "y=[1.0, -1.0]")
    seen.clear()
    assert evaluate(field, xs[:1], ys[:1]).tolist() == [2.0]
    assert seen == [[1.0, 1.0]]


def test_domain_sampling_is_seeded():
    xs1, ys1 = EUC.domain.sample(5, seed=11)
    xs2, ys2 = EUC.domain.sample(5, seed=11)
    assert_allclose(xs1, xs2)
    assert_allclose(ys1, ys2)
    assert xs1.shape == (5, 2)


def test_domain_sampling_respects_membership():
    mink = get_example("minkowski2")
    xs, ys = mink.domain.sample(40, seed=3)
    for y in ys:
        assert y[1] * y[1] > y[0] * y[0]


def test_sampling_exhaustion_raises():
    empty = ConicDomain(2, membership=lambda x, y: False, name="empty")
    with pytest.raises(DomainError):
        empty.sample(1, seed=0)


def test_evaluate_outside_domain():
    mink = get_example("minkowski2")
    ell = mink.lagrangian.ell_field()
    with pytest.raises(DomainError):
        evaluate(ell, X0, np.array([2.0, 1.0]))  # spacelike direction


def test_field_rejects_wrong_component_shape():
    bad = TensorField(EUC.domain, 0, 1, 1.0, lambda x, y: np.zeros(3))
    with pytest.raises(ShapeError):
        bad(X0, Y0)


def test_field_memoizes_per_point():
    """A batch of points is memoized under its bytes; other points run
    again."""
    calls = []

    def fn(xs, ys):
        calls.append(1)
        return np.sum(ys * ys, axis=-1)

    f = TensorField(EUC.domain, 0, 0, 2.0, fn)
    xs, ys = np.array([X0, X0]), np.array([Y0, 2.0 * Y0])
    f(xs, ys)
    f(xs, ys)
    assert len(calls) == 1
    f(xs, 2.0 * ys)
    assert len(calls) == 2


def test_add_requires_matching_rank_and_weight():
    L = EUC.lagrangian.field
    ell = EUC.lagrangian.ell_field()
    with pytest.raises(ShapeError):
        add(L, ell)
    shifted = TensorField(EUC.domain, 0, 1, 0.0,
                          lambda xs, ys: np.zeros((len(xs), 2)))
    with pytest.raises(ShapeError):
        add(ell, shifted)


def test_linear_combinators():
    ell = EUC.lagrangian.ell_field()
    s = subtract(add(ell, ell), scale(ell, 2.0))
    assert_allclose(s(X0, Y0), np.zeros(2), atol=0.0)


def test_constant_field_shape_check():
    with pytest.raises(ShapeError):
        constant_field(EUC.domain, np.zeros((2, 3)), 0, 2)


def test_liouville_field_values():
    C = liouville_field(EUC.domain)
    assert_allclose(C(X0, Y0), Y0)
    assert C.alpha == 1.0


def test_tensor_product_values_and_weight():
    ell = QUARTIC.lagrangian.ell_field()
    L = QUARTIC.lagrangian.field
    P = tensor_product(L, ell, ",i->i", 0, 1)
    assert P.alpha == 3.0
    assert_allclose(P(X0, Y0), L(X0, Y0) * ell(X0, Y0))


def test_tensor_product_chain_product_rule():
    """The attached vertical chain of a product must match a raw stencil."""
    ell = QUARTIC.lagrangian.ell_field()
    L = QUARTIC.lagrangian.field
    P = tensor_product(L, ell, ",i->i", 0, 1)
    exact = vertical_derivative(P, DiffEngine("analytic"))
    probed = vertical_derivative(P, DiffEngine("fd4"))
    xs, ys = QUARTIC.domain.sample(10, seed=7)
    for x, y in zip(xs, ys):
        assert_allclose(probed(x, y), exact(x, y), rtol=1e-7, atol=1e-8)


def test_reindex_transposes_values_and_chain():
    phi = QUARTIC.lagrangian.phi_field()
    d3 = vertical_derivative(phi, DiffEngine("analytic"))
    flipped = reindex(d3, "ijk->kji")
    v = d3(X0, Y0)
    assert_allclose(flipped(X0, Y0), np.transpose(v, (2, 1, 0)))


def test_matrix_inverse_frozen_value():
    phi = QUARTIC.lagrangian.phi_field()
    inv = matrix_inverse(phi)
    r2 = np.sqrt(2.0)
    expected = np.array([[2.0 * r2 / 3.0, r2 / 3.0],
                         [r2 / 3.0, 2.0 * r2 / 3.0]])
    assert_allclose(inv(X0, np.array([1.0, 1.0])), expected, rtol=1e-13)
    assert inv.alpha == -phi.alpha
    assert inv.rank == (2, 0)


def test_matrix_inverse_roundtrip_and_chain():
    phi = QUARTIC.lagrangian.phi_field()
    inv = matrix_inverse(phi)
    xs, ys = QUARTIC.domain.sample(8, seed=2)
    analytic = vertical_derivative(inv, DiffEngine("analytic"))
    stencil = vertical_derivative(inv, DiffEngine("fd4"))
    for x, y in zip(xs, ys):
        assert_allclose(inv(x, y) @ phi(x, y), np.eye(2), atol=1e-13)
        assert_allclose(stencil(x, y), analytic(x, y), rtol=1e-6, atol=1e-7)


def test_matrix_inverse_needs_two_slots():
    with pytest.raises(ShapeError):
        matrix_inverse(EUC.lagrangian.ell_field())


def test_pivot_inverse_flags_zero_row():
    with pytest.raises(DegeneracyError, match="zero row"):
        pivot_inverse(np.array([[0.0, 0.0], [1.0, 2.0]]))


def test_pivot_inverse_flags_tiny_scaled_pivot():
    near = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(DegeneracyError) as info:
        pivot_inverse(near, sample=(X0, Y0))
    assert info.value.sample is not None


def test_pivot_inverse_flags_nan():
    with pytest.raises(DegeneracyError):
        pivot_inverse(np.array([[np.nan, 1.0], [1.0, 1.0]]))
    with pytest.raises(DegeneracyError):
        pivot_inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_pivot_inverse_names_the_nan_sample_of_a_stack():
    stack = np.array([np.eye(2), [[1.0, np.nan], [0.0, 1.0]], 2.0 * np.eye(2)])
    xs, ys = EUC.domain.sample(3, seed=4)
    with pytest.raises(DegeneracyError) as info:
        pivot_inverse(stack, sample=(xs, ys))
    assert info.value.sample == (xs[1].tolist(), ys[1].tolist())


def _pivot_cases():
    """(matrix, whether it is degenerate) for n = 1..4: entries scaled over
    1e-8..1e8, then zero rows, NaN and inf entries and rank-deficient
    matrices."""
    rng = np.random.default_rng(8)
    for n in range(1, 5):
        for _ in range(50):
            scales = 10.0 ** rng.uniform(-8.0, 8.0, (n, n))
            yield rng.normal(size=(n, n)) * scales, False
        base = rng.normal(size=(n, n))
        for i in range(n):
            for bad in (np.nan, np.inf, -np.inf):
                m = base.copy()
                m[i, n - 1 - i] = bad
                yield m, True
            m = base.copy()
            m[i] = 0.0
            yield m, True
        if n > 1:
            m = np.round(4.0 * base)
            m[-1] = 3.0 * m[0]
            yield m, True
            m[-1] = m[0] + m[n - 2]
            yield m, True


def _outcome(mat, sample):
    """The bytes of each inverse of `mat`, or the message and sample of the
    DegeneracyError it raises."""
    try:
        inverse = pivot_inverse(mat, sample=sample)
    except DegeneracyError as exc:
        return str(exc), exc.sample
    return [m.tobytes() for m in inverse.reshape((-1,) + inverse.shape[-2:])]


def test_pivot_inverse_of_one_matrix_matches_the_stack_bit_for_bit():
    # one matrix is eliminated on Python floats, a stack with numpy
    xs, ys = EUC.domain.sample(2, seed=6)
    for m, degenerate in _pivot_cases():
        with np.errstate(all="ignore"):
            pair = _outcome(np.stack([m, m]), (xs, ys))
        one = _outcome(m, "here")
        first = _outcome(m[None], (xs[:1], ys[:1]))
        if degenerate:
            message, where = pair
            assert where == (xs[0].tolist(), ys[0].tolist())
            assert one == (message, "here")
            assert first == pair
        else:
            assert pair[0] == pair[1]
            assert one == first == pair[:1]


def test_pivot_inverse_of_a_non_finite_stack_raises_without_a_warning():
    # a stack meets inf, -inf and NaN entries as quietly as one matrix
    # does, and names the same reason
    xs, ys = EUC.domain.sample(2, seed=6)
    mixed = np.array([[[1.0, 2.0], [3.0, 4.0]],
                      [[np.inf, 1.0], [-np.inf, np.nan]]])
    stacks = [(np.stack([m, m]), m, 0)
              for m, _ in _pivot_cases() if not np.isfinite(m).all()]
    stacks.append((mixed, mixed[1], 1))
    for stack, bad, i in stacks:
        message, _ = _outcome(bad, "here")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(stack, (xs, ys)) == (
                message, (xs[i].tolist(), ys[i].tolist()))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pivot_inverse_names_a_non_finite_matrix(n, bad):
    # every entry position, alone and beside a zero row, one matrix and
    # the middle of a stack of three: the reason is the non-finite entry
    xs, ys = EUC.domain.sample(3, seed=6)
    good = np.eye(n) + 0.1 * np.random.default_rng(n).normal(size=(n, n))
    for i in range(n):
        for j in range(n):
            m = good.copy()
            m[i, j] = bad
            cases = [m]
            if n > 1:
                cases.append(m.copy())
                cases[-1][(i + 1) % n] = 0.0
            for m in cases:
                for mat, sample, where in (
                        (m, "here", "here"),
                        (m[None], (xs[:1], ys[:1]),
                         (xs[0].tolist(), ys[0].tolist())),
                        (np.stack([good, m, good]), (xs, ys),
                         (xs[1].tolist(), ys[1].tolist()))):
                    with pytest.raises(DegeneracyError) as info:
                        pivot_inverse(mat, sample=sample)
                    assert str(info.value) == "matrix has a non-finite entry"
                    assert info.value.sample == where


def test_scalar_power_values_and_weight():
    L = QUARTIC.lagrangian.field
    root = scalar_power(L, 0.5)
    assert root.alpha == 1.0
    assert_allclose(root(X0, Y0), np.sqrt(L(X0, Y0)))


def test_scalar_power_chain():
    L = QUARTIC.lagrangian.field
    f = scalar_power(L, 1.5)
    exact = vertical_derivative(f, DiffEngine("analytic"))
    probed = vertical_derivative(f, DiffEngine("fd4"))
    xs, ys = QUARTIC.domain.sample(6, seed=9)
    for x, y in zip(xs, ys):
        assert_allclose(probed(x, y), exact(x, y), rtol=1e-6, atol=1e-8)


def test_scalar_power_division_errors():
    zero = constant_field(EUC.domain, np.asarray(0.0), 0, 0)
    with pytest.raises(DivisionError) as info:
        scalar_power(zero, -1.0)(X0, Y0)
    assert info.value.sample is not None
    neg = constant_field(EUC.domain, np.asarray(-2.0), 0, 0)
    with pytest.raises(DivisionError):
        scalar_power(neg, 0.5)(X0, Y0)
    # integer exponents on a negative base are fine
    assert_allclose(scalar_power(neg, 2.0)(X0, Y0), 4.0)


def test_scalar_power_rejects_tensors():
    with pytest.raises(ShapeError):
        scalar_power(EUC.lagrangian.ell_field(), 2.0)


def test_scalar_reciprocal():
    L = EUC.lagrangian.field
    assert_allclose(scalar_reciprocal(L)(X0, np.array([3.0, 4.0])), 1.0 / 25.0)
    zero = constant_field(EUC.domain, np.asarray(0.0), 0, 0)
    with pytest.raises(DivisionError):
        scalar_reciprocal(zero)(X0, Y0)


def test_liouville_contract_needs_covariant_slot():
    with pytest.raises(RankError):
        liouville_contract(EUC.lagrangian.field)


def test_vertical_derivative_appends_index_last():
    handmade = get_example("handmadeN")
    N = handmade.fields["connection"]
    dN = vertical_derivative(N, DiffEngine("fd4"))
    got = dN(X0, Y0)
    expected = np.zeros((2, 2, 2))
    expected[0, 0, 1] = 1.0  # d N^1_1 / d y^2
    assert_allclose(got, expected, atol=1e-9)
    assert dN.alpha == N.alpha - 1.0
    assert dN.rank == (1, 2)


def test_vertical_derivative_gradient_of_energy():
    L = EUC.lagrangian.field
    for engine in (DiffEngine("analytic"), DiffEngine("fd4")):
        dL = vertical_derivative(L, engine)
        assert_allclose(dL(X0, np.array([3.0, 4.0])), [6.0, 8.0],
                        rtol=0, atol=1e-9)


def test_fd_fallback_without_chain():
    bare = TensorField(EUC.domain, 0, 0, 2.0,
                       lambda xs, ys: np.sum(ys * ys, axis=-1))
    assert bare.chain(Y) is None
    dL = vertical_derivative(bare, DiffEngine("analytic"))
    assert_allclose(dL(X0, Y0), 2.0 * Y0, rtol=1e-9)


def test_x_derivative_frozen_conformal():
    L = CONFORMAL.lagrangian.field
    dxL = x_derivative(L)
    x = np.array([0.2, 0.7])
    val = L(x, Y0)
    assert_allclose(dxL(x, Y0), [2.0 * val, 0.0], rtol=1e-8, atol=1e-8)


def test_mixed_partials_commute():
    """x and y differentiation give the same mixed block in either order."""
    ell = CONFORMAL.lagrangian.ell_field()
    a = x_derivative(vertical_derivative(ell))(X0, Y0)
    b = vertical_derivative(x_derivative(ell))(X0, Y0)
    assert_allclose(a, np.swapaxes(b, 1, 2), rtol=1e-7, atol=1e-10)


def _weighted_energy():
    """f = (1 + (x^1)^2) |y|^2, with exact chains along y and along x as
    deep as the combinators in _RESULTS differentiate it."""
    d = EUC.domain
    e0, eye = np.eye(2)[0], np.eye(2)

    def w(xs):
        return 1.0 + xs[:, 0] ** 2

    def dw(xs):
        return 2.0 * xs[:, 0]

    def node(r, s, alpha, fn, dy=None, dx=None):
        return TensorField(d, r, s, alpha, fn, dy=dy, dx=dx)

    gx = node(0, 2, 1.0, lambda xs, ys: 2.0 * dw(xs)[:, None, None]
              * ys[:, :, None] * e0,
              dy=node(0, 3, 0.0, lambda xs, ys: 2.0
                      * dw(xs)[:, None, None, None]
                      * np.einsum("im,k->ikm", eye, e0)),
              dx=node(0, 3, 1.0, lambda xs, ys: 4.0 * ys[:, :, None, None]
                      * np.einsum("k,m->km", e0, e0)))
    hessian = node(0, 2, 0.0, lambda xs, ys: 2.0 * w(xs)[:, None, None] * eye,
                   dy=zero_field(d, 0, 3, -1.0),
                   dx=node(0, 3, 0.0, lambda xs, ys: 2.0
                           * dw(xs)[:, None, None, None]
                           * np.einsum("ij,k->ijk", eye, e0)))
    g = node(0, 1, 1.0, lambda xs, ys: 2.0 * w(xs)[:, None] * ys,
             dy=hessian, dx=gx)
    fx = node(0, 1, 2.0, lambda xs, ys: dw(xs)[:, None]
              * np.sum(ys * ys, axis=-1)[:, None] * e0)
    f = node(0, 0, 2.0, lambda xs, ys: w(xs) * np.sum(ys * ys, axis=-1),
             dy=g, dx=fx)
    return f, g, hessian, gx


_RESULTS = {
    "add": lambda f, g, H, gx: add(f, scale(f, 3.0)),
    "scale": lambda f, g, H, gx: scale(f, -2.5),
    "subtract": lambda f, g, H, gx: subtract(scale(f, 3.0), f),
    "tensor_product": lambda f, g, H, gx: tensor_product(f, g, ",i->i", 0, 1),
    "reindex": lambda f, g, H, gx: reindex(gx, "ik->ki"),
    # g g^T + f H varies along both axes, unlike H alone
    "matrix_inverse": lambda f, g, H, gx: matrix_inverse(add(
        tensor_product(g, g, "i,j->ij", 0, 2),
        tensor_product(f, H, ",ij->ij", 0, 2))),
    "scalar_power": lambda f, g, H, gx: scalar_power(f, 1.5),
    "scalar_reciprocal": lambda f, g, H, gx: scalar_reciprocal(f),
    "liouville_contract": lambda f, g, H, gx: liouville_contract(g),
}


@pytest.mark.parametrize("axis", [Y, X], ids=["y", "x"])
@pytest.mark.parametrize("op", sorted(_RESULTS))
def test_rules_hold_along_both_axes(op, axis):
    """Each combinator's derivative rule, along y and along x, on a field
    whose exact chains along both axes are non-zero, against the stencil."""
    result = _RESULTS[op](*_weighted_energy())
    assert result.chain(axis) is not None
    derivative = (vertical_derivative, x_derivative)[axis]
    exact = derivative(result, DiffEngine("analytic"))
    probed = derivative(result, DiffEngine("fd4"))
    xs, ys = EUC.domain.sample(6, seed=5)
    assert np.max(np.abs(exact(xs, ys))) > 0.1
    assert_allclose(probed(xs, ys), exact(xs, ys), rtol=1e-6, atol=1e-9)


def test_engine_rejects_unknown_method():
    with pytest.raises(ValueError):
        DiffEngine("secant")


def test_step_scales_with_magnitude():
    eps = np.finfo(float).eps
    assert fields._step(1, 1.0) == eps ** (1.0 / 5.0)
    assert fields._step(2, 100.0) == eps ** (1.0 / 6.0) * 100.0
    assert fields._step(2, 100.0) > fields._step(2, 1.0) > fields._step(1, 1.0)
    tops = np.array([1.0, 100.0])
    assert fields._step(3, tops).tolist() == [fields._step(3, 1.0),
                                              fields._step(3, 100.0)]


def _depths():
    """Nodes over a leaf energy with no chains, by the depth they should
    read."""
    domain = EUC.domain
    fd4 = DiffEngine("fd4")
    energy = TensorField(domain, 0, 0, 2.0, lambda xs, ys: np.sum(
        ys ** 4, axis=-1) ** 0.5, name="energy")
    ell = TensorField(domain, 0, 1, 1.0, lambda xs, ys: 2.0 * ys, name="ell")
    dv = vertical_derivative(energy, fd4)
    dvdv = vertical_derivative(dv, fd4)
    # a stencil over a reciprocal can raise, so a fold over it keeps it
    guard = vertical_derivative(scalar_reciprocal(energy), fd4)
    fold = tensor_product(zero_field(domain, 0, 0, 0.0), guard, ",i->i",
                          0, 1)
    assert fold.const is not None and fold.guards == (guard,)
    return {0: [energy, constant_field(domain, np.eye(2), 0, 2), fold],
            1: [dv, guard, vertical_derivative(ell, fd4)],
            2: [dvdv, add(vertical_derivative(ell, fd4), dvdv),
                add(dvdv, vertical_derivative(ell, fd4))]}


def test_depth_counts_nested_stencils():
    for depth, nodes in _depths().items():
        assert [node.depth for node in nodes] == [depth] * len(nodes)


def test_a_nested_stencil_steps_by_its_depth(monkeypatch):
    """The stencil node passes its own depth, and calls `_stencil` through
    the module, where a tracer can replace it."""
    taken = []
    stencil = fields._stencil

    def recorded(field, xs, ys, wiggle_y, depth):
        taken.append(depth)
        return stencil(field, xs, ys, wiggle_y, depth)

    monkeypatch.setattr(fields, "_stencil", recorded)
    dvdv = _depths()[2][0]
    dvdv(X0, Y0)
    assert taken == [2, 1]


@given(y1=st.floats(0.5, 2.0), y2=st.floats(-2.0, -0.5))
def test_energy_is_two_homogeneous(y1, y2):
    y = np.array([y1, y2])
    L = EUC.lagrangian.field
    hooked = liouville_contract(vertical_derivative(L, DiffEngine("analytic")))
    assert abs(hooked(X0, y) - 2.0 * L(X0, y)) < 1e-12 * (1.0 + abs(L(X0, y)))


def test_homogeneity_defect_small_on_exact_chain():
    assert abs(homogeneity_defect(EUC.lagrangian.field, X0, Y0)) < 1e-14


def test_homogeneity_defect_outside_domain():
    mink = get_example("minkowski2")
    with pytest.raises(DomainError):
        homogeneity_defect(mink.lagrangian.field, X0, np.array([2.0, 1.0]))


def test_zero_field_round_trip():
    z = zero_field(EUC.domain, 1, 1, 0.0)
    assert_allclose(z(X0, Y0), np.zeros((2, 2)))
    assert vertical_derivative(z)(X0, Y0).shape == (2, 2, 2)


# ---------------------------------------------------------------------------
# plan evaluation: one memo key per batch, every node's closure once


def _counted(field, calls):
    """Count the runs of `field`'s closure under its name in `calls`."""
    fn = field._fn

    def counted(*args):
        calls[field.name] = calls.get(field.name, 0) + 1
        return fn(*args)
    field._fn = counted
    return field


def _varying(name, r=0, s=1):
    """A leaf whose components vary with the sample."""
    def fn(xs, ys):
        out = np.empty((len(xs),) + (2,) * (r + s))
        out[...] = (xs[:, 0] + 2.0 * ys[:, 1]).reshape((-1,) + (1,) * (r + s))
        return out
    return TensorField(EUC.domain, r, s, 1.0, fn, name=name)


def test_plan_runs_each_node_of_a_diamond_once_per_batch():
    calls = {}
    base = _counted(_varying("base"), calls)
    left = _counted(scale(base, 2.0, name="left"), calls)
    right = _counted(scale(base, 3.0, name="right"), calls)
    top = _counted(add(left, right, name="top"), calls)
    xs, ys = EUC.domain.sample(4, seed=2)
    assert_allclose(top(xs, ys), 5.0 * base(xs, ys))
    assert calls == {"base": 1, "left": 1, "right": 1, "top": 1}
    top(xs, ys)
    assert calls == {"base": 1, "left": 1, "right": 1, "top": 1}
    top(xs[:3], ys[:3])
    assert calls == {"base": 2, "left": 2, "right": 2, "top": 2}


def test_a_node_shared_by_two_fields_runs_once_per_batch():
    calls = {}
    base = _varying("base")
    shared = _counted(scale(base, 2.0, name="shared"), calls)
    first = _counted(add(shared, base, name="first"), calls)
    second = _counted(scale(shared, 3.0, name="second"), calls)
    xs, ys = EUC.domain.sample(4, seed=2)
    first(xs, ys)
    second(xs, ys)
    assert calls == {"shared": 1, "first": 1, "second": 1}
    second(xs[1:], ys[1:])
    first(xs[1:], ys[1:])
    assert calls == {"shared": 2, "first": 2, "second": 2}


@pytest.mark.parametrize("count", [1, 3])
def test_a_leaf_of_the_wrong_shape_inside_a_plan_is_named(count):
    lopsided = TensorField(EUC.domain, 0, 1, 1.0,
                           lambda xs, ys: np.zeros((len(xs), 3)),
                           name="lopsided")
    top = scale(add(lopsided, _varying("fine")), 2.0, name="top")
    xs, ys = EUC.domain.sample(count, seed=2)
    with pytest.raises(ShapeError) as info:
        top(xs, ys)
    assert str(info.value) == (
        f"field 'lopsided' returned shape ({count}, 3), declared type (0, 1) "
        f"on {count} samples needs ({count}, 2)")


@pytest.mark.parametrize("count", [1, 3])
def test_a_leaf_returning_its_input_is_copied_and_values_are_read_only(count):
    echo = TensorField(EUC.domain, 1, 0, 1.0, lambda xs, ys: ys, name="echo")
    top = add(scale(echo, 2.0), _varying("other", r=1, s=0), name="top")
    xs, ys = EUC.domain.sample(count, seed=2)
    kept = ys.copy()
    out = top(xs, ys)
    held = echo(xs, ys)              # in echo's memo when count > 1
    assert not np.shares_memory(held, ys)
    ys[...] = 0.0
    assert_array_equal(held, kept)
    assert_array_equal(echo(xs, kept), kept)
    for value in [out, held] + [v for f in (echo, top)
                                for v in f._memo.values()]:
        assert not value.flags.writeable
        with pytest.raises(ValueError):
            value[...] = 1.0


@pytest.mark.parametrize("rows", [slice(None), slice(2, 3)],
                         ids=["six", "one"])
def test_an_inner_inverse_names_the_first_degenerate_sample(rows):
    xs, ys = EUC.domain.sample(6, seed=2)
    singular = xs[[2, 4], 0]

    def fn(xs, ys):
        mats = np.tile(np.eye(2), (len(xs), 1, 1))
        mats[np.isin(xs[:, 0], singular)] = [[1.0, 1.0], [1.0, 1.0]]
        return mats
    mat = TensorField(EUC.domain, 0, 2, 0.0, fn, name="mat")
    top = scale(tensor_product(matrix_inverse(mat), _varying("v", r=0, s=1),
                               "ij,j->i", 1, 0), 2.0)
    with pytest.raises(DegeneracyError) as info:
        top(xs[rows], ys[rows])
    assert str(info.value).startswith("scaled pivot 0.000e+00 below 1e-12 "
                                      "in column 1")
    assert info.value.sample == (xs[2].tolist(), ys[2].tolist())


def _plan_nodes(root):
    """`root` and every node its plan evaluates, once each."""
    nodes = [root]
    for node in nodes:
        nodes += [op for op in node.operands or () if op not in nodes]
    return nodes


def _with_a_folded_operand():
    base = _varying("base")
    inner = add(scale(base, 2.0), scale(base, 3.0))
    folded = constant_field(EUC.domain, 1.5, 0, 0, name="folded")
    return tensor_product(folded, inner, ",i->i", 0, 1, name="top")


def test_a_one_sample_call_memoizes_nothing():
    top = _with_a_folded_operand()
    nodes = _plan_nodes(top)
    assert len(nodes) == 6
    xs, ys = EUC.domain.sample(1, seed=2)
    out = top(xs, ys)
    assert [len(node._memo) for node in nodes] == [0] * 6
    assert not out.flags.writeable
    point = top(xs[0], ys[0])
    assert not point.flags.writeable and point.base is not out
    assert_array_equal(point, out[0])
    assert [len(node._memo) for node in nodes] == [0] * 6


def test_a_batch_of_several_samples_is_held_by_every_node_but_a_folded_one():
    top = _with_a_folded_operand()
    xs, ys = EUC.domain.sample(3, seed=2)
    top(xs, ys)
    key = (xs.tobytes(), ys.tobytes())
    for node in _plan_nodes(top):
        assert list(node._memo) == ([] if node.const is not None else [key])
        assert all(not v.flags.writeable for v in node._memo.values())


def test_a_folded_root_runs_its_guards_on_every_one_sample_call():
    calls = {}
    mat = _counted(TensorField(EUC.domain, 0, 2, 0.0,
                               lambda xs, ys: np.tile(np.eye(2),
                                                      (len(xs), 1, 1)),
                               name="mat"), calls)
    zero = zero_field(EUC.domain, 1, 0, 1.0)
    root = tensor_product(matrix_inverse(mat), zero, "ij,k->k", 1, 0)
    assert _is_zero(root) and root.guards
    root(X0, Y0)
    root(X0, Y0)
    assert calls == {"mat": 2}
    assert [len(n._memo) for n in _plan_nodes(root)] == [0, 0, 0]


def _diamond():
    base = _varying("base")
    left, right = scale(base, 2.0), tensor_product(base, base, "i,i->", 0, 0)
    return base, left, tensor_product(right, left, ",i->i", 0, 1)


@pytest.mark.parametrize("count", [1, 2])
def test_memos_start_afresh_at_their_limit_and_keep_their_values(
        monkeypatch, count):
    monkeypatch.setattr(fields, "_MEMO_LIMIT", 3)
    diamond = _diamond()
    nodes = _plan_nodes(diamond[-1])
    draws = [EUC.domain.sample(count, seed=seed) for seed in range(7)]
    for i in [0, 1, 2, 3, 4, 5, 6, 0, 3, 6, 1, 1, 5]:
        xs, ys = draws[i]
        for k in (i % 3, 2):     # base, left or top, then top
            value = diamond[k](xs, ys)
            assert value.tobytes() == _diamond()[k](xs, ys).tobytes()
            # a one-sample call memoizes nothing
            assert max(len(node._memo) for node in nodes) <= (
                3 if count > 1 else 0)


def test_subscripts_that_miss_the_declared_type_are_refused_when_built():
    """Combinator outputs get no per-batch shape check, so a product or a
    permutation whose subscripts do not fit its types is refused when it
    is built."""
    phi = EUC.lagrangian.phi_field()
    v = _varying("v")
    with pytest.raises(ShapeError, match="do not fit"):
        tensor_product(phi, v, "ij,j->i", 0, 2)
    with pytest.raises(ShapeError, match="do not fit"):
        tensor_product(phi, v, "i,j->ij", 0, 2)
    with pytest.raises(ShapeError, match="do not permute"):
        reindex(phi, "ij->i")


@pytest.mark.parametrize("build", [
    lambda f, ell: reindex(f, "ab->aa"),
    lambda f, ell: reindex(f, "ab->ac"),
    lambda f, ell: tensor_product(ell, ell, "i,j->ik", 0, 2),
    lambda f, ell: tensor_product(ell, ell, "i,j->ii", 0, 2),
], ids=["repeated_slot", "new_letter", "product_new_letter",
        "product_repeated_letter"])
def test_subscripts_whose_output_letters_do_not_fit_are_refused_when_built(
        build):
    """Each output letter must be distinct and appear in an input; a
    permutation must permute."""
    with pytest.raises(ShapeError, match="distinct output letters"):
        build(_varying("f", s=2), _varying("ell"))


@pytest.mark.parametrize("invert", [
    lambda: matrix_inverse(get_example("quartic2").lagrangian.phi_field()),
    lambda: scalar_reciprocal(get_example("quartic2").lagrangian.field),
], ids=["inverse", "reciprocal"])
def test_derivatives_of_an_inverse_make_no_reference_cycle(invert):
    """The chain of an inverse takes the inverse itself, and the chain of
    every node inside it takes that chain again; two vertical derivatives
    are one node each while a graph holds them, and all of it dies with
    its last user by reference counting alone."""
    xs, ys = QUARTIC.domain.sample(3, 0)
    gc.collect()
    gc.disable()
    try:
        inv = invert()
        first = vertical_derivative(inv)
        second = vertical_derivative(first)
        assert vertical_derivative(inv) is first
        assert vertical_derivative(first) is second
        values = second(xs, ys)
        held = [weakref.ref(f) for f in (inv, first, second)]
        del inv, first, second
        assert [ref() for ref in held] == [None] * 3
        assert gc.collect() == 0
    finally:
        gc.enable()
    again = vertical_derivative(vertical_derivative(invert()))
    assert_array_equal(again(xs, ys), values)


def _symmetric_form(dim, k, seed):
    """A random symmetric covariant tensor of order k on R^dim."""
    A = np.random.default_rng(seed).normal(size=(dim,) * k)
    return sum(np.transpose(A, p)
               for p in itertools.permutations(range(k))) / math.factorial(k)


def _form_by_einsum(T, hooked, ys):
    """T(y, ..., y, .) with `hooked` slots taken by y, as one einsum."""
    if hooked == 0:
        return np.broadcast_to(T, (len(ys),) + T.shape)
    slots = "abcd"[:T.ndim]
    hooks = [f"z{c}" for c in slots[:hooked]]
    return np.einsum(",".join(hooks + [slots]) + f"->z{slots[hooked:]}",
                     *[ys] * hooked, T)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_form_field_is_the_einsum_of_its_tensor_with_y(dim, k):
    domain = ConicDomain(dim)
    T = _symmetric_form(dim, k, seed=10 * dim + k)
    xs, ys = domain.sample(6, seed=k)
    for hooked in range(k + 1):
        form = form_field(domain, T, hooked)
        assert (form.rank, form.alpha) == ((0, k - hooked), float(hooked))
        assert_allclose(form(xs, ys), _form_by_einsum(T, hooked, ys),
                        rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_a_form_fields_y_chain_is_the_stencil_and_its_x_chain_is_zero(dim,
                                                                      k):
    """The chain hooked * T(y, ..., y, ., .) agrees with the fd4 stencil, and
    the x-chain is an unguarded structural zero."""
    domain = ConicDomain(dim)
    T = _symmetric_form(dim, k, seed=10 * dim + k)
    xs, ys = domain.sample(6, seed=k)
    for hooked in range(1, k + 1):
        form = form_field(domain, T, hooked)
        chain = vertical_derivative(form, DiffEngine("analytic"))
        assert chain is form.chain(Y) and chain.depth == 0
        stencil = vertical_derivative(form, DiffEngine("fd4"))
        assert stencil.depth == 1
        assert_allclose(chain(xs, ys), stencil(xs, ys), rtol=1e-8,
                        atol=1e-8)
        dx = form.chain(X)
        assert _is_zero(dx) and dx.guards == ()
        assert (dx.rank, dx.alpha) == ((0, k - hooked + 1), float(hooked))
    assert form_field(domain, T, 0).const.tolist() == T.tolist()


def test_a_form_field_refuses_a_tensor_that_does_not_fit():
    with pytest.raises(ShapeError):
        form_field(EUC.domain, np.eye(3), 1)
    with pytest.raises(ShapeError):
        form_field(EUC.domain, np.eye(2), 3)
    with pytest.raises(ShapeError, match="symmetric"):
        form_field(EUC.domain, [[1.0, 2.0], [0.0, 1.0]], 2)


@given(dim=st.integers(2, 4), k=st.integers(1, 4), seed=st.integers(0, 99),
       size=st.integers(1, 12), data=st.data())
def test_a_form_fields_row_does_not_depend_on_its_batch(dim, k, seed, size,
                                                       data):
    """Row i of a batch has the bits of the same sample alone, and of the
    same sample at another position of a batch of another size."""
    domain = ConicDomain(dim)
    T = _symmetric_form(dim, k, seed)
    hooked = data.draw(st.integers(1, k))
    row = data.draw(st.integers(0, size - 1))
    rng = np.random.default_rng(seed)
    xs, ys = rng.normal(size=(size, dim)), rng.normal(size=(size, dim))
    form = form_field(domain, T, hooked)
    batch = form(xs, ys)
    assert batch[row].tobytes() == form(xs[row], ys[row]).tobytes()
    before = data.draw(st.integers(0, 12))
    other = np.concatenate([rng.normal(size=(before, dim)), ys[row:row + 1],
                            rng.normal(size=(3, dim))])
    moved = form(np.zeros_like(other), other)
    assert moved[before].tobytes() == batch[row].tobytes()


def test_a_homogeneity_error_prints_its_values_exactly():
    """q^(1-p) q^p is 2-homogeneous, but at p = 0.3 its third vertical
    derivative adds homogeneities 0.9999999999999999 and 1 (ROADMAP item
    1), which `:g` would print alike.  An integer alpha prints as before."""
    p = 0.3
    q = form_field(EUC.domain, np.diag([1.0, 2.0]), 2)
    f = tensor_product(scalar_power(q, 1 - p), scalar_power(q, p), ",->",
                       0, 0)
    with pytest.raises(ShapeError) as info:
        for _ in range(3):
            f = vertical_derivative(f)
    printed = re.fullmatch(r"cannot add homogeneities (\S+) and (\S+)",
                           str(info.value)).groups()
    assert sorted(printed) == ["0.9999999999999999", "1"]
    assert sorted(map(float, printed)) == [0.9999999999999999, 1.0]
    near = TensorField(EUC.domain, 0, 0, 2.0000000000000004,
                       lambda xs, ys: ys[:, 0] ** 2)
    with pytest.raises(ShapeError, match=re.escape(
            "needs a type-(0, 0) field of homogeneity 2, got (0, 0) at "
            "alpha=2.0000000000000004")):
        fields._require_type(near, 0, 0, 2, "a Lagrangian")


def test_scalar_reciprocal_refuses_a_non_scalar():
    with pytest.raises(ShapeError, match=re.escape(
            "scalar_reciprocal needs a type-(0, 0) field")):
        scalar_reciprocal(liouville_field(EUC.domain))
