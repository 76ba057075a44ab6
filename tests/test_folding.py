"""Folding at build time: constants and structural zeros become folded
nodes, and a fold that drops an operand keeps every typed error of the
nodes beneath it as guards."""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from anifield import (DiffEngine, DivisionError, Lagrangian,
                      LadderDecomposition, ShapeError, TensorField, add,
                      berwald_connection, canonical_spray, constant_field,
                      evaluate, geodesic_integrate, landsberg_tensor,
                      liouville_field, matrix_inverse, reconstruct,
                      scalar_reciprocal, scale, tensor_product,
                      vertical_derivative, x_derivative, zero_field)
from anifield.catalog import get_example
from anifield.checks import CHECKS
from anifield.cli import RunConfig, main
from anifield.errors import DegeneracyError
from anifield.fields import pivot_inverse

ANALYTIC = DiffEngine("analytic")
FD4 = DiffEngine("fd4")
FLAT = ["euclidean2", "minkowski2", "quadchart", "wick(-1)"]


def _is_zero(field):
    return field.const is not None and not field.const.any()


def _ladder(name, engine):
    L = get_example(name).lagrangian
    return {"spray": canonical_spray(L, engine).coefficients,
            "berwald": berwald_connection(L, engine).coefficients,
            "landsberg": landsberg_tensor(L, engine)}


@pytest.mark.parametrize("name", FLAT)
def test_flat_ladders_fold_to_bare_zeros(name):
    for key, field in _ladder(name, ANALYTIC).items():
        assert _is_zero(field), key
        assert field.guards == (), key


def test_quartic_spray_is_a_guarded_zero():
    spray = canonical_spray(get_example("quartic2").lagrangian,
                            ANALYTIC).coefficients
    assert _is_zero(spray)
    assert spray.guards and all(g.raises for g in spray.guards)


def test_conformal_spray_is_not_folded():
    spray = canonical_spray(get_example("conformal2").lagrangian, ANALYTIC)
    assert spray.coefficients.const is None


@pytest.mark.parametrize("name", FLAT)
def test_fd4_flat_ladders_fold_to_bare_zeros(name):
    # phi is read through the chains, a constant; its stencils fold
    xs, ys = get_example(name).domain.sample(3, seed=2)
    for key, field in _ladder(name, FD4).items():
        assert _is_zero(field), key
        assert field.guards == (), key
        assert_array_equal(field(xs, ys), np.zeros(
            (3,) + field.component_shape()), key)


@pytest.mark.parametrize("name", ["quartic2", "conformal2"])
def test_fd4_folds_no_spray(name):
    spray = canonical_spray(get_example(name).lagrangian, FD4)
    assert spray.coefficients.const is None


def _guarded_by_a_reciprocal(domain):
    """(guard, constant): 1/x1, which vanishes where xs[:, 0] is 0 and has
    no chain, and the constant 2 that a fold over it keeps it as a guard
    of."""
    first = TensorField(domain, 0, 0, 0.0, lambda bx, by: bx[:, 0].copy())
    guard = scalar_reciprocal(first)
    guarded = add(tensor_product(guard, zero_field(domain, 0, 0, 0.0), ",->",
                                 0, 0),
                  constant_field(domain, np.asarray(2.0), 0, 0))
    assert guarded.const == 2.0 and guarded.guards == (guard,)
    return guard, guarded


def _raises_at_sample_2_and_is_zero_elsewhere(dv, xs, ys):
    with pytest.raises(DivisionError) as info:
        dv(xs, ys)
    assert info.value.sample == (xs[2].tolist(), ys[2].tolist())
    keep = np.arange(len(xs)) != 2
    assert_array_equal(dv(xs[keep], ys[keep]), np.zeros((len(xs) - 1, 2)))


def test_fd4_folds_every_constant_and_stencils_a_varying_field():
    domain = get_example("euclidean2").domain
    for const in (zero_field(domain, 0, 1, 1.0),
                  constant_field(domain, np.eye(2), 0, 2)):
        dv = vertical_derivative(const, FD4)
        assert _is_zero(dv) and dv.guards == ()
    varying = liouville_field(domain)
    assert vertical_derivative(varying, FD4).const is None
    assert x_derivative(varying, FD4).const is None
    # a constant guarded by a reciprocal that vanishes at sample 2: its
    # derivative is a zero guarded by the reciprocal and its stencil
    xs, ys = domain.sample(4, seed=5)
    xs[:, 0] = [0.2, 0.3, 0.0, 0.5]
    guard, guarded = _guarded_by_a_reciprocal(domain)
    for derivative in (vertical_derivative, x_derivative):
        dv = derivative(guarded, FD4)
        assert _is_zero(dv) and dv.guards == (guard, derivative(guard, FD4))
        assert dv.guards[1].const is None and dv.guards[1].raises
        _raises_at_sample_2_and_is_zero_elsewhere(dv, xs, ys)


def test_a_fold_whose_guard_has_no_chain_is_a_zero_over_its_stencil():
    """The fold has no chain, since its guard has none; its analytic
    derivative is the zero guarded by the guard and the guard's stencil,
    as under fd4."""
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=5)
    xs[:, 0] = [0.2, 0.3, 0.0, 0.5, -0.5, 0.7]
    guard, guarded = _guarded_by_a_reciprocal(domain)
    for axis, derivative in enumerate((vertical_derivative, x_derivative)):
        assert guard.chain(axis) is None and guarded.chain(axis) is None
        dv = derivative(guarded, ANALYTIC)
        stencil = derivative(guard, ANALYTIC)
        assert stencil.name.startswith("fd_") and stencil.raises
        assert _is_zero(dv) and dv.guards == (guard, stencil)
        assert derivative(guarded, ANALYTIC) is dv
        _raises_at_sample_2_and_is_zero_elsewhere(dv, xs, ys)


def _count_built(monkeypatch):
    """A list that grows by one for each TensorField built from now on."""
    built = []
    init = TensorField.__init__
    monkeypatch.setattr(TensorField, "__init__",
                        lambda self, *a, **k: built.append(1) or init(
                            self, *a, **k))
    return built


def test_a_fresh_analytic_functional_laws_builds_few_nodes(monkeypatch):
    """A guarded zero's derivative is a zero over its guards' derivatives;
    it does not expand the combinators' rules over the graph beneath it.
    One analytic quartic2/functional_laws on a fresh bundle builds 177
    TensorFields (682 when each fold kept its combinator's rule)."""
    built = _count_built(monkeypatch)
    config = RunConfig(example="quartic2", checks=["functional_laws"],
                       samples=16, seed=0)
    report = CHECKS["functional_laws"](get_example("quartic2"), config)
    assert report.passed
    assert len(built) <= 200


@pytest.mark.parametrize("argv,most", [
    (["report", "--samples", "16", "--seed", "0"], 2570),
    (["report", "--method", "fd4", "--samples", "4", "--seed", "0"], 1797),
], ids=["analytic-16", "fd4-4"])
def test_a_report_builds_few_nodes(monkeypatch, capsys, argv, most):
    """The Liouville field builds its identity chain only when a graph
    reads it, which most graphs never do.  The two reports built 2,574
    and 1,858 TensorFields when every Liouville field built it at once
    and the checks fed arrays instead of `subtract` graphs."""
    built = _count_built(monkeypatch)
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert len(built) <= most


def test_fd4_derivative_of_a_constant_is_an_exact_zero():
    """Its stencil would leave a round-off residue where 7c is inexact."""
    domain = get_example("euclidean2").domain
    const = constant_field(domain, [[0.1, 0.3], [0.3, 0.7]], 0, 2)
    xs, ys = domain.sample(4, seed=3)
    for derivative in (vertical_derivative, x_derivative):
        d = derivative(const, FD4)
        assert_array_equal(d(xs, ys), np.zeros((4, 2, 2, 2)))
        assert _is_zero(d) and d.guards == ()


@pytest.mark.parametrize("check", ["linear_roundtrip", "landsberg_kernel"])
def test_fd4_flat_defects_stay_exactly_zero(check):
    config = RunConfig(example="euclidean2", checks=[check], samples=4,
                       seed=0, tolerance=1e-6, method="fd4")
    report = CHECKS[check](get_example("euclidean2"), config)
    assert report.max_abs_defect == 0.0 and report.passed


def _degenerate_lagrangian(domain, xs, bad):
    """L = y1^2 + c(x) y2^2 with c vanishing at sample `bad`, so phi =
    diag(1, 0) there.  Its chains claim no x-dependence at all, so the
    spray folds to zero over the inverse of phi."""
    shift = xs[bad, 0]

    def c(bx):
        return bx[:, 0] - shift

    ddell = TensorField(
        domain, 0, 2, 0.0,
        lambda bx, by: np.stack([np.full(len(bx), 2.0), 2.0 * c(bx)],
                                axis=1)[:, :, None] * np.eye(2),
        dy=lambda: zero_field(domain, 0, 3, -1.0),
        dx=lambda: zero_field(domain, 0, 3, 0.0), name="dv_ell")
    ell = TensorField(
        domain, 0, 1, 1.0,
        lambda bx, by: 2.0 * np.stack([by[:, 0], c(bx) * by[:, 1]], axis=1),
        dy=ddell, dx=lambda: zero_field(domain, 0, 2, 1.0), name="ell")
    L = TensorField(
        domain, 0, 0, 2.0,
        lambda bx, by: by[:, 0] ** 2 + c(bx) * by[:, 1] ** 2,
        dy=ell, dx=lambda: zero_field(domain, 0, 1, 2.0), name="flat_at")
    return Lagrangian(L)


def test_folded_spray_and_berwald_still_name_a_degenerate_sample():
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=4)
    L = _degenerate_lagrangian(domain, xs, 3)
    spray = canonical_spray(L, ANALYTIC).coefficients
    berwald = berwald_connection(L, ANALYTIC).coefficients
    for field in (spray, berwald):
        with pytest.raises(DegeneracyError) as info:
            field(xs, ys)
        assert info.value.sample == (xs[3].tolist(), ys[3].tolist())
    keep = np.arange(6) != 3
    assert_array_equal(spray(xs[keep], ys[keep]), np.zeros((5, 2)))


def test_degenerate_spray_is_a_guarded_zero():
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=4)
    L = _degenerate_lagrangian(domain, xs, 3)
    for field in (canonical_spray(L, ANALYTIC).coefficients,
                  berwald_connection(L, ANALYTIC).coefficients):
        assert _is_zero(field) and field.guards


def test_guarded_zero_keeps_a_division_error():
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(6, seed=5)
    xs[:, 0] = [0.2, 0.3, 0.0, 0.5, -0.5, 0.7]
    first = TensorField(domain, 0, 0, 0.0, lambda bx, by: bx[:, 0].copy())
    zero = zero_field(domain, 0, 0, 0.0)
    guarded = tensor_product(scalar_reciprocal(first), zero, ",->", 0, 0)
    assert _is_zero(guarded) and len(guarded.guards) == 1
    for field in (guarded, add(first, guarded)):
        with pytest.raises(DivisionError) as info:
            field(xs, ys)
        assert info.value.sample == (xs[2].tolist(), ys[2].tolist())


def test_folded_constant_inverse_is_bit_for_bit():
    domain = get_example("euclidean2").domain
    M = np.array([[2.0, 0.3], [0.7, 1.9]])
    inv = matrix_inverse(constant_field(domain, M, 0, 2))
    assert inv.const is not None and inv.guards == ()
    assert inv.const.tobytes() == pivot_inverse(M).tobytes()
    xs, ys = domain.sample(4, seed=2)
    varying = TensorField(domain, 0, 2, 0.0,
                          lambda bx, by: np.tile(M, (len(bx), 1, 1)))
    assert inv(xs, ys).tobytes() == matrix_inverse(varying)(xs, ys).tobytes()


def test_degenerate_constant_inverse_raises_at_evaluation():
    domain = get_example("euclidean2").domain
    inv = matrix_inverse(constant_field(domain, np.diag([1.0, 0.0]), 0, 2))
    assert inv.const is None and inv.raises
    xs, ys = domain.sample(3, seed=1)
    with pytest.raises(DegeneracyError) as info:
        inv(xs, ys)
    assert info.value.sample == (xs[0].tolist(), ys[0].tolist())


def test_reconstruct_leaves_a_folded_part_its_name():
    domain = get_example("euclidean2").domain
    f = TensorField(domain, 0, 1, 0.0, lambda xs, ys: np.cos(xs), name="f")
    split = LadderDecomposition(r=0, omega=1, base=f,
                                residues=(zero_field(domain, 0, 1, 0.0),))
    rebuilt = reconstruct(split, ANALYTIC)
    assert f.name == "f"
    xs, ys = domain.sample(3, seed=0)
    assert_array_equal(rebuilt(xs, ys), f(xs, ys))


def test_points_of_the_wrong_length_raise_shape_error():
    bundle = get_example("euclidean2")
    spray = canonical_spray(bundle.lagrangian, ANALYTIC)
    with pytest.raises(ShapeError, match="dim=2"):
        geodesic_integrate(spray, np.zeros(3), np.ones(3), 0.1, 2)
    with pytest.raises(ShapeError, match=r"x=\[0.0, 0.0, 0.0\]"):
        evaluate(bundle.lagrangian.field, np.zeros(3), np.ones(3))
    with pytest.raises(ShapeError, match="dim=2"):
        evaluate(liouville_field(bundle.domain), np.zeros(2), np.ones(3))


def test_domain_draws_are_kept_and_owned_by_the_caller(monkeypatch):
    domain = get_example("euclidean2").domain
    xs, ys = domain.sample(5, seed=11)
    before = xs.copy()

    def redraw(count, seed):
        raise AssertionError("the same draw was made twice")

    monkeypatch.setattr(domain, "_draw", redraw)
    xs[0] = 99.0
    xs2, ys2 = domain.sample(5, seed=11)
    assert_array_equal(xs2, before)
    assert_array_equal(ys2, ys)
    assert xs2.flags.writeable and not np.shares_memory(xs2, xs)


def test_a_folded_constant_memoizes_nothing():
    """A folded node returns its constant on every batch; it keeps no
    per-batch copy, however many distinct RK4 stages it sees."""
    spray = canonical_spray(get_example("euclidean2").lagrangian, ANALYTIC)
    G = spray.coefficients
    assert _is_zero(G) and G.guards == ()
    path = geodesic_integrate(spray, np.array([0.1, 0.2]),
                              np.array([1.0, 0.5]), 0.01, 200)
    assert path.completed and len(path) == 201
    assert len(G._memo) == 0
    value = G(np.array([0.1, 0.2]), np.array([1.0, 0.5]))
    assert_array_equal(value, np.zeros(2))
    assert not value.flags.writeable


def test_a_folded_field_on_a_batch_memoizes_its_guards():
    """quartic2's analytic spray folds to zero over the inverse of phi and
    the powers of its quartic form.  On a batch of 16 it runs each guard
    once, and every memo of its plan but a folded node's holds the batch
    after; a second folded field over the same guards runs none of them."""
    L = get_example("quartic2").lagrangian
    G = canonical_spray(L, ANALYTIC).coefficients
    assert _is_zero(G) and len(G.guards) == 4
    runs = []

    def record(guard):
        fn = guard._fn
        guard._fn = lambda *args: runs.append(guard.name) or fn(*args)

    for guard in G.guards:
        record(guard)
    xs, ys = L.domain.sample(16, seed=3)
    value = G(xs, ys)
    assert sorted(runs) == sorted(guard.name for guard in G.guards)
    assert_array_equal(value, np.zeros((16, 2)))
    assert not value.flags.writeable
    key = (xs.tobytes(), ys.tobytes())
    memos = [memo for memo, *_ in G._plan if memo is not None]
    assert len(memos) == len(G._plan) - 1
    assert G._memo == {} and all(key in memo for memo in memos)
    runs.clear()
    twice = scale(G, 2.0)
    assert _is_zero(twice) and twice.guards == G.guards
    assert_array_equal(twice(xs, ys), np.zeros((16, 2)))
    assert runs == []
    with pytest.raises(DegeneracyError):
        G(np.array([[0.1, 0.2], [0.3, 0.4]]), np.array([[1.0, 0.5],
                                                        [1.0, 0.0]]))
