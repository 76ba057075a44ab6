"""Action functionals: frozen quadrature, level moves, gauge blindness."""

import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (ActionFunctional, DiffEngine, LevelError, ShapeError,
                      NonlinearConnection, TransitionError, add,
                      berwald_connection, canonical_spray, classical_linear,
                      embed_trivial, evaluate_action, extend_functional,
                      fundamental_tensor, gauge_symmetrize, linear_from_pair,
                      lower_connection, project_intrinsic, raise_connection,
                      restrict_functional, wick_metric)
from anifield.catalog import get_example
from anifield.checks import kernel_shift

ANALYTIC = DiffEngine("analytic")
EUC = get_example("euclidean2")
CONFORMAL = get_example("conformal2")
HANDMADE = get_example("handmadeN")


def _spray_density(G, xs, ys):
    g = G.coefficients(xs, ys)
    return np.sum(g * g, axis=-1) + np.sum(ys * ys, axis=-1)


def _nonlinear_density(N, xs, ys):
    n = N.coefficients(xs, ys)
    return np.sum(n * n, axis=(1, 2)) + n[:, 0, 0]


def _gamma_density(gamma, xs, ys):
    g = gamma.coefficients(xs, ys)
    return np.sum(g * g, axis=(1, 2, 3)) + np.sum(g, axis=(1, 2, 3))


def test_quadrature_is_frozen_by_seed():
    a = ActionFunctional("spray", _spray_density, EUC.domain, count=16, seed=5)
    b = ActionFunctional("spray", _spray_density, EUC.domain, count=16, seed=5)
    assert_allclose(a.xs, b.xs, atol=0.0)
    assert_allclose(a.weights, b.weights, atol=0.0)
    assert a.weights.sum() == pytest.approx(1.0)
    G = canonical_spray(EUC.lagrangian)
    assert evaluate_action(a, G) == evaluate_action(b, G)


def test_explicit_samples_pin_the_value():
    x0 = np.zeros(2)
    y0 = np.array([3.0, 4.0])
    S = ActionFunctional("spray", _spray_density, EUC.domain,
                         _samples=([x0], [y0], np.array([2.0])))
    G = canonical_spray(EUC.lagrangian)
    # the flat spray contributes nothing, so the value is 2 |y|^2
    assert evaluate_action(S, G) == pytest.approx(50.0)


def test_level_name_is_validated():
    with pytest.raises(LevelError):
        ActionFunctional("finsler", _spray_density, EUC.domain)


def test_object_type_is_validated():
    S = ActionFunctional("spray", _spray_density, EUC.domain, count=4)
    with pytest.raises(LevelError):
        evaluate_action(S, HANDMADE.nonlinear)


def test_restrict_precomposes_the_raise():
    S = ActionFunctional("nonlinear", _nonlinear_density, CONFORMAL.domain,
                         count=12, seed=2)
    down = restrict_functional(S, ANALYTIC)
    assert down.level == "spray"
    G = canonical_spray(CONFORMAL.lagrangian, ANALYTIC)
    lifted = raise_connection(G, ANALYTIC)
    assert evaluate_action(down, G) == pytest.approx(
        evaluate_action(S, lifted), rel=1e-12)


def test_restrict_metric_functional_to_lagrangians():
    def trace_density(g, xs, ys):
        return np.trace(g.field(xs, ys), axis1=1, axis2=2)

    S = ActionFunctional("metric", trace_density, EUC.domain, count=8, seed=3)
    down = restrict_functional(S)
    assert down.level == "lagrangian"
    direct = evaluate_action(S, fundamental_tensor(EUC.lagrangian))
    assert evaluate_action(down, EUC.lagrangian) == pytest.approx(direct)


def test_transition_errors_at_the_ends():
    S = ActionFunctional("spray", _spray_density, EUC.domain, count=4)
    with pytest.raises(TransitionError):
        restrict_functional(S)

    def energy_density(L, xs, ys):
        return L(xs, ys)

    A = ActionFunctional("lagrangian", energy_density, EUC.domain, count=4)
    with pytest.raises(TransitionError):
        extend_functional(A)
    with pytest.raises(TransitionError):
        gauge_symmetrize(A)
    with pytest.raises(TransitionError):
        gauge_symmetrize(S)


def test_extend_then_restrict_is_the_identity():
    S = ActionFunctional("spray", _spray_density, CONFORMAL.domain,
                         count=20, seed=4)
    back = restrict_functional(extend_functional(S, ANALYTIC), ANALYTIC)
    assert back.level == "spray"
    G = canonical_spray(CONFORMAL.lagrangian, ANALYTIC)
    assert evaluate_action(back, G) == pytest.approx(
        evaluate_action(S, G), rel=1e-12)


def test_restrict_then_extend_is_gauge_symmetrization():
    S = ActionFunctional("nonlinear", _nonlinear_density, HANDMADE.domain,
                         count=10, seed=6)
    roundabout = extend_functional(restrict_functional(S, ANALYTIC), ANALYTIC)
    sym = gauge_symmetrize(S, ANALYTIC)
    N = HANDMADE.nonlinear
    a = evaluate_action(roundabout, N)
    b = evaluate_action(sym, N)
    assert a == pytest.approx(b, rel=1e-12)
    # the handmade connection has a genuine residue, so both must disagree
    # with the raw functional
    assert abs(a - evaluate_action(S, N)) > 1e-6


def _linear_density(conn, xs, ys):
    return (np.sum(conn.gamma1(xs, ys), axis=(1, 2, 3))
            + np.sum(conn.gamma2(xs, ys) ** 2, axis=(1, 2, 3)))


def _linear_roundabout(conn):
    return embed_trivial(project_intrinsic(conn))


def _connection_roundabout(conn):
    return raise_connection(lower_connection(conn), ANALYTIC)


@pytest.mark.parametrize("level,density,roundabout,bundle,conn", [
    ("linear", _linear_density, _linear_roundabout, CONFORMAL,
     lambda: classical_linear(CONFORMAL.lagrangian, "cartan", ANALYTIC)),
    ("anisotropic", _gamma_density, _connection_roundabout, CONFORMAL,
     lambda: berwald_connection(CONFORMAL.lagrangian, ANALYTIC)),
    ("nonlinear", _nonlinear_density, _connection_roundabout, HANDMADE,
     lambda: HANDMADE.nonlinear),
], ids=["linear", "anisotropic", "nonlinear"])
def test_gauge_symmetrize_is_inject_after_retract(level, density, roundabout,
                                                  bundle, conn):
    S = ActionFunctional(level, density, bundle.domain, count=12, seed=13,
                         name="S")
    by_hand = ActionFunctional(
        level, lambda obj, xs, ys: density(roundabout(obj), xs, ys),
        bundle.domain, count=12, seed=13)
    sym = gauge_symmetrize(S, ANALYTIC)
    assert sym.level == level
    assert sym.name == "sym(S)"
    obj = conn()
    assert evaluate_action(sym, obj) == evaluate_action(by_hand, obj)


def test_gauge_blindness_to_nonlinear_residues():
    S = ActionFunctional("nonlinear", _nonlinear_density, HANDMADE.domain,
                         count=10, seed=7)
    sym = gauge_symmetrize(S, ANALYTIC)
    N = HANDMADE.nonlinear
    shift = kernel_shift(HANDMADE.domain,
                         np.random.default_rng(11).normal(size=(2, 2, 2)),
                         rank=1)
    shifted = NonlinearConnection(add(N.coefficients, shift))
    assert evaluate_action(sym, shifted) == pytest.approx(
        evaluate_action(sym, N), rel=1e-10)


def test_gauge_blindness_at_the_anisotropic_level():
    S = ActionFunctional("anisotropic", _gamma_density, CONFORMAL.domain,
                         count=10, seed=8)
    sym = gauge_symmetrize(S, ANALYTIC)
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    shift = kernel_shift(CONFORMAL.domain,
                         np.random.default_rng(12).normal(size=(2, 2, 2, 2)))
    shifted = type(gamma)(add(gamma.coefficients, shift))
    assert evaluate_action(sym, shifted) == pytest.approx(
        evaluate_action(sym, gamma), rel=1e-10)


def test_linear_gauge_ignores_the_vertical_block():
    def linear_density(conn, xs, ys):
        return (np.sum(conn.gamma1(xs, ys), axis=(1, 2, 3))
                + np.sum(conn.gamma2(xs, ys) ** 2, axis=(1, 2, 3)))

    S = ActionFunctional("linear", linear_density, CONFORMAL.domain,
                         count=8, seed=9)
    sym = gauge_symmetrize(S)
    gamma = berwald_connection(CONFORMAL.lagrangian, ANALYTIC)
    from anifield import scalar_power, tensor_product, constant_field
    block = tensor_product(
        constant_field(CONFORMAL.domain,
                       0.1 * np.random.default_rng(4).normal(size=(2, 2, 2)),
                       1, 2),
        scalar_power(EUC.lagrangian.field, -0.5), "ijk,->ijk", 1, 2)
    dressed = linear_from_pair(gamma, block)
    plain = embed_trivial(gamma)
    assert evaluate_action(sym, dressed) == pytest.approx(
        evaluate_action(sym, plain), rel=1e-9)


def test_a_density_of_the_wrong_shape_is_refused():
    def wide(G, xs, ys):
        return np.zeros((len(xs), 2))

    action = ActionFunctional("spray", wide, EUC.domain, count=4, seed=0,
                              name="wide")
    with pytest.raises(ShapeError, match=re.escape(
            "density of 'wide' returned shape (4, 2) on 4 samples, "
            "needs (4,)")):
        evaluate_action(action, canonical_spray(EUC.lagrangian))
