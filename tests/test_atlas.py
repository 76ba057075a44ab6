"""Chart transitions: pointwise maps, tensor pushforwards, connection cocycles."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (ChartTransition, ConicDomain, DiffEngine, ShapeError,
                      coherence_defect, berwald_connection, canonical_spray,
                      liouville_field, raise_connection, transform_connection,
                      transform_tensor)
from anifield.atlas import compose
from anifield.catalog import get_example

ANALYTIC = DiffEngine("analytic")
EUC = get_example("euclidean2")
QUAD = get_example("quadchart")
T = QUAD.transition
X0 = np.array([0.3, -0.5])
Y0 = np.array([1.0, 2.0])


def _reverse_transition():
    hess = np.zeros((2, 2, 2))
    hess[0, 1, 1] = -2.0

    def jacobian(xt):
        J = np.zeros(xt.shape + (2,))
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 0, 1] = -2.0 * xt[..., 1]
        return J

    return ChartTransition(
        forward=lambda xt: np.stack([xt[..., 0] - xt[..., 1] ** 2,
                                     xt[..., 1]], axis=-1),
        inverse=lambda x: np.stack([x[..., 0] + x[..., 1] ** 2, x[..., 1]],
                                   axis=-1),
        jacobian=jacobian,
        hessian=lambda xt: np.broadcast_to(hess, xt.shape[:-1] + hess.shape),
        name="unquad")


def test_push_then_pull_is_identity():
    xt, yt = T.push_point(X0, Y0)
    x, y = T.pull_point(xt, yt)
    assert_allclose(x, X0, atol=1e-14)
    assert_allclose(y, Y0, atol=1e-14)


def test_inverse_jacobian_inverts():
    J = T.jacobian(X0)
    assert_allclose(J @ T.inverse_jacobian(X0), np.eye(2), atol=1e-14)


def test_scalar_transforms_by_substitution():
    L = QUAD.lagrangian.field
    Lt = transform_tensor(L, T)
    xt, yt = T.push_point(X0, Y0)
    assert_allclose(Lt(xt, yt), L(X0, Y0), rtol=1e-14)


def test_one_form_transforms_covariantly():
    ell = QUAD.lagrangian.ell_field()
    ellt = transform_tensor(ell, T)
    xt, yt = T.push_point(X0, Y0)
    assert_allclose(ellt(xt, yt), ell(X0, Y0) @ T.inverse_jacobian(X0),
                    atol=1e-13)


def test_metric_transforms_with_two_inverse_legs():
    phi = QUAD.lagrangian.phi_field()
    phit = transform_tensor(phi, T)
    xt, yt = T.push_point(X0, Y0)
    Jinv = T.inverse_jacobian(X0)
    assert_allclose(phit(xt, yt), Jinv.T @ phi(X0, Y0) @ Jinv, atol=1e-13)


def test_liouville_is_chart_invariant():
    C = liouville_field(QUAD.domain)
    Ct = transform_tensor(C, T)
    xt, yt = T.push_point(X0, Y0)
    assert_allclose(Ct(xt, yt), yt, atol=1e-14)


def test_flat_spray_cocycle_frozen():
    G = canonical_spray(QUAD.lagrangian, ANALYTIC)
    Gt = transform_connection(G, T)
    xs, ys = QUAD.domain.sample(20, seed=1)
    for x, y in zip(xs, ys):
        xt, yt = T.push_point(x, y)
        assert_allclose(Gt.coefficients(xt, yt), [-yt[1] ** 2, 0.0],
                        atol=1e-9)


def test_flat_nonlinear_cocycle_frozen():
    N = raise_connection(canonical_spray(QUAD.lagrangian, ANALYTIC), ANALYTIC)
    Nt = transform_connection(N, T)
    xt, yt = T.push_point(X0, Y0)
    assert_allclose(Nt.coefficients(xt, yt),
                    [[0.0, -2.0 * yt[1]], [0.0, 0.0]], atol=1e-8)


def test_flat_anisotropic_cocycle_frozen():
    gamma = berwald_connection(QUAD.lagrangian, ANALYTIC)
    gt = transform_connection(gamma, T)
    xt, yt = T.push_point(X0, Y0)
    expected = np.zeros((2, 2, 2))
    expected[0, 1, 1] = -2.0
    assert_allclose(gt.coefficients(xt, yt), expected, atol=1e-7)


def test_transform_connection_rejects_raw_fields():
    with pytest.raises(ShapeError):
        transform_connection(QUAD.lagrangian.field, T)


def test_composition_with_reverse_is_identity():
    ident = compose(_reverse_transition(), T)
    assert_allclose(ident.forward(X0), X0, atol=1e-14)
    assert_allclose(ident.jacobian(X0), np.eye(2), atol=1e-14)
    assert_allclose(ident.hessian(X0), np.zeros((2, 2, 2)), atol=1e-14)


def test_transforming_back_recovers_the_spray():
    G = canonical_spray(QUAD.lagrangian, ANALYTIC)
    there = transform_connection(G, T)
    back = transform_connection(there, _reverse_transition())
    assert_allclose(back.coefficients(X0, Y0), G.coefficients(X0, Y0),
                    atol=1e-9)


def test_coherence_defect_keys_by_type():
    conformal = get_example("conformal2")
    xs, ys = conformal.domain.sample(12, seed=2)
    G = canonical_spray(conformal.lagrangian, ANALYTIC)
    N = raise_connection(G, ANALYTIC)
    gamma = berwald_connection(conformal.lagrangian, ANALYTIC)
    ell = conformal.lagrangian.ell_field()

    d_spray = coherence_defect(G, T, xs, ys, ANALYTIC)
    assert set(d_spray) == {"raise"}
    d_nl = coherence_defect(N, T, xs, ys, ANALYTIC)
    assert set(d_nl) == {"raise", "lower"}
    d_gamma = coherence_defect(gamma, T, xs, ys, ANALYTIC)
    assert set(d_gamma) == {"lower", "vertical"}
    d_ell = coherence_defect(ell, T, xs, ys, ANALYTIC)
    assert set(d_ell) == {"vertical", "liouville"}

    for d in (d_spray, d_nl, d_gamma, d_ell):
        for key, value in d.items():
            assert value.max() < 1e-6, (key, value)


def test_a_pushed_domain_admits_what_pulls_back_inside():
    """The membership of a pushed-forward domain pulls the point back and
    asks the source domain."""
    upper = ConicDomain(2, lambda x, y: y[1] > 0.0, name="upper")
    pushed = transform_tensor(liouville_field(upper), T).domain
    assert pushed.name == f"{T.name}(upper)"
    for y, admitted in (([1.0, 2.0], True), ([1.0, -2.0], False)):
        xt, yt = T.push_point(X0, np.array(y))
        assert pushed.contains(xt, yt) is admitted
