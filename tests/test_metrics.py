"""Metric ladder: Lagrangians, Legendre fields, Wick rotations, signatures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from anifield import (AnisotropicMetric, DegeneracyError, DiffEngine,
                      Lagrangian, LinearConnection, ShapeError, TensorField,
                      constant_field, fundamental_tensor, kernel_residue,
                      lagrangian_of_metric, legendre_of, legendre_residue,
                      linear_from_pair, liouville_contract, scale,
                      signature_at, vertical_derivative, wick_metric,
                      zero_field)
from anifield.catalog import get_example
from anifield.metrics import LegendreField

ANALYTIC = DiffEngine("analytic")
EUC = get_example("euclidean2")
QUARTIC = get_example("quartic2")
X0 = np.array([0.0, 0.0])
S17 = np.sqrt(17.0)


def test_lagrangian_rejects_wrong_type():
    with pytest.raises(ShapeError):
        Lagrangian(EUC.lagrangian.ell_field())
    linear = TensorField(EUC.domain, 0, 0, 1.0, lambda xs, ys: ys[:, 0])
    with pytest.raises(ShapeError):
        Lagrangian(linear)


@pytest.mark.parametrize("build,message", [
    (lambda: Lagrangian(zero_field(EUC.domain, 0, 1, 1.0)),
     "a Lagrangian needs a type-(0, 0) field of homogeneity 2, "
     "got (0, 1) at alpha=1"),
    (lambda: Lagrangian(zero_field(EUC.domain, 0, 0, 1.0)),
     "a Lagrangian needs a type-(0, 0) field of homogeneity 2, "
     "got (0, 0) at alpha=1"),
    (lambda: LegendreField(zero_field(EUC.domain, 0, 1, 0.0)),
     "a Legendre-type field needs a type-(0, 1) field of homogeneity 1, "
     "got (0, 1) at alpha=0"),
    (lambda: AnisotropicMetric(zero_field(EUC.domain, 0, 2, 1.0)),
     "an anisotropic metric needs a type-(0, 2) field of homogeneity 0, "
     "got (0, 2) at alpha=1"),
    (lambda: LinearConnection(zero_field(EUC.domain, 1, 2, -1.0),
                              zero_field(EUC.domain, 1, 2, -1.0)),
     "Gamma1 needs a type-(1, 2) field of homogeneity 0, "
     "got (1, 2) at alpha=-1"),
    (lambda: LinearConnection(zero_field(EUC.domain, 1, 2, 0.0),
                              zero_field(EUC.domain, 2, 1, -1.0)),
     "Gamma2 needs a type-(1, 2) field of homogeneity -1, "
     "got (2, 1) at alpha=-1"),
    (lambda: linear_from_pair(zero_field(EUC.domain, 1, 2, 0.0),
                              zero_field(EUC.domain, 1, 2, 0.0)),
     "the vertical block needs a type-(1, 2) field of homogeneity -1, "
     "got (1, 2) at alpha=0"),
    (lambda: legendre_residue(zero_field(EUC.domain, 0, 1, 2.0)),
     "legendre_residue needs a type-(0, 1) field of homogeneity 1, "
     "got (0, 1) at alpha=2"),
    (lambda: legendre_residue(EUC.lagrangian.field),
     "legendre_residue needs a type-(0, 1) field of homogeneity 1, "
     "got (0, 0) at alpha=2"),
    (lambda: kernel_residue(zero_field(EUC.domain, 0, 1, 0.0)),
     "kernel_residue needs a type-(0, 1) field of homogeneity 1, "
     "got (0, 1) at alpha=0"),
], ids=["lagrangian_rank", "lagrangian_alpha", "legendre", "metric",
        "gamma1", "gamma2", "pair_delta", "legendre_residue_alpha",
        "legendre_residue_rank", "kernel_residue_alpha"])
def test_each_wrapper_names_its_type_check(build, message):
    with pytest.raises(ShapeError) as info:
        build()
    assert str(info.value) == message


def test_euclidean_ladder_values():
    L = EUC.lagrangian
    y = np.array([3.0, 4.0])
    assert L(X0, y) == pytest.approx(25.0)
    assert_allclose(L.ell_field()(X0, y), [6.0, 8.0])
    assert_allclose(L.phi_field()(X0, y), np.eye(2))


def test_quartic_gradient_frozen():
    ell = QUARTIC.lagrangian.ell_field()
    assert_allclose(ell(X0, np.array([1.0, 2.0])),
                    [2.0 / S17, 16.0 / S17], rtol=1e-13)


def test_quartic_fundamental_frozen():
    phi = QUARTIC.lagrangian.phi_field()
    expected = np.array([[49.0, -16.0], [-16.0, 76.0]]) / 17.0 / S17
    assert_allclose(phi(X0, np.array([1.0, 2.0])), expected, rtol=1e-13)
    at_diag = phi(X0, np.array([1.0, 1.0]))
    r2 = np.sqrt(2.0)
    assert_allclose(at_diag, [[r2, -r2 / 2.0], [-r2 / 2.0, r2]], rtol=1e-13)


def test_quartic_third_derivative_agrees_with_chain():
    # the (0, 3) field, 2 dv(phi) read through the chains, against the
    # stencil of phi
    third = QUARTIC.fields["third"]
    by_stencil = scale(vertical_derivative(QUARTIC.lagrangian.phi_field(),
                                           DiffEngine("fd4")), 2.0)
    xs, ys = QUARTIC.domain.sample(10, seed=12)
    for x, y in zip(xs, ys):
        assert_allclose(third(x, y), by_stencil(x, y), rtol=1e-8, atol=1e-9)


def test_legendre_of_wraps_the_gradient():
    lf = legendre_of(EUC.lagrangian)
    assert_allclose(lf.field(X0, np.array([3.0, 4.0])), [6.0, 8.0])


def test_fundamental_tensor_validates_point():
    g = fundamental_tensor(EUC.lagrangian, validate_at=(X0, np.array([1.0, 2.0])))
    assert isinstance(g, AnisotropicMetric)


def test_metric_check_at_degenerate_names_sample():
    g = wick_metric(EUC.lagrangian, -1.0)
    with pytest.raises(DegeneracyError) as info:
        g.check_at(X0, np.array([1.0, 2.0]))
    assert info.value.sample is not None


def test_metric_inverse_frozen():
    g = fundamental_tensor(QUARTIC.lagrangian)
    r2 = np.sqrt(2.0)
    assert_allclose(g.inverse_field()(X0, np.array([1.0, 1.0])),
                    [[2.0 * r2 / 3.0, r2 / 3.0], [r2 / 3.0, 2.0 * r2 / 3.0]],
                    rtol=1e-13)


def test_legendre_residue_vanishes_on_gradients():
    for bundle in (EUC, QUARTIC, get_example("conformal2")):
        res = legendre_residue(bundle.lagrangian.ell_field(), ANALYTIC)
        xs, ys = bundle.domain.sample(8, seed=3)
        for x, y in zip(xs, ys):
            assert np.max(np.abs(res(x, y))) < 1e-12


def test_legendre_residue_rejects_wrong_rank():
    with pytest.raises(ShapeError):
        legendre_residue(EUC.lagrangian.field)


def _linear_one_form(A):
    A = np.asarray(A, dtype=float)
    return TensorField(EUC.domain, 0, 1, 1.0, lambda xs, ys: ys @ A.T,
                       dy=constant_field(EUC.domain, A, 0, 2))


@given(a=st.floats(-2.0, 2.0), b=st.floats(-2.0, 2.0),
       c=st.floats(-2.0, 2.0), d=st.floats(-2.0, 2.0))
def test_legendre_residue_of_linear_map(a, b, c, d):
    """For ell = A y the obstruction is the skew part, (A - A^T) y / 2."""
    ell = _linear_one_form([[a, b], [c, d]])
    res = legendre_residue(ell, ANALYTIC)
    y = np.array([1.0, 2.0])
    assert_allclose(res(X0, y), [b - c, (c - b) / 2.0], atol=1e-12)


def test_kernel_residue_matches_legendre_route():
    ell = _linear_one_form([[0.3, 1.1], [-0.7, 0.2]])
    direct = legendre_residue(ell, ANALYTIC)
    ladder = kernel_residue(ell, ANALYTIC)
    xs, ys = EUC.domain.sample(12, seed=5)
    for x, y in zip(xs, ys):
        assert_allclose(ladder(x, y), direct(x, y), atol=1e-12)


@pytest.mark.parametrize("kappa", [-2.0, -0.5, 0.0, 1.5])
def test_wick_contraction_identity(kappa):
    g = wick_metric(EUC.lagrangian, kappa)
    phi = EUC.lagrangian.phi_field()
    gy = liouville_contract(g.field)
    phiy = liouville_contract(phi)
    xs, ys = EUC.domain.sample(10, seed=8)
    for x, y in zip(xs, ys):
        assert_allclose(gy(x, y), (1.0 + kappa) * phiy(x, y), atol=1e-12)


def test_wick_ground_floor_energy():
    kappa = 0.5
    g = wick_metric(EUC.lagrangian, kappa)
    E = lagrangian_of_metric(g)
    y = np.array([3.0, 4.0])
    assert E(X0, y) == pytest.approx((1.0 + kappa) * 25.0 / 2.0)


def test_wick_division_by_null_energy():
    """Evaluating the Wick metric on the light cone divides by L = 0."""
    from anifield import DivisionError
    mink = get_example("minkowski2")
    g = wick_metric(mink.lagrangian, 0.5)
    with pytest.raises(DivisionError):
        g.field(X0, np.array([1.0, 1.0]))


def test_signature_table_at_fixed_direction():
    v = np.array([1.0, 0.0])
    table = {0.0: (2, 0, 0), -2.0: (1, 1, 0)}
    for kappa, expected in table.items():
        g = wick_metric(EUC.lagrangian, kappa)
        assert signature_at(g, X0, v) == expected
    degenerate = wick_metric(EUC.lagrangian, -1.0)
    assert signature_at(degenerate, X0, v)[2] == 1


def test_signature_is_point_independent_for_wick():
    g = wick_metric(EUC.lagrangian, -2.0)
    xs, ys = EUC.domain.sample(10, seed=2)
    for x, y in zip(xs, ys):
        assert signature_at(g, x, y) == (1, 1, 0)


def test_signature_of_minkowski():
    mink = get_example("minkowski2")
    phi = mink.lagrangian.phi_field()
    assert_allclose(phi(X0, np.array([0.5, 1.0])), np.diag([-1.0, 1.0]))
    assert signature_at(phi, X0, np.array([0.5, 1.0])) == (1, 1, 0)


def test_signature_refuses_lopsided_matrix():
    asym = constant_field(EUC.domain, np.array([[0.0, 1.0], [0.0, 0.0]]), 0, 2)
    with pytest.raises(ShapeError):
        signature_at(asym, X0, np.array([1.0, 0.0]))
