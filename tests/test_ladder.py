"""Ladder projections, the residue cascade, and its reconstruction."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from numpy.testing import assert_allclose

from anifield import (DiffEngine, LadderDecomposition, LevelError, ShapeError,
                      TensorField, decompose, destroy_residues,
                      liouville_contract, lower, project_image, project_kernel,
                      reconstruct, subtract, vertical_derivative, wick_metric)
from anifield.catalog import get_example

ANALYTIC = DiffEngine("analytic")
EUC = get_example("euclidean2")
X0 = np.array([0.1, 0.4])


def _custom_ell():
    """A one form that is deliberately not a gradient: (y1 - y2, y1 + y2)."""
    dom = EUC.domain
    ddell = TensorField(dom, 0, 2, 0.0,
                        lambda xs, ys: np.tile([[1.0, -1.0], [1.0, 1.0]],
                                               (len(xs), 1, 1)),
                        dy=lambda: TensorField(
                            dom, 0, 3, -1.0,
                            lambda xs, ys: np.zeros((len(xs), 2, 2, 2))))
    return TensorField(dom, 0, 1, 1.0,
                       lambda xs, ys: np.stack([ys[:, 0] - ys[:, 1],
                                                ys[:, 0] + ys[:, 1]], axis=-1),
                       dy=ddell, name="skew_ell")


def test_project_image_is_identity_on_gradients():
    ell = EUC.lagrangian.ell_field()
    proj = project_image(ell, engine=ANALYTIC)
    xs, ys = EUC.domain.sample(12, seed=4)
    for x, y in zip(xs, ys):
        assert_allclose(proj(x, y), ell(x, y), atol=1e-13)


def test_project_image_lifts_to_the_next_level():
    # ell is 1-homogeneous, so its pre-image sits at level 2: dv(iota(ell)/2)
    ell = EUC.lagrangian.ell_field()
    proj = project_image(ell, engine=ANALYTIC)
    assert_allclose(proj(X0, np.array([3.0, 4.0])), [6.0, 8.0], atol=1e-12)


def test_lower_is_the_contraction_divided_by_nu():
    g = wick_metric(EUC.lagrangian, 0.5).field
    xs, ys = EUC.domain.sample(8, seed=3)
    hooked = liouville_contract(g)
    bare = lower(g, 1)
    assert bare.name == hooked.name == f"iota({g.name})"   # no x1 copy
    assert bare(xs, ys).tobytes() == hooked(xs, ys).tobytes()
    assert lower(g, 2)(xs, ys).tobytes() == (0.5 * hooked(xs, ys)).tobytes()
    named = lower(g, 1, name="named")
    assert named.name == "named"
    assert named(xs, ys).tobytes() == hooked(xs, ys).tobytes()
    with pytest.raises(LevelError):
        lower(g, 0)


def test_project_image_is_idempotent():
    skew = _custom_ell()
    once = project_image(skew, engine=ANALYTIC)
    twice = project_image(once, engine=ANALYTIC)
    xs, ys = EUC.domain.sample(10, seed=6)
    for x, y in zip(xs, ys):
        assert_allclose(twice(x, y), once(x, y), atol=1e-12)


def test_image_and_kernel_parts_sum_back():
    skew = _custom_ell()
    img = project_image(skew, engine=ANALYTIC)
    ker = project_kernel(skew, engine=ANALYTIC)
    y = np.array([3.0, 4.0])
    assert_allclose(img(X0, y) + ker(X0, y), skew(X0, y), atol=1e-12)
    # frozen: the non gradient part of (y1 - y2, y1 + y2) is (-y2, y1)
    assert_allclose(ker(X0, y), [-4.0, 3.0], atol=1e-12)
    assert abs(liouville_contract(ker)(X0, y)) < 1e-12


def test_project_image_refuses_level_zero_preimage():
    third = get_example("quartic2").fields["third"]
    assert third.alpha == -1.0
    with pytest.raises(LevelError):
        project_image(third)


def test_decompose_wick_metric_and_reconstruct():
    g = wick_metric(EUC.lagrangian, 0.5).field
    split = decompose(g, 2, ANALYTIC)
    assert isinstance(split, LadderDecomposition)
    assert split.omega == 2
    assert split.beta == 2
    assert split.base.rank == (0, 0)
    assert [res.s for res in split.residues] == [1, 2]
    total = reconstruct(split, ANALYTIC)
    xs, ys = EUC.domain.sample(15, seed=8)
    for x, y in zip(xs, ys):
        assert_allclose(total(x, y), g(x, y), atol=1e-10)
        for res in split.residues:
            hooked = liouville_contract(res)(x, y)
            assert np.max(np.abs(hooked)) < 1e-10


def test_decompose_frozen_base_and_residue():
    split = decompose(_custom_ell(), 2, ANALYTIC)
    y = np.array([3.0, 4.0])
    assert_allclose(split.base(X0, y), 12.5, atol=1e-12)   # (y1^2 + y2^2)/2
    assert_allclose(split.residue_of_rank(1)(X0, y), [-4.0, 3.0], atol=1e-12)


def test_residue_of_rank_unknown_rank():
    split = decompose(_custom_ell(), 2, ANALYTIC)
    with pytest.raises(LevelError):
        split.residue_of_rank(2)


def test_decompose_validates_levels():
    skew = _custom_ell()
    with pytest.raises(LevelError):
        decompose(skew, 3)               # beta beyond omega
    with pytest.raises(LevelError):
        decompose(skew, 1)               # beta at the field's own level
    half = TensorField(EUC.domain, 0, 1, 0.5,
                       lambda xs, ys: np.zeros((len(xs), 2)))
    with pytest.raises(LevelError):
        decompose(half, 1)
    third = get_example("quartic2").fields["third"]
    with pytest.raises(LevelError):
        decompose(third, 1)


def test_reconstruct_checks_weights():
    split = decompose(_custom_ell(), 2, ANALYTIC)
    tampered = LadderDecomposition(split.r, 3, split.base, split.residues)
    with pytest.raises(ShapeError):
        reconstruct(tampered)


def test_destroy_residues_fixes_gradients():
    ell = EUC.lagrangian.ell_field()
    flattened = destroy_residues(ell, engine=ANALYTIC)
    y = np.array([3.0, 4.0])
    assert_allclose(flattened(X0, y), ell(X0, y), atol=1e-12)


def test_destroy_residues_frozen_value():
    flattened = destroy_residues(_custom_ell(), engine=ANALYTIC)
    y = np.array([3.0, 4.0])
    # only the gradient part survives, and it is (y1, y2)
    assert_allclose(flattened(X0, y), [3.0, 4.0], atol=1e-12)


def test_destroy_residues_refuses_bad_homogeneity():
    # the level comes from the field: negative or fractional is refused,
    # scalars included
    for s in (0, 1, 2):
        for alpha in (-1.0, 0.5, -2.5):
            field = TensorField(EUC.domain, 0, s, alpha,
                                lambda xs, ys: np.zeros((len(xs),) + (2,) * s))
            with pytest.raises(LevelError, match="alpha >= 0|integer level"):
                destroy_residues(field, engine=ANALYTIC)


def test_destroy_residues_leaves_its_input_alone():
    L = EUC.lagrangian.field
    name = L.name
    flattened = destroy_residues(L, engine=ANALYTIC)
    assert L.name == name
    assert_allclose(flattened(X0, np.array([3.0, 4.0])), 25.0, atol=0.0)
    g = wick_metric(EUC.lagrangian, 0.5).field
    name = g.name
    assert destroy_residues(g, engine=ANALYTIC).name == f"destroyed({name})"
    assert g.name == name


@given(kappa=st.floats(-3.0, 3.0))
def test_destroy_residues_wick_identity(kappa):
    g = wick_metric(EUC.lagrangian, kappa).field
    phi = EUC.lagrangian.phi_field()
    flattened = destroy_residues(g, engine=ANALYTIC)
    y = np.array([1.0, 2.0])
    assert_allclose(flattened(X0, y), (1.0 + kappa) * phi(X0, y), atol=1e-10)


def test_vertical_derivative_then_contract_recovers_degree():
    """The cascade is built on iota(dv T) = alpha T, so spot check it."""
    phi = get_example("quartic2").lagrangian.phi_field()
    hooked = liouville_contract(vertical_derivative(phi, ANALYTIC))
    xs, ys = get_example("quartic2").domain.sample(6, seed=5)
    for x, y in zip(xs, ys):
        assert_allclose(hooked(x, y), np.zeros((2, 2)), atol=1e-12)


def test_decomposition_residue_error_message_names_rank():
    split = decompose(_custom_ell(), 2, ANALYTIC)
    with pytest.raises(LevelError, match="rank"):
        split.residue_of_rank(5)


def test_reconstruct_checks_each_residue_weight():
    split = decompose(_custom_ell(), 2, ANALYTIC)
    heavy = TensorField(EUC.domain, 0, 1, 2.0, lambda xs, ys: ys)
    tampered = LadderDecomposition(split.r, split.omega, split.base, (heavy,))
    with pytest.raises(ShapeError, match="residue of rank 1 has weight 3, "
                                         "expected 2"):
        reconstruct(tampered)
