"""The worked examples: registry behaviour and a few frozen values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import (DiffEngine, DomainError, berwald_connection,
                      canonical_spray, chern_connection, dv_phi,
                      homogeneity_defect, landsberg_tensor, raise_connection,
                      vertical_derivative)
from anifield.catalog import example_names, get_example
from anifield.fields import _is_zero

X0 = np.array([0.1, -0.2])


def test_names_include_the_wick_family():
    names = example_names()
    assert "euclidean2" in names
    assert "quartic2" in names
    assert any(n.startswith("wick(") for n in names)


def test_unknown_example_raises():
    with pytest.raises(DomainError):
        get_example("poincare3")


@pytest.mark.parametrize("spelling", ["wick(-2)", "wick(-2.0)", "wick( -2 )"])
def test_wick_parsing(spelling):
    bundle = get_example(spelling)
    assert bundle.kappa == -2.0
    assert bundle.metric is not None


def test_wick_rejects_garbage_parameter():
    """A kappa that is no finite real is an unknown name, as any other."""
    for name in ("wick(two)", "wick(1e400)", "wick(-1e400)", "wick(1.2.3)"):
        with pytest.raises(DomainError, match="unknown example"):
            get_example(name)


def test_minkowski_sampling_stays_in_the_cone():
    mink = get_example("minkowski2")
    xs, ys = mink.domain.sample(60, seed=13)
    for y in ys:
        assert y[1] * y[1] > y[0] * y[0]
        # the excluded sliver keeps samples clear of the cone boundary
        assert abs(y[1]) >= 1.2 * abs(y[0])


def test_quartic_sampling_avoids_the_axes():
    q = get_example("quartic2")
    xs, ys = q.domain.sample(60, seed=14)
    for y in ys:
        assert min(abs(y[0]), abs(y[1])) >= 0.2 * max(abs(y[0]), abs(y[1]))


def test_minkowski_energy_values():
    mink = get_example("minkowski2")
    assert mink.lagrangian(X0, np.array([3.0, 4.0])) == pytest.approx(7.0)


def test_handmade_connection_values():
    h = get_example("handmadeN")
    N = h.fields["connection"]
    assert_allclose(N(X0, np.array([1.0, 2.0])), [[2.0, 0.0], [0.0, 0.0]])
    assert h.nonlinear.coefficients is N


def test_quadchart_carries_a_transition():
    q = get_example("quadchart")
    t = q.transition
    xt, yt = t.push_point(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
    assert_allclose(xt, [5.0, 2.0])
    assert_allclose(yt, [3.0 + 2.0 * 2.0 * 4.0, 4.0])


def test_conformal_oracle_matches_markers():
    c = get_example("conformal2")
    assert c.spray_oracle is not None
    assert_allclose(c.spray_oracle(X0, np.array([1.0, 2.0])), [-1.5, 2.0])


def test_flat_markers():
    assert get_example("euclidean2").spray_oracle is None
    assert get_example("quartic2").spray_oracle is None


def test_riemannian_is_read_off_the_analytic_dv_phi():
    """An energy is Riemannian, quadratic in y, exactly when its analytic
    dv phi is a structural zero: every energy of the catalog but quartic2."""
    names = [n for n in example_names() if "(" not in n]
    bundles = {n: get_example(n)
               for n in names + ["wick(-2)", "wick(-1)", "wick(0.5)"]}
    riemannian = {n: _is_zero(dv_phi(b.lagrangian, DiffEngine("analytic")))
                  for n, b in bundles.items() if b.lagrangian is not None}
    assert riemannian == {"conformal2": True, "euclidean2": True,
                          "minkowski2": True, "quadchart": True,
                          "quartic2": False, "wick(-2)": True,
                          "wick(-1)": True, "wick(0.5)": True}


@pytest.mark.parametrize("name", ["euclidean2", "minkowski2", "conformal2",
                                  "quartic2", "handmadeN", "quadchart",
                                  "wick(0.5)"])
def test_catalog_fields_are_positively_homogeneous(name):
    bundle = get_example(name)
    xs, ys = bundle.domain.sample(4, seed=15)
    for field in bundle.fields.values():
        for x, y in zip(xs, ys):
            defect = np.max(np.abs(homogeneity_defect(field, x, y)))
            assert defect < 1e-7, (field.name, defect)


_DERIVED = {
    "ell": lambda L, e: L.ell_field(),
    "phi": lambda L, e: L.phi_field(),
    "spray": lambda L, e: canonical_spray(L, e).coefficients,
    "nonlinear": lambda L, e: raise_connection(canonical_spray(L, e),
                                               e).coefficients,
    "berwald": lambda L, e: berwald_connection(L, e).coefficients,
    "chern": lambda L, e: chern_connection(L, e).coefficients,
    "landsberg": lambda L, e: landsberg_tensor(L, e),
}


@pytest.mark.parametrize("name", ["euclidean2", "minkowski2", "conformal2",
                                  "quartic2", "quadchart", "wick(-2)",
                                  "wick(-1)", "wick(0.5)"])
def test_analytic_mode_takes_no_stencil(name):
    """Every energy's chains reach each derived object and the vertical
    derivative of each bundle field, so under analytic none of them is
    a stencil or built on one.  conformal2's factor has no x-chain: its
    spray and what is built on it stencil phi in x, one level deep."""
    bundle = get_example(name)
    engine = DiffEngine("analytic")
    L = bundle.lagrangian
    depths = {kind: build(L, engine).depth
              for kind, build in _DERIVED.items()}
    depths.update({f"dv {key}": vertical_derivative(field, engine).depth
                   for key, field in bundle.fields.items()})
    above_x_stencil = ({"spray", "nonlinear", "berwald", "chern", "landsberg"}
                       if name == "conformal2" else set())
    assert depths == {kind: int(kind in above_x_stencil) for kind in depths}
