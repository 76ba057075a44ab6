"""The worked examples: registry behaviour and a few frozen values."""

import numpy as np
import pytest
from numpy.testing import assert_allclose

from anifield import DomainError, homogeneity_defect
from anifield.catalog import example_names, get_example

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
    with pytest.raises(DomainError):
        get_example("wick(two)")


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
    assert c.riemannian
    assert c.spray_oracle is not None
    assert_allclose(c.spray_oracle(X0, np.array([1.0, 2.0])), [-1.5, 2.0])


def test_flat_markers():
    assert get_example("euclidean2").spray_oracle is None
    assert get_example("quartic2").spray_oracle is None
    assert not get_example("quartic2").riemannian


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


def _quartic_third_by_loop(ys):
    """quartic2's third vertical derivative, one component at a time."""
    y = ys.T
    Q = y[0] ** 4 + y[1] ** 4
    s1, s3, s5 = Q ** -0.5, Q ** -1.5, Q ** -2.5
    out = np.empty((len(ys), 2, 2, 2))
    for a in range(2):
        for b in range(2):
            for c in range(2):
                dab, dac, dbc = a == b, a == c, b == c
                out[:, a, b, c] = (
                    12.0 * y[a] * dab * dac * s1
                    - 12.0 * (y[a] ** 2 * dab * y[c] ** 3
                              + y[a] ** 2 * y[b] ** 3 * dac
                              + y[a] ** 3 * y[b] ** 2 * dbc) * s3
                    + 24.0 * y[a] ** 3 * y[b] ** 3 * y[c] ** 3 * s5)
    return out


@pytest.mark.parametrize("count", [1, 7, 64])
def test_quartic_third_derivative_matches_the_loop_bit_for_bit(count):
    bundle = get_example("quartic2")
    xs, ys = bundle.domain.sample(count, seed=count)
    third = bundle.fields["third"](xs, ys)
    assert third.tobytes() == _quartic_third_by_loop(ys).tobytes()
