"""A one-sample stencil is taken on Python floats.

Its step, perturbed rows and combination must give the bits the array form
gives the same sample inside a batch; a non-finite sample or step, and a
combination that is not finite, go to the array form, so NaN, inf, warnings
and typed errors stay the same.  Both forms are checked at nesting depth 1
and 2, whose steps differ, so a form that regrouped eps**(1/(4 + k)) * |v|
or missed the depth would be seen."""

import warnings

import numpy as np
import pytest

from anifield import (ConicDomain, DiffEngine, TensorField, matrix_inverse,
                      vertical_derivative)
from anifield.catalog import get_example
from anifield import fields

QUARTIC = get_example("quartic2")
CONFORMAL = get_example("conformal2")


def _signs(xs, ys):
    """A scalar that reads the sign of every coordinate, -0.0 included."""
    s = (np.copysign(1.0, xs[:, 0]) + 2.0 * np.copysign(1.0, xs[:, 1])
         + 4.0 * np.copysign(1.0, ys[:, 0]) + 8.0 * np.copysign(1.0, ys[:, 1]))
    return (20.0 + s) * (1.0 + np.sum(xs * xs + ys * ys, axis=-1))


def _children(method):
    engine = DiffEngine(method)
    return {
        "quartic2_energy": QUARTIC.lagrangian.field,
        "quartic2_ell": QUARTIC.lagrangian.ell_field(),
        "quartic2_phi": QUARTIC.lagrangian.phi_field(),
        "conformal2_phi": CONFORMAL.lagrangian.phi_field(),
        # a stencil under fd4, the exact chain under analytic
        "nested_dv_phi": vertical_derivative(QUARTIC.lagrangian.phi_field(),
                                             engine),
        "signs": TensorField(QUARTIC.domain, 0, 0, 2.0, _signs, name="signs"),
    }


def _batch():
    xs, ys = QUARTIC.domain.sample(5, seed=11)
    zeros_x = np.array([[-0.0, 0.4], [0.2, -0.0]])
    zeros_y = np.array([[1.3, -0.0], [-0.0, 0.9]])
    return np.vstack([xs, zeros_x]), np.vstack([ys, zeros_y])


@pytest.fixture
def float_path(monkeypatch):
    """Which one-sample stencils built their rows on Python floats and
    which of those also combined them there."""
    taken = {"rows": [], "combination": []}
    rows, combination = fields._one_sample_rows, fields._one_sample_combination

    def counted_rows(*args):
        out = rows(*args)
        taken["rows"].append(out is not None)
        return out

    def counted_combination(*args):
        out = combination(*args)
        taken["combination"].append(out is not None)
        return out

    monkeypatch.setattr(fields, "_one_sample_rows", counted_rows)
    monkeypatch.setattr(fields, "_one_sample_combination",
                        counted_combination)
    return taken


def _outcome(child, xs, ys, wiggle_y, depth):
    """(values or (error type, message, sample), warning messages)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            out = fields._stencil(child, xs, ys, wiggle_y, depth)
        except Exception as exc:  # noqa: BLE001 - compared as it is
            out = (type(exc), str(exc), getattr(exc, "sample", None))
    return out, sorted({str(w.message) for w in caught})


@pytest.mark.parametrize("wiggle_y", [True, False], ids=["y", "x"])
@pytest.mark.parametrize("method", ["analytic", "fd4"])
@pytest.mark.parametrize("name", sorted(_children("analytic")))
def test_one_sample_has_the_bits_of_the_batch(float_path, name, method,
                                              wiggle_y):
    # under fd4, nested_dv_phi is a stencil, so depth 2 is a stencil of it
    child = _children(method)[name]
    xs, ys = _batch()
    for depth in (1, 2):
        batch = fields._stencil(child, xs, ys, wiggle_y, depth)
        float_path["rows"].clear()
        float_path["combination"].clear()
        for i in range(len(xs)):
            one = fields._stencil(child, xs[i:i + 1], ys[i:i + 1], wiggle_y,
                                  depth)
            assert one.shape == batch[i:i + 1].shape
            assert one.tobytes() == batch[i:i + 1].tobytes(), (name, depth, i)
        assert float_path == {"rows": [True] * len(xs),
                              "combination": [True] * len(xs)}


@pytest.mark.parametrize("wiggle_y", [True, False], ids=["y", "x"])
@pytest.mark.parametrize("x,y,rows", [
    ([np.inf, 0.1], [1.0, 0.5], False),
    ([0.1, 0.2], [np.nan, 0.5], False),
    ([0.1, -np.inf], [1.0, 0.5], False),
    ([400.0, 0.1], [1.0, 0.5], True),   # e^(2 x^1) overflows in the child
], ids=["x_inf", "y_nan", "x_minus_inf", "child_overflows"])
def test_a_non_finite_sample_gets_the_array_form(float_path, x, y, rows,
                                                 wiggle_y):
    child = CONFORMAL.lagrangian.phi_field()
    xs, ys = _batch()
    xs, ys = np.vstack([xs, [x]]), np.vstack([ys, [y]])
    batch, batch_warned = _outcome(child, xs, ys, wiggle_y, 1)
    float_path["rows"].clear()
    one, one_warned = _outcome(child, xs[-1:], ys[-1:], wiggle_y, 1)
    nan = np.isnan(one)
    assert (nan == np.isnan(batch[-1:])).all()
    assert one[~nan].tobytes() == batch[-1:][~nan].tobytes()
    assert one_warned == batch_warned
    # a finite sample builds its rows on floats, and combines them there
    # unless the combination is not finite
    assert float_path == {"rows": [rows],
                          "combination": [False] if rows else []}


def _singular_from_one():
    """The inverse of diag(max(0, 1 - x^1), 1), singular from x^1 = 1 on."""
    plane = ConicDomain(2, None, name="plane")

    def diag(xs, ys):
        out = np.zeros((len(xs), 2, 2))
        out[:, 0, 0] = np.maximum(0.0, 1.0 - xs[:, 0])
        out[:, 1, 1] = 1.0 + ys[:, 1] ** 2
        return out

    return matrix_inverse(TensorField(plane, 0, 2, 0.0, diag, name="M"))


@pytest.mark.parametrize("wiggle_y", [True, False], ids=["y", "x"])
def test_a_raising_guard_names_the_same_sample(float_path, wiggle_y):
    child = _singular_from_one()
    xs = np.array([[0.1, 0.2], [1.5, -0.3], [0.3, 0.0]])
    ys = np.array([[1.0, 0.5], [0.7, 1.1], [-1.0, 0.2]])
    batch, _ = _outcome(child, xs, ys, wiggle_y, 1)
    one, _ = _outcome(child, xs[1:2], ys[1:2], wiggle_y, 1)
    assert batch[0] is fields.DegeneracyError
    assert one == batch
    assert batch[2][0][0] > 1.0
    assert float_path["rows"][-1] is True


@pytest.mark.parametrize("wiggle_y", [True, False], ids=["y", "x"])
@pytest.mark.parametrize("depth,top,overflows", [
    # eps**(1/16) > 1/10, so 12 h overflows before top + 2 h does
    (12, 1.45e308, (True, False)),
    (1, 1.797e308, (False, True)),
], ids=["twelve_h_inf", "row_inf"])
def test_a_step_out_of_range_gets_the_array_form(float_path, depth, top,
                                                 overflows, wiggle_y):
    # the warnings of one sample are compared with those of a batch of two
    # copies of it, as other samples may warn differently; the child is
    # bounded, so that only the stencil itself can warn
    child = TensorField(QUARTIC.domain, 0, 0, 0.0, lambda xs, ys: np.sum(
        np.arctan(xs) + np.arctan(ys), axis=-1), name="bounded")
    h = fields._step(depth, top)
    assert (12.0 * h == np.inf, top + 2.0 * h == np.inf) == overflows
    xs, ys = _batch()
    (ys if wiggle_y else xs)[0, 0] = top
    batch, _ = _outcome(child, xs, ys, wiggle_y, depth)
    float_path["rows"].clear()
    for i in range(len(xs)):
        one, one_warned = _outcome(child, xs[i:i + 1], ys[i:i + 1], wiggle_y,
                                   depth)
        _, pair_warned = _outcome(child, xs[[i, i]], ys[[i, i]], wiggle_y,
                                  depth)
        nan = np.isnan(one)
        assert (nan == np.isnan(batch[i:i + 1])).all()
        assert one[~nan].tobytes() == batch[i:i + 1][~nan].tobytes()
        assert one_warned == pair_warned
        assert one_warned or i  # the first sample's step warns
    assert float_path["rows"][0] is False
