"""Built-in worked examples.

Each bundle packages a conic domain with the objects the example is about:
an energy, a bare nonlinear connection, or a chart transition.  Every
energy is built on the symmetric-form leaf `form_field`, whose exact
chains make the "analytic" differentiation path stencil-free: y^T D y is
a quadratic form, quartic2 the square root of a quartic one.  conformal2
multiplies |y|^2 by an x-only factor whose y-chain is zero and which
deliberately carries no x-chain, so that building its spray exercises
the stencil in x.  That factor and handmadeN's connection are the only
chains written by hand.
"""

import re

import numpy as np

from .atlas import ChartTransition
from .connections import NonlinearConnection
from .errors import DomainError
from .fields import (ConicDomain, TensorField, constant_field, form_field,
                     liouville_field, scalar_power, scale, tensor_product,
                     vertical_derivative, zero_field)
from .metrics import Lagrangian, wick_metric


class ExampleBundle:
    """A named domain plus whatever objects the example provides; whether
    an energy is Riemannian is read off its analytic dv phi, not declared."""

    def __init__(self, name, domain, lagrangian=None, metric=None,
                 nonlinear=None, transition=None, kappa=None, fields=None,
                 spray_oracle=None):
        self.name = name
        self.domain = domain
        self.lagrangian = lagrangian
        self.metric = metric
        self.nonlinear = nonlinear
        self.transition = transition
        self.kappa = kappa
        self.fields = fields or {}
        self.spray_oracle = spray_oracle  # closed form, None means zero


def _energy_bundle(name, domain, L, **extra):
    """The bundle of the energy field `L`: its Lagrangian, and its energy,
    gradient, fundamental tensor and the Liouville field as bundle fields."""
    lagr = Lagrangian(L, name=name)
    fields = {"energy": L, "gradient": lagr.ell_field(),
              "fundamental": lagr.phi_field(),
              "liouville": liouville_field(domain)}
    return ExampleBundle(name, domain, lagrangian=lagr, fields=fields,
                         **extra)


def _quadratic_bundle(name, diag, membership=None, excluded=()):
    """Energy y^T D y for a constant diagonal D."""
    domain = ConicDomain(2, membership, excluded=excluded, name=name)
    return _energy_bundle(name, domain,
                          form_field(domain, np.diag(diag), 2, name=name))


def _euclidean():
    return _quadratic_bundle("euclidean2", (1.0, 1.0))


def _minkowski():
    return _quadratic_bundle(
        "minkowski2", (-1.0, 1.0),
        membership=lambda x, y: y[1] * y[1] > y[0] * y[0],
        excluded=(lambda x, y: abs(y[1]) < 1.2 * abs(y[0]),))


def _conformal():
    """L = exp(2 x^1) |y|^2; vertical chain exact, x-dependence left to the
    stencil."""
    domain = ConicDomain(2, None, name="conformal2")
    # Far out the factor overflows to inf and its products with 0 are NaN,
    # and numpy warns unless its caller has silenced it, as the geodesic
    # integrator and the CLI do.
    factor = TensorField(domain, 0, 0, 0.0,
                         lambda xs, ys: np.exp(2.0 * xs[:, 0]),
                         dy=lambda: zero_field(domain, 0, 1, -1.0),
                         name="exp(2x1)")
    L = tensor_product(factor, form_field(domain, np.eye(2), 2), ",->", 0, 0,
                       name="conformal2")

    def spray_oracle(xs, ys):
        # The conformal factor cancels: G does not depend on x at all.
        y1, y2 = ys[..., 0], ys[..., 1]
        return np.stack([0.5 * (y1 ** 2 - y2 ** 2), y1 * y2], axis=-1)

    return _energy_bundle("conformal2", domain, L, spray_oracle=spray_oracle)


def _quartic():
    """L = sqrt(y1^4 + y2^4), smooth and nondegenerate away from the axes."""
    domain = ConicDomain(
        2, lambda x, y: y[0] * y[1] != 0.0,
        excluded=(lambda x, y: min(abs(y[0]), abs(y[1])) < 0.2 * max(abs(y[0]), abs(y[1])),),
        name="quartic2")
    delta = np.zeros((2,) * 4)
    delta[0, 0, 0, 0] = delta[1, 1, 1, 1] = 1.0
    L = scalar_power(form_field(domain, delta, 4, name="y^4"), 0.5,
                     name="quartic2")
    bundle = _energy_bundle("quartic2", domain, L)
    bundle.fields["third"] = scale(
        vertical_derivative(bundle.lagrangian.phi_field()), 2.0, name="d3L")
    return bundle


def _wick(kappa, name=None):
    base = _euclidean()
    metric = wick_metric(base.lagrangian, kappa)
    fields = dict(base.fields)
    fields["wick"] = metric.field
    return ExampleBundle(name or f"wick({kappa:g})", base.domain,
                         lagrangian=base.lagrangian, metric=metric,
                         kappa=float(kappa), fields=fields)


def _handmade_nonlinear():
    """A nonlinear connection that is not the derivative of its spray:
    N^1_1 = y^2, every other coefficient zero."""
    domain = ConicDomain(2, None, name="handmadeN")

    def fn(xs, ys):
        out = np.zeros((len(ys), 2, 2))
        out[:, 0, 0] = ys[:, 1]
        return out

    grad = np.zeros((2, 2, 2))
    grad[0, 0, 1] = 1.0
    coeff = TensorField(domain, 1, 1, 1.0, fn,
                        dy=constant_field(domain, grad, 1, 2, name="dv_N"),
                        dx=lambda: zero_field(domain, 1, 2, 1.0),
                        name="handmadeN")
    fields = {"connection": coeff, "liouville": liouville_field(domain)}
    return ExampleBundle("handmadeN", domain,
                         nonlinear=NonlinearConnection(coeff), fields=fields)


def _quadchart():
    """Shear-by-square overlap map xt = (x1 + x2^2, x2) over the euclidean
    plane, with exact Jacobian and Hessian closures."""
    base = _euclidean()
    hess = np.zeros((2, 2, 2))
    hess[0, 1, 1] = 2.0

    def shear(x, sign):
        return np.stack([x[..., 0] + sign * x[..., 1] ** 2, x[..., 1]],
                        axis=-1)

    def shear_jacobian(x, sign):
        J = np.zeros(np.shape(x) + (2,))
        J[..., 0, 0] = J[..., 1, 1] = 1.0
        J[..., 0, 1] = sign * 2.0 * x[..., 1]
        return J

    transition = ChartTransition(
        forward=lambda x: shear(x, 1.0),
        inverse=lambda xt: shear(xt, -1.0),
        jacobian=lambda x: shear_jacobian(x, 1.0),
        hessian=lambda x: np.broadcast_to(hess, np.shape(x)[:-1] + hess.shape),
        jacobian_inverse=lambda x: shear_jacobian(x, -1.0),
        name="quadchart")
    return ExampleBundle("quadchart", base.domain,
                         lagrangian=base.lagrangian,
                         transition=transition, fields=base.fields)


_BUILDERS = {
    "euclidean2": _euclidean,
    "minkowski2": _minkowski,
    "conformal2": _conformal,
    "quartic2": _quartic,
    "handmadeN": _handmade_nonlinear,
    "quadchart": _quadchart,
}

_WICK_RE = re.compile(r"^wick\(([-+0-9.eE]+)\)$")


def example_names():
    """Canonical example names; wick takes a parameter, e.g. wick(-2.0)."""
    return sorted(_BUILDERS) + ["wick(<kappa>)"]


def get_example(name):
    if name in _BUILDERS:
        return _BUILDERS[name]()
    cleaned = name.replace(" ", "")
    m = _WICK_RE.match(cleaned)
    try:
        kappa = float(m.group(1)) if m else np.nan
    except ValueError:  # e.g. wick(1.2.3)
        kappa = np.nan
    if np.isfinite(kappa):  # wick(1e400) would read kappa = inf
        return _wick(kappa, name=cleaned)
    raise DomainError(
        f"unknown example {name!r}; available: {', '.join(example_names())}")
