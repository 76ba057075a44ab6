"""Built-in worked examples.

Each bundle packages a conic domain with the objects the example is about:
an energy with its full analytic vertical chain, a bare nonlinear
connection, or a chart transition.  Chains are written out by hand so the
"analytic" differentiation path is exact end to end; the conformal example
deliberately omits x-derivative closures so that building its spray
exercises the stencil in x.
"""

import re

import numpy as np

from .atlas import ChartTransition
from .connections import NonlinearConnection
from .errors import DomainError
from .fields import (ConicDomain, TensorField, _identity, _row_dot,
                     constant_field, liouville_field, zero_field)
from .metrics import Lagrangian, wick_metric


class ExampleBundle:
    """A named domain plus whatever objects the example provides."""

    def __init__(self, name, domain, lagrangian=None, metric=None,
                 nonlinear=None, transition=None, kappa=None, fields=None,
                 spray_oracle=None, riemannian=False):
        self.name = name
        self.domain = domain
        self.lagrangian = lagrangian
        self.metric = metric
        self.nonlinear = nonlinear
        self.transition = transition
        self.kappa = kappa
        self.fields = fields or {}
        self.spray_oracle = spray_oracle  # closed form, None means zero
        self.riemannian = riemannian  # quadratic in y, so Landsberg-free


def _quadratic_bundle(name, diag, membership=None, excluded=()):
    """Energy y^T D y for a constant diagonal D, with exact chains."""
    domain = ConicDomain(2, membership, excluded=excluded, name=name)
    D = np.asarray(diag, dtype=float)

    ddell = constant_field(domain, 2.0 * np.diag(D), 0, 2, name="dv_ell")
    ell = TensorField(domain, 0, 1, 1.0, lambda xs, ys: 2.0 * D * ys,
                      dy=ddell, dx=lambda: zero_field(domain, 0, 2, 1.0),
                      name="ell")
    L = TensorField(domain, 0, 0, 2.0,
                    lambda xs, ys: (ys * ys) @ D,
                    dy=ell, dx=lambda: zero_field(domain, 0, 1, 2.0),
                    name=name)
    lagr = Lagrangian(L, name=name)
    fields = {"energy": L, "gradient": ell, "fundamental": lagr.phi_field(),
              "liouville": liouville_field(domain)}
    return ExampleBundle(name, domain, lagrangian=lagr, fields=fields,
                         riemannian=True)


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

    def factor(xs):
        return np.exp(2.0 * xs[:, 0])

    ddell = TensorField(domain, 0, 2, 0.0,
                        lambda xs, ys: (2.0 * factor(xs))[:, None, None]
                        * _identity(2),
                        dy=lambda: zero_field(domain, 0, 3, -1.0),
                        name="dv_ell")
    ell = TensorField(domain, 0, 1, 1.0,
                      lambda xs, ys: (2.0 * factor(xs))[:, None] * ys,
                      dy=ddell, name="ell")
    L = TensorField(domain, 0, 0, 2.0,
                    lambda xs, ys: factor(xs) * _row_dot(ys, ys),
                    dy=ell, name="conformal2")
    lagr = Lagrangian(L, name="conformal2")
    fields = {"energy": L, "gradient": ell, "fundamental": lagr.phi_field(),
              "liouville": liouville_field(domain)}

    def spray_oracle(xs, ys):
        # The conformal factor cancels: G does not depend on x at all.
        y1, y2 = ys[..., 0], ys[..., 1]
        return np.stack([0.5 * (y1 ** 2 - y2 ** 2), y1 * y2], axis=-1)

    return ExampleBundle("conformal2", domain, lagrangian=lagr, fields=fields,
                         spray_oracle=spray_oracle, riemannian=True)


def _quartic():
    """L = sqrt(y1^4 + y2^4), smooth and nondegenerate away from the axes."""
    domain = ConicDomain(
        2, lambda x, y: y[0] * y[1] != 0.0,
        excluded=(lambda x, y: min(abs(y[0]), abs(y[1])) < 0.2 * max(abs(y[0]), abs(y[1])),),
        name="quartic2")

    def d3fn(xs, ys):
        # component [a, b, c] along the last three axes; d.. are deltas
        Q = (ys[:, 0] ** 4 + ys[:, 1] ** 4)[:, None, None, None]
        s1, s3, s5 = Q ** -0.5, Q ** -1.5, Q ** -2.5
        ya, yb, yc = (ys[:, :, None, None], ys[:, None, :, None],
                      ys[:, None, None, :])
        eye = _identity(2)
        dab, dac, dbc = eye[:, :, None], eye[:, None, :], eye
        return (12.0 * ya * dab * dac * s1
                - 12.0 * (ya ** 2 * dab * yc ** 3 + ya ** 2 * yb ** 3 * dac
                          + ya ** 3 * yb ** 2 * dbc) * s3
                + 24.0 * ya ** 3 * yb ** 3 * yc ** 3 * s5)

    d3 = TensorField(domain, 0, 3, -1.0, d3fn,
                     dx=lambda: zero_field(domain, 0, 4, -1.0), name="d3L")

    def ddellfn(xs, ys):
        Q = (ys[:, 0] ** 4 + ys[:, 1] ** 4)[:, None, None]
        diag = _identity(2) * (ys ** 2)[:, None, :]
        outer = (ys ** 3)[:, :, None] * (ys ** 3)[:, None, :]
        return 6.0 * diag * Q ** -0.5 - 4.0 * outer * Q ** -1.5

    ddell = TensorField(domain, 0, 2, 0.0, ddellfn, dy=d3,
                        dx=lambda: zero_field(domain, 0, 3, 0.0),
                        name="dv_ell")
    ell = TensorField(domain, 0, 1, 1.0,
                      lambda xs, ys: 2.0 * ys ** 3
                      / np.sqrt(ys[:, :1] ** 4 + ys[:, 1:] ** 4),
                      dy=ddell, dx=lambda: zero_field(domain, 0, 2, 1.0),
                      name="ell")
    L = TensorField(domain, 0, 0, 2.0,
                    lambda xs, ys: np.sqrt(ys[:, 0] ** 4 + ys[:, 1] ** 4),
                    dy=ell, dx=lambda: zero_field(domain, 0, 1, 2.0),
                    name="quartic2")
    lagr = Lagrangian(L, name="quartic2")
    fields = {"energy": L, "gradient": ell, "fundamental": lagr.phi_field(),
              "third": d3, "liouville": liouville_field(domain)}
    return ExampleBundle("quartic2", domain, lagrangian=lagr, fields=fields)


def _wick(kappa, name=None):
    base = _euclidean()
    metric = wick_metric(base.lagrangian, kappa)
    fields = dict(base.fields)
    fields["wick"] = metric.field
    return ExampleBundle(name or f"wick({kappa:g})", base.domain,
                         lagrangian=base.lagrangian, metric=metric,
                         kappa=float(kappa), fields=fields, riemannian=True)


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
                         transition=transition, fields=base.fields,
                         riemannian=True)


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
    if m:
        return _wick(float(m.group(1)), name=cleaned)
    raise DomainError(
        f"unknown example {name!r}; available: {', '.join(example_names())}")
