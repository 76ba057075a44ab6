"""Chart transitions, pushforwards, and cocycle checks.

A ChartTransition carries the overlap map together with analytic closures
for its Jacobian and Hessian, so pushing objects forward never requires
differentiating the chart map numerically.  Tensor fields transform slot
by slot; sprays, nonlinear connections, and anisotropic connections pick
up the inhomogeneous Hessian terms of their cocycles.
"""

from math import factorial

import numpy as np

from .connections import Connection, lower_connection, raise_connection
from .errors import ShapeError
from .fields import (ConicDomain, TensorField, _row_max_abs,
                     liouville_contract, pivot_inverse, vertical_derivative)

_LETTERS = "abcdefghijklmnopqrstuvwxyz"


class ChartTransition:
    """Overlap map x -> xt with analytic first and second derivatives.

    forward, jacobian, hessian are functions of the source chart point x;
    inverse maps a target point back.  jacobian(x)[i, a] = d xt^i / d x^a
    and hessian(x)[i, b, c] = d^2 xt^i / d x^b d x^c.  An analytic inverse
    Jacobian is optional; partial-pivot inversion fills in when absent.

    Every closure takes one point of shape (dim,) or a (B, dim) batch and
    broadcasts over the leading axis, so a batch gives (B, dim),
    (B, dim, dim) and (B, dim, dim, dim) arrays.
    """

    def __init__(self, forward, inverse, jacobian, hessian,
                 jacobian_inverse=None, name="transition"):
        self.forward = forward
        self.inverse = inverse
        self.jacobian = jacobian
        self.hessian = hessian
        self._jacobian_inverse = jacobian_inverse
        self.name = name

    def inverse_jacobian(self, x):
        if self._jacobian_inverse is not None:
            return np.asarray(self._jacobian_inverse(x), dtype=float)
        return pivot_inverse(np.asarray(self.jacobian(x), dtype=float))

    def push_point(self, x, y):
        """Map (x, y) to target-chart coordinates (xt, yt = J(x) y)."""
        x = np.asarray(x, dtype=float)
        J = np.asarray(self.jacobian(x), dtype=float)
        return np.asarray(self.forward(x), dtype=float), _apply(J, y)

    def pull_point(self, xt, yt):
        x = np.asarray(self.inverse(np.asarray(xt, dtype=float)), dtype=float)
        return x, _apply(self.inverse_jacobian(x), yt)


def _apply(mat, v):
    """mat @ v for one matrix and vector or for matching stacks of them."""
    return (mat @ np.asarray(v, dtype=float)[..., None])[..., 0]


def compose(second, first, name=""):
    """The transition doing `first` and then `second`."""

    def forward(x):
        return second.forward(first.forward(x))

    def inverse(xt):
        return first.inverse(second.inverse(xt))

    def jacobian(x):
        mid = first.forward(x)
        return np.einsum("...ia,...ab->...ib", second.jacobian(mid),
                         first.jacobian(x))

    def hessian(x):
        mid = first.forward(x)
        J1 = first.jacobian(x)
        return np.einsum("...ipq,...pb,...qc->...ibc", second.hessian(mid),
                         J1, J1) + \
            np.einsum("...ia,...abc->...ibc", second.jacobian(mid),
                      first.hessian(x))

    def jacobian_inverse(x):
        return np.einsum("...ia,...ab->...ib", first.inverse_jacobian(x),
                         second.inverse_jacobian(first.forward(x)))

    return ChartTransition(forward, inverse, jacobian, hessian,
                           jacobian_inverse,
                           name=name or f"{second.name}*{first.name}")


def _pushed_domain(domain, t):
    def membership(xt, yt):
        x, y = t.pull_point(xt, yt)
        return domain.contains(x, y)

    # Rough image box of the 2^dim corners of the x box, only used for
    # sampling.
    lo, hi = domain.x_box.T
    bits = (np.arange(2 ** domain.dim)[:, None] >> np.arange(domain.dim)) & 1
    pts = np.asarray(t.forward(np.where(bits, hi, lo)), dtype=float)
    box = np.stack([pts.min(axis=0), pts.max(axis=0)], axis=1)
    return ConicDomain(domain.dim, membership, x_box=box,
                       y_shell=domain.y_shell,
                       name=f"{t.name}({domain.name})")


def _pushforward(field, t, name, cocycle=False):
    """`field` pushed forward along `t`: J on every contravariant slot, the
    inverse Jacobian on every covariant slot, arguments pulled back once per
    batch.

    With `cocycle`, `field` holds the coefficients of a connection with s
    covariant slots, which also subtract H^i_bc / (2 - s)!: the first s
    lower slots of the Hessian H go to the inverse Jacobian, the rest to y.
    """
    r, s = field.r, field.s
    total = r + s
    old = _LETTERS[:total]
    new = _LETTERS[total:2 * total]
    factors = []
    for k in range(r):
        factors.append(f"{new[k]}{old[k]}")      # J[new, old]
    for k in range(r, total):
        factors.append(f"{old[k]}{new[k]}")      # Jinv[old, new]
    subscript = (",".join("..." + f for f in [old] + factors)
                 + "->..." + new)
    legs = ["...bj", "...ck"][:s] + ["...b", "...c"][s:]
    inhomogeneous = "...ibc," + ",".join(legs) + "->...i" + "jk"[:s]

    def fn(xts, yts):
        xs = np.asarray(t.inverse(xts), dtype=float)
        J = np.asarray(t.jacobian(xs), dtype=float)
        Ji = t.inverse_jacobian(xs)
        ys = _apply(Ji, yts)
        comp = field(xs, ys)
        if total:
            comp = np.einsum(subscript, comp, *([J] * r + [Ji] * s))
        if cocycle:
            H = np.asarray(t.hessian(xs), dtype=float)
            lower = [Ji] * s + [ys] * (2 - s)
            comp = comp - (np.einsum(inhomogeneous, H, *lower)
                           / factorial(2 - s))
        return comp

    return TensorField(_pushed_domain(field.domain, t), r, s, field.alpha, fn,
                       name=name)


def transform_tensor(field, t):
    """Pushforward of a tensor field: J on every contravariant slot, the
    inverse Jacobian on every covariant slot, arguments pulled back."""
    return _pushforward(field, t, f"{t.name}.{field.name}")


def transform_connection(obj, t):
    """Pushforward with the inhomogeneous cocycle of the object's level."""
    if not isinstance(obj, Connection):
        raise ShapeError(f"no transformation rule for {type(obj).__name__}")
    return type(obj)(_pushforward(obj.coefficients, t, f"{t.name}.{obj.name}",
                                  cocycle=True))


def coherence_defect(obj, t, xs, ys, engine=None):
    """Per-sample gaps between operate-then-transform and
    transform-then-operate.

    Samples are given in the source chart and pushed forward for the
    comparison.  Pushed-forward fields carry no attached derivatives, so
    the transformed side is differentiated by stencil regardless of the
    engine method; the returned dict maps check names to (B,) arrays, the
    largest absolute defect at each sample, NaN where a sample gives NaN.
    """
    out = {}
    xts, yts = t.push_point(xs, ys)

    def gap(left_field, right_field):
        return _row_max_abs(left_field(xts, yts) - right_field(xts, yts))

    if isinstance(obj, TensorField):
        moved = transform_tensor(obj, t)
        out["vertical"] = gap(transform_tensor(vertical_derivative(obj, engine), t),
                              vertical_derivative(moved, engine))
        if obj.s >= 1:
            out["liouville"] = gap(transform_tensor(liouville_contract(obj), t),
                                   liouville_contract(moved))
        return out

    moved = transform_connection(obj, t)
    if obj.s < 2:
        out["raise"] = gap(
            transform_connection(raise_connection(obj, engine), t).coefficients,
            raise_connection(moved, engine).coefficients)
    if obj.s > 0:
        out["lower"] = gap(
            transform_connection(lower_connection(obj), t).coefficients,
            lower_connection(moved).coefficients)
    if obj.s == 2:
        out["vertical"] = gap(
            transform_tensor(vertical_derivative(obj.coefficients, engine), t),
            vertical_derivative(moved.coefficients, engine))
    return out
