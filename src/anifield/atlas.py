"""Chart transitions, pushforwards, and cocycle checks.

A ChartTransition carries the overlap map together with analytic closures
for its Jacobian and Hessian, so pushing objects forward never requires
differentiating the chart map numerically.  Tensor fields transform slot
by slot; sprays, nonlinear connections, and anisotropic connections pick
up the inhomogeneous Hessian terms of their cocycles.
"""

import numpy as np

from .connections import (AnisotropicConnection, NonlinearConnection, Spray,
                          lower_connection, raise_connection)
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
        y = np.asarray(y, dtype=float)
        return (np.asarray(self.forward(x), dtype=float),
                np.asarray(self.jacobian(x), dtype=float) @ y)

    def pull_point(self, xt, yt):
        x = np.asarray(self.inverse(np.asarray(xt, dtype=float)), dtype=float)
        return x, self.inverse_jacobian(x) @ np.asarray(yt, dtype=float)


def compose(second, first, name=""):
    """The transition doing `first` and then `second`."""

    def forward(x):
        return second.forward(first.forward(x))

    def inverse(xt):
        return first.inverse(second.inverse(xt))

    def jacobian(x):
        mid = np.asarray(first.forward(x), dtype=float)
        return np.asarray(second.jacobian(mid), dtype=float) @ \
            np.asarray(first.jacobian(x), dtype=float)

    def hessian(x):
        mid = np.asarray(first.forward(x), dtype=float)
        J1 = np.asarray(first.jacobian(x), dtype=float)
        H1 = np.asarray(first.hessian(x), dtype=float)
        J2 = np.asarray(second.jacobian(mid), dtype=float)
        H2 = np.asarray(second.hessian(mid), dtype=float)
        return np.einsum("ipq,pb,qc->ibc", H2, J1, J1) + \
            np.einsum("ia,abc->ibc", J2, H1)

    def jacobian_inverse(x):
        mid = np.asarray(first.forward(x), dtype=float)
        return first.inverse_jacobian(x) @ second.inverse_jacobian(mid)

    return ChartTransition(forward, inverse, jacobian, hessian,
                           jacobian_inverse,
                           name=name or f"{second.name}*{first.name}")


def _rows(fn, xs):
    """Stack a pointwise chart closure over the rows of a batch."""
    return np.array([np.asarray(fn(x), dtype=float) for x in xs])


def _pull_rows(t, xts, yts):
    """Pull a (B, dim) batch of target-chart samples back, row by row."""
    pulled = [t.pull_point(xt, yt) for xt, yt in zip(xts, yts)]
    return (np.array([x for x, _ in pulled]),
            np.array([y for _, y in pulled]))


def _push_rows(t, xs, ys):
    """Push a (B, dim) batch of source-chart samples forward, row by row."""
    pushed = [t.push_point(x, y) for x, y in zip(xs, ys)]
    return (np.array([x for x, _ in pushed]),
            np.array([y for _, y in pushed]))


def _pushed_domain(domain, t):
    def membership(xt, yt):
        x, y = t.pull_point(xt, yt)
        return domain.contains(x, y)

    corners = domain.x_box.T  # rough image box, only used for sampling
    lo, hi = corners[0], corners[1]
    pts = []
    for mask in range(2 ** domain.dim):
        c = np.where([(mask >> k) & 1 for k in range(domain.dim)], hi, lo)
        pts.append(np.asarray(t.forward(c), dtype=float))
    pts = np.stack(pts)
    box = np.stack([pts.min(axis=0), pts.max(axis=0)], axis=1)
    return ConicDomain(domain.dim, membership, x_box=box,
                       y_shell=domain.y_shell,
                       name=f"{t.name}({domain.name})")


def transform_tensor(field, t):
    """Pushforward of a tensor field: J on every contravariant slot, the
    inverse Jacobian on every covariant slot, arguments pulled back."""
    r, s = field.r, field.s
    total = r + s
    domain = _pushed_domain(field.domain, t)

    old = _LETTERS[:total]
    new = _LETTERS[total:2 * total]
    factors = []
    for k in range(r):
        factors.append(f"{new[k]}{old[k]}")      # J[new, old]
    for k in range(r, total):
        factors.append(f"{old[k]}{new[k]}")      # Jinv[old, new]
    subscript = (",".join("..." + f for f in [old] + factors)
                 + "->..." + new)

    def fn(xts, yts):
        xs, ys = _pull_rows(t, xts, yts)
        comp = field(xs, ys)
        if total == 0:
            return comp
        J = _rows(t.jacobian, xs)
        Ji = _rows(t.inverse_jacobian, xs)
        mats = [J] * r + [Ji] * s
        return np.einsum(subscript, comp, *mats)

    return TensorField(domain, r, s, field.alpha, fn,
                       name=f"{t.name}.{field.name}")


def transform_connection(obj, t):
    """Pushforward with the inhomogeneous cocycle of the object's level."""
    if isinstance(obj, Spray):
        field = obj.coefficients
        domain = _pushed_domain(field.domain, t)

        def fn_spray(xts, yts):
            xs, ys = _pull_rows(t, xts, yts)
            H = _rows(t.hessian, xs)
            J = _rows(t.jacobian, xs)
            return (-0.5 * np.einsum("...ibc,...b,...c->...i", H, ys, ys)
                    + (J @ field(xs, ys)[:, :, None])[:, :, 0])

        return Spray(TensorField(domain, 1, 0, 2.0, fn_spray,
                                 name=f"{t.name}.{obj.name}"))

    if isinstance(obj, NonlinearConnection):
        field = obj.coefficients
        domain = _pushed_domain(field.domain, t)

        def fn_nonlin(xts, yts):
            xs, ys = _pull_rows(t, xts, yts)
            H = _rows(t.hessian, xs)
            J = _rows(t.jacobian, xs)
            Ji = _rows(t.inverse_jacobian, xs)
            return -np.einsum("...ibc,...bj,...c->...ij", H, Ji, ys) + \
                np.einsum("...ia,...bj,...ab->...ij", J, Ji, field(xs, ys))

        return NonlinearConnection(TensorField(domain, 1, 1, 1.0, fn_nonlin,
                                               name=f"{t.name}.{obj.name}"))

    if isinstance(obj, AnisotropicConnection):
        field = obj.coefficients
        domain = _pushed_domain(field.domain, t)

        def fn_aniso(xts, yts):
            xs, ys = _pull_rows(t, xts, yts)
            H = _rows(t.hessian, xs)
            J = _rows(t.jacobian, xs)
            Ji = _rows(t.inverse_jacobian, xs)
            return -np.einsum("...ibc,...bj,...ck->...ijk", H, Ji, Ji) + \
                np.einsum("...ia,...bj,...ck,...abc->...ijk", J, Ji, Ji,
                          field(xs, ys))

        return AnisotropicConnection(TensorField(domain, 1, 2, 0.0, fn_aniso,
                                                 name=f"{t.name}.{obj.name}"))

    raise ShapeError(f"no transformation rule for {type(obj).__name__}")


def coherence_defect(obj, t, xs, ys, engine=None):
    """Max gaps between operate-then-transform and transform-then-operate.

    Samples are given in the source chart and pushed forward for the
    comparison.  Pushed-forward fields carry no attached derivatives, so
    the transformed side is differentiated by stencil regardless of the
    engine method; the returned dict maps check names to worst absolute
    defects over the samples, NaN when any sample gives NaN.
    """
    out = {}
    xts, yts = _push_rows(t, np.asarray(xs, dtype=float),
                          np.asarray(ys, dtype=float))

    def gap(left_field, right_field):
        return float(np.max(
            _row_max_abs(left_field(xts, yts) - right_field(xts, yts)),
            initial=0.0))

    if isinstance(obj, TensorField):
        moved = transform_tensor(obj, t)
        out["vertical"] = gap(transform_tensor(vertical_derivative(obj, engine), t),
                              vertical_derivative(moved, engine))
        if obj.s >= 1:
            out["liouville"] = gap(transform_tensor(liouville_contract(obj), t),
                                   liouville_contract(moved))
        return out

    moved = transform_connection(obj, t)
    if isinstance(obj, (Spray, NonlinearConnection)):
        out["raise"] = gap(
            transform_connection(raise_connection(obj, engine), t).coefficients,
            raise_connection(moved, engine).coefficients)
    if isinstance(obj, (NonlinearConnection, AnisotropicConnection)):
        out["lower"] = gap(
            transform_connection(lower_connection(obj), t).coefficients,
            lower_connection(moved).coefficients)
    if isinstance(obj, AnisotropicConnection):
        out["vertical"] = gap(
            transform_tensor(vertical_derivative(obj.coefficients, engine), t),
            vertical_derivative(moved.coefficients, engine))
    return out
