"""Sprays, nonlinear connections, and their anisotropic refinements.

The three levels form their own ladder:

    Spray G^i (alpha = 2)  <-dv/iota->  N^i_j (alpha = 1)  <-dv/iota->  Gamma^i_jk (alpha = 0)

raising is vertical differentiation, lowering is a normalized Liouville
contraction, and lowering after raising is the identity.  The canonical
spray of a Lagrangian feeds the Berwald and Chern constructions.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, LevelError, ShapeError
from .fields import (DEFAULT_ENGINE, _require_inside, _require_type, add,
                     liouville_field, reindex, scale, subtract,
                     tensor_product, vertical_derivative, x_derivative)
from .ladder import lower, project_kernel
from .metrics import fundamental_tensor


class Connection:
    """One rung of the connection ladder, indexed by the covariant rank s of
    its coefficients, a type-(1, s) field of homogeneity 2 - s.  Each rung
    declares its s and the noun its errors use."""

    def __init__(self, coefficients, name=""):
        _require_type(coefficients, 1, self.s, 2 - self.s, self.noun)
        self.coefficients = coefficients
        self.name = name or coefficients.name

    def __call__(self, x, y):
        return self.coefficients(x, y)


class Spray(Connection):
    """Second-order vector field data: coefficients G^i(x, y), 2-homogeneous."""

    s, noun = 0, "a spray"


class NonlinearConnection(Connection):
    """Horizontal-splitting data: coefficients N^i_j(x, y), 1-homogeneous."""

    s, noun = 1, "a nonlinear connection"


class AnisotropicConnection(Connection):
    """Christoffel-type coefficients Gamma^i_jk(x, y), 0-homogeneous."""

    s, noun = 2, "an anisotropic connection"


_LADDER = (Spray, NonlinearConnection, AnisotropicConnection)   # by s


def raise_connection(obj, engine=None):
    """One rung up: spray -> nonlinear, nonlinear -> anisotropic."""
    if not isinstance(obj, Connection) or obj.s + 1 == len(_LADDER):
        raise LevelError("nothing sits above an anisotropic connection")
    return _LADDER[obj.s + 1](vertical_derivative(obj.coefficients, engine),
                              name=f"dv({obj.name})")


def lower_connection(obj):
    """One rung down: anisotropic -> nonlinear, nonlinear -> spray, by
    `lower` at the lower rung's homogeneity 3 - s."""
    if not isinstance(obj, Connection) or obj.s == 0:
        raise LevelError("nothing sits below a spray")
    return _LADDER[obj.s - 1](lower(obj.coefficients, 3 - obj.s),
                              name=f"iota({obj.name})")


def nonlinear_residue(N, engine=None):
    """Failure of N to come from its own spray: Delta = N - dv((1/2) iota N).

    Equals half the torsion hooked with y, and is killed by iota.
    """
    return project_kernel(N.coefficients, engine=engine,
                          name=f"residue({N.name})")


def torsion(N, engine=None):
    """Antisymmetrized vertical derivative Tor^i_jk = dN^i_j/dy^k - dN^i_k/dy^j."""
    dN = vertical_derivative(N.coefficients, engine)
    return subtract(dN, reindex(dN, "ijk->ikj"), name=f"torsion({N.name})")


def canonical_spray(L, engine=None):
    """Geodesic spray of a Lagrangian.

    G^i = (1/4) phi^{ic} (2 dphi_cb/dx^a - dphi_ab/dx^c) y^a y^b using the
    symmetry of phi; reduces to the Christoffel quadratic form in the
    Riemannian case.  Degenerate phi raises at evaluation, naming the sample.

    The coefficients are built once per differentiation method and kept on
    `L`; each call wraps them in a new Spray, so the objects built on it
    share the spray's nodes, its chains and their memos across calls.
    """
    method = (engine or DEFAULT_ENGINE).method
    G = L._sprays.get(method)
    if G is not None:
        return Spray(G)
    metric = fundamental_tensor(L)
    H = x_derivative(metric.field, engine)          # H[c, b, a] = dphi_cb/dx^a
    C = liouville_field(L.domain)
    # t1_c = dphi_cb/dx^a y^a y^b and t3_c = dphi_ab/dx^c y^a y^b
    t1 = tensor_product(tensor_product(H, C, "cba,a->cb", 0, 2), C,
                        "cb,b->c", 0, 1)
    t3 = tensor_product(tensor_product(H, C, "abc,a->bc", 0, 2), C,
                        "bc,b->c", 0, 1)
    rhs = subtract(scale(t1, 2.0), t3)
    G = L._sprays[method] = scale(
        tensor_product(metric.inverse_field(), rhs, "ic,c->i", 1, 0), 0.25,
        name=f"spray({L.name})")
    return Spray(G)


def berwald_connection(L, engine=None):
    """Twice the vertical derivative of the canonical spray."""
    N = raise_connection(canonical_spray(L, engine), engine)
    gamma = raise_connection(N, engine)
    gamma.name = f"berwald({L.name})"
    return gamma


def chern_connection(L, engine=None):
    """Horizontal Christoffel symbols of the fundamental tensor.

    Gamma^i_jk = (1/2) phi^{il} (delta_j phi_lk + delta_k phi_lj
    - delta_l phi_jk) with delta_j = d/dx^j - N^a_j d/dy^a taken along the
    canonical nonlinear connection.
    """
    metric = fundamental_tensor(L)
    N = raise_connection(canonical_spray(L, engine), engine)
    Hx = x_derivative(metric.field, engine)
    dphi = vertical_derivative(metric.field, engine)
    slanted = tensor_product(N.coefficients, dphi, "aj,lka->lkj", 0, 3)
    delta_phi = reindex(subtract(Hx, slanted), "lkj->ljk")   # delta_j phi_lk
    sym = add(delta_phi, reindex(delta_phi, "lkj->ljk"))
    full = subtract(sym, reindex(delta_phi, "jlk->ljk"))
    gamma = scale(tensor_product(metric.inverse_field(), full,
                                 "il,ljk->ijk", 1, 2),
                  0.5, name=f"chern({L.name})")
    return AnisotropicConnection(gamma)


def landsberg_tensor(L, engine=None):
    """Gap between the Chern and Berwald constructions; iota kills it."""
    chern = chern_connection(L, engine)
    berwald = berwald_connection(L, engine)
    return subtract(chern.coefficients, berwald.coefficients,
                    name=f"landsberg({L.name})")


@dataclass
class Trajectory:
    """Integrated geodesic samples; `completed` is False if the curve left
    the domain and was truncated."""

    points: list
    completed: bool

    def __iter__(self):
        return iter(self.points)

    def __len__(self):
        return len(self.points)


def geodesic_integrate(spray, x0, y0, dt, steps):
    """Classical fourth-order Runge-Kutta on x' = y, y' = -2 G(x, y).

    Returns a Trajectory of (x, y) pairs including the initial state.  If a
    stage or a step lands outside the spray's domain the curve is truncated
    there and flagged.

    The state is stepped on lists of Python floats, with the IEEE double
    operations of the array form in the same order, so every point has the
    bits numpy arithmetic on (dim,) arrays would give.  A spray whose
    coefficients are an unguarded constant is never called: its -2 G is
    taken once.  Any other spray, a guarded constant included, is called
    at every stage, so a guard still raises and names its sample.  Every
    step and the three later stages of each step are checked with
    `domain.contains`; the first stage of a step is the point the previous
    step accepted, or the initial state, and is not checked again.  A
    state of any other shape than (dim,) raises ShapeError.

    numpy does not warn while the curve is stepped: far out a spray's
    arithmetic may overflow, and the typed error that follows names the
    sample.
    """
    G = spray.coefficients
    domain = G.domain
    x = np.asarray(x0, dtype=float)
    y = np.asarray(y0, dtype=float)
    _require_inside(domain, x, y)
    if x.ndim != 1:
        raise ShapeError(f"geodesic_integrate takes one state of shape "
                         f"({domain.dim},), got {x.shape}")
    point = (x.copy(), y.copy())
    points = [point]
    x, y, dt = x.tolist(), y.tolist(), float(dt)
    half, sixth = 0.5 * dt, dt / 6.0
    fixed = (-2.0 * G.const).tolist() if (
        G.const is not None and not G.guards) else None

    def accel(xa, ya):
        if fixed is not None:
            return fixed
        return [-2.0 * g for g in G(xa, ya).tolist()]

    def rhs(xc, yc):
        xa, ya = np.array(xc), np.array(yc)
        if not domain.contains(xa, ya):
            raise DomainError("stage point left the admissible cone")
        return yc, accel(xa, ya)

    def stage(a, h, b):
        return [ai + h * bi for ai, bi in zip(a, b)]

    def combine(a, k1, k2, k3, k4):
        return [ai + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                for ai, p, q, r, s in zip(a, k1, k2, k3, k4)]

    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(int(steps)):
            try:
                # the first stage is the point accepted last, checked then
                k1x, k1y = y, accel(*point)
                k2x, k2y = rhs(stage(x, half, k1x), stage(y, half, k1y))
                k3x, k3y = rhs(stage(x, half, k2x), stage(y, half, k2y))
                k4x, k4y = rhs(stage(x, dt, k3x), stage(y, dt, k3y))
            except DomainError:
                return Trajectory(points, completed=False)
            x = combine(x, k1x, k2x, k3x, k4x)
            y = combine(y, k1y, k2y, k3y, k4y)
            point = (np.array(x), np.array(y))
            if not domain.contains(*point):
                return Trajectory(points, completed=False)
            points.append(point)
    return Trajectory(points, completed=True)
