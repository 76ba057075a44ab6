"""Sprays, nonlinear connections, and their anisotropic refinements.

The three levels form their own ladder:

    Spray G^i (alpha = 2)  <-dv/iota->  N^i_j (alpha = 1)  <-dv/iota->  Gamma^i_jk (alpha = 0)

raising is vertical differentiation, lowering is a normalized Liouville
contraction, and lowering after raising is the identity.  The canonical
spray of a Lagrangian feeds the Berwald and Chern constructions.
"""

import numpy as np

from .errors import DomainError, LevelError, ShapeError
from .fields import (_require_inside, _require_type, add, liouville_field,
                     reindex, scale, subtract, tensor_product,
                     vertical_derivative, x_derivative)
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

    The coefficients are built once per differentiation method and kept in
    `L`'s store; each call wraps them in a new Spray, so the objects built
    on it share the spray's nodes, its chains and their memos across calls.
    """
    def build():
        metric = fundamental_tensor(L)
        H = x_derivative(metric.field, engine)      # H[c, b, a] = dphi_cb/dx^a
        C = liouville_field(L.domain)
        # t1_c = dphi_cb/dx^a y^a y^b and t3_c = dphi_ab/dx^c y^a y^b
        t1 = tensor_product(tensor_product(H, C, "cba,a->cb", 0, 2), C,
                            "cb,b->c", 0, 1)
        t3 = tensor_product(tensor_product(H, C, "abc,a->bc", 0, 2), C,
                            "bc,b->c", 0, 1)
        rhs = subtract(scale(t1, 2.0), t3)
        return scale(
            tensor_product(metric.inverse_field(), rhs, "ic,c->i", 1, 0),
            0.25, name=f"spray({L.name})")

    return Spray(L.kept("spray", build, engine))


def _canonical_nonlinear(L, engine):
    """N = dv G of the canonical spray, kept by `L` per method."""
    return L.kept("nonlinear", lambda: raise_connection(
        canonical_spray(L, engine), engine).coefficients, engine)


def dv_phi(L, engine=None):
    """dv phi, the vertical derivative of the fundamental tensor, kept by
    `L` per method; the Chern connection and the Cartan tensor share it.
    Under "analytic" it is a structural zero exactly when the energy's
    chains make phi independent of y."""
    return L.kept("dphi", lambda: vertical_derivative(L.phi_field(), engine),
                  engine)


def berwald_connection(L, engine=None):
    """Twice the vertical derivative of the canonical spray.

    The coefficients, and N = dv G beneath them, are built once per
    differentiation method and kept in `L`'s store; each call wraps them in
    a new connection, so renaming one renames no other.
    """
    gamma = L.kept("berwald", lambda: vertical_derivative(
        _canonical_nonlinear(L, engine), engine), engine)
    return AnisotropicConnection(gamma, name=f"berwald({L.name})")


def chern_connection(L, engine=None):
    """Horizontal Christoffel symbols of the fundamental tensor.

    Gamma^i_jk = (1/2) phi^{il} (delta_j phi_lk + delta_k phi_lj
    - delta_l phi_jk) with delta_j = d/dx^j - N^a_j d/dy^a taken along the
    canonical nonlinear connection.

    The coefficients, and N and `dv_phi` beneath them, are built once per
    differentiation method and kept in `L`'s store; each call wraps them in
    a new connection, so renaming one renames no other.
    """
    def build():
        metric = fundamental_tensor(L)
        Hx = x_derivative(metric.field, engine)
        dphi = dv_phi(L, engine)
        slanted = tensor_product(_canonical_nonlinear(L, engine), dphi,
                                 "aj,lka->lkj", 0, 3)
        delta_phi = reindex(subtract(Hx, slanted), "lkj->ljk")  # delta_j phi_lk
        sym = add(delta_phi, reindex(delta_phi, "lkj->ljk"))
        full = subtract(sym, reindex(delta_phi, "jlk->ljk"))
        return scale(tensor_product(metric.inverse_field(), full,
                                    "il,ljk->ijk", 1, 2),
                     0.5, name=f"chern({L.name})")

    return AnisotropicConnection(L.kept("chern", build, engine))


def landsberg_tensor(L, engine=None):
    """Gap between the Chern and Berwald constructions; iota kills it."""
    chern = chern_connection(L, engine)
    berwald = berwald_connection(L, engine)
    return subtract(chern.coefficients, berwald.coefficients,
                    name=f"landsberg({L.name})")


class Trajectory:
    """Integrated geodesic samples.

    `xs` and `ys` are the states as two read-only (n, dim) arrays, the
    initial state first; `points` is a new list of the same rows as
    (x, y) pairs on each access, so `len`, iteration and `points[-1]` read
    one state at a time.  Writing to an array or to a point raises
    ValueError.  `completed` is False if the curve left the domain and
    was truncated.
    """

    def __init__(self, xs, ys, completed):
        self.xs = xs
        self.ys = ys
        self.completed = completed

    @property
    def points(self):
        return list(zip(self.xs, self.ys))

    def __iter__(self):
        return zip(self.xs, self.ys)

    def __len__(self):
        return len(self.xs)


def _frozen(rows):
    """The (n, dim) read-only array of n lists of dim floats."""
    out = np.array(rows)
    out.setflags(write=False)
    return out


# Points per guard call of a guarded constant spray: a multiple of the four
# points a step adds, so every block but the last holds exactly this many.
_BLOCK = 256


def geodesic_integrate(spray, x0, y0, dt, steps):
    """Classical fourth-order Runge-Kutta on x' = y, y' = -2 G(x, y).

    Returns a Trajectory of the states, the initial one included.  If a
    stage or a step lands outside the spray's domain the curve is truncated
    there and flagged.

    The state is stepped on lists of Python floats, with the IEEE double
    operations of the array form in the same order, so every point has the
    bits numpy arithmetic on (dim,) arrays would give.  Every step and the
    three later stages of each step are checked on that float state by
    `domain.admits`; the first stage of a step is the point the previous
    step accepted, or the initial state, and is not checked again.

    A spray whose coefficients are a constant, guarded or not, is stepped
    by one loop that takes its -2 G once (`_constant_rk4`).  An unguarded
    constant is never called.  A guarded one is called once per block of
    `_BLOCK` points where any other spray would be called: each step's
    start and each admitted stage.  Its value is not needed, only that its
    guards hold there.  If a block raises anything, the curve is stepped
    again by the one-point loop, so an error names the same sample and a
    `DomainError` truncates at the same state as for any other spray.

    Any other spray is called at every stage (`_rk4`).  Such a stage
    builds (dim,) arrays once, for the spray call and a membership
    predicate both; the constant loop builds them only for a predicate.
    The trajectory's arrays are built once, at the end.  A state of any
    other shape than (dim,) raises ShapeError.

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
    x, y, dt, steps = x.tolist(), y.tolist(), float(dt), int(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        run = None if G.const is None else _constant_rk4(G, x, y, dt, steps)
        if run is None:
            run = _rk4(G, x, y, dt, steps)
    xs, ys, completed = run
    return Trajectory(_frozen(xs), _frozen(ys), completed)


def _rk4(G, x, y, dt, steps):
    """The one-point loop: RK4 from the float state (x, y), calling G at
    the start and at each admitted stage of every step.  Returns the
    states as lists of floats and whether the curve completed."""
    domain = G.domain
    half, sixth = 0.5 * dt, dt / 6.0

    def accel(state):
        return [-2.0 * g for g in G(*state).tolist()]

    def rhs(xc, yc):
        # a spray call needs the state as arrays, and `admits` shares them
        state = (np.array(xc), np.array(yc))
        if not domain.admits(xc, yc, state):
            raise DomainError("stage point left the admissible cone")
        return yc, accel(state)

    def stage(a, h, b):
        return [ai + h * bi for ai, bi in zip(a, b)]

    def combine(a, k1, k2, k3, k4):
        return [ai + sixth * (((p + 2.0 * q) + 2.0 * r) + s)
                for ai, p, q, r, s in zip(a, k1, k2, k3, k4)]

    xs, ys = [x], [y]
    here = (np.array(x), np.array(y))
    for _ in range(steps):
        try:
            # the first stage is the point accepted last, checked then
            k1x, k1y = y, accel(here)
            k2x, k2y = rhs(stage(x, half, k1x), stage(y, half, k1y))
            k3x, k3y = rhs(stage(x, half, k2x), stage(y, half, k2y))
            k4x, k4y = rhs(stage(x, dt, k3x), stage(y, dt, k3y))
        except DomainError:
            return xs, ys, False
        x = combine(x, k1x, k2x, k3x, k4x)
        y = combine(y, k1y, k2y, k3y, k4y)
        here = (np.array(x), np.array(y))
        if not domain.admits(x, y, here):
            return xs, ys, False
        xs.append(x)
        ys.append(y)
    return xs, ys, True


def _constant_rk4(G, x, y, dt, steps):
    """RK4 for coefficients G folded to a constant, as `_rk4` steps them.

    With a = -2 G the same at every stage, k1y = k2y = k3y = k4y = a: the
    third stage's y is the second's, k3x = k2x, and the products half * a
    and dt * a and the step's change of y, sixth * (((a + 2a) + 2a) + a),
    are taken once.  Every other float operation is `_rk4`'s, in its
    order, so every point keeps its bits.  A guarded G is called once per
    `_BLOCK` of the points `_rk4` would call it at, and once on the rest
    when the loop ends.  Returns what `_rk4` returns, or None when a call
    raised."""
    admits = G.domain.admits
    half, sixth = 0.5 * dt, dt / 6.0
    a = (-2.0 * G.const).tolist()
    half_a = [half * ai for ai in a]
    dt_a = [dt * ai for ai in a]
    step_y = [sixth * (((ai + 2.0 * ai) + 2.0 * ai) + ai) for ai in a]
    guarded = bool(G.guards)
    px, py = [], []     # points G is not called at yet
    xs, ys = [x], [y]
    completed = True
    for _ in range(steps):
        x2 = [xi + half * yi for xi, yi in zip(x, y)]
        y2 = [yi + h for yi, h in zip(y, half_a)]
        x3 = [xi + half * vi for xi, vi in zip(x, y2)]
        x4 = [xi + dt * vi for xi, vi in zip(x, y2)]
        y4 = [yi + h for yi, h in zip(y, dt_a)]
        # how many of the step's four calls `_rk4` would make
        calls = (1 if not admits(x2, y2) else 2 if not admits(x3, y2)
                 else 3 if not admits(x4, y4) else 4)
        if guarded:
            px += (x, x2, x3, x4)[:calls]
            py += (y, y2, y2, y4)[:calls]
            if len(px) >= _BLOCK:
                if not _guards_hold(G, px, py):
                    return None
                px, py = [], []
        if calls < 4:
            completed = False
            break
        x = [xi + sixth * (((p + 2.0 * q) + 2.0 * q) + s)
             for xi, p, q, s in zip(x, y, y2, y4)]
        y = [yi + h for yi, h in zip(y, step_y)]
        if not admits(x, y):
            completed = False
            break
        xs.append(x)
        ys.append(y)
    if px and not _guards_hold(G, px, py):
        return None
    return xs, ys, completed


def _guards_hold(G, xs, ys):
    """Whether G evaluates at the points (xs[i], ys[i]) without raising:
    one call on their (n, dim) batch.  Any error counts, as the caller
    then steps the curve again by the one-point loop, which raises it, or
    truncates on it, at its own sample."""
    try:
        G(np.array(xs), np.array(ys))
    except Exception:
        return False
    return True
