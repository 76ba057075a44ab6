"""Sprays, nonlinear connections, and their anisotropic refinements.

The three levels form their own ladder:

    Spray G^i (alpha = 2)  <-dv/iota->  N^i_j (alpha = 1)  <-dv/iota->  Gamma^i_jk (alpha = 0)

raising is vertical differentiation, lowering is a normalized Liouville
contraction, and lowering after raising is the identity.  The canonical
spray of a Lagrangian feeds the Berwald and Chern constructions.
"""

import numpy as np

from .errors import DomainError, LevelError, ShapeError
from .fields import (_require_inside, _require_type, _run, add,
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


# Points per guard run of a guarded constant spray, and four times the
# steps a constant spray takes per block: every block but the last holds
# exactly this many of the points where `_rk4` takes -2 G.
_BLOCK = 256


def geodesic_integrate(spray, x0, y0, dt, steps):
    """Classical fourth-order Runge-Kutta on x' = y, y' = -2 G(x, y).

    Returns a Trajectory of the states, the initial one included.  If a
    stage or a step lands outside the spray's domain the curve is truncated
    there and flagged.

    Every point has the bits numpy arithmetic on (dim,) arrays would give:
    each loop makes the IEEE double operations of that array form, in its
    order.  Every step and the three later stages of each step are checked
    by the domain's admissibility rule; the first stage of a step is the
    point the previous step accepted, or the initial state, and is not
    checked again.

    A spray whose coefficients are a constant, guarded or not, takes its
    -2 G once and is stepped `_BLOCK // 4` steps at a time on arrays
    (`_constant_rk4`).  It is never called; a guarded one's guards run
    once per block.  If a block raises anything, the curve is stepped
    again by the one-point loop, so an error names the same sample and a
    `DomainError` truncates at the same state as for any other spray.

    Any other spray is stepped on lists of Python floats (`_rk4`) and
    called at every stage whose point differs from the last one it was
    called at.  A stage builds (dim,) arrays once, for the spray call and
    a membership predicate both.  The trajectory's arrays are built once,
    at the end.  A state of any other shape than (dim,) raises ShapeError.

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
    dt, steps = float(dt), int(steps)
    with np.errstate(over="ignore", invalid="ignore"):
        run = None if G.const is None else _constant_rk4(G, x, y, dt, steps)
        if run is None:
            run = _rk4(G, x.tolist(), y.tolist(), dt, steps)
    xs, ys, completed = run
    xs.setflags(write=False)
    ys.setflags(write=False)
    return Trajectory(xs, ys, completed)


def _rk4(G, x, y, dt, steps):
    """The one-point loop: RK4 from the float state (x, y), taking -2 G
    at the start and at each admitted stage of every step.  G is called
    only where the point's bytes differ from those of the point it was
    called at last; so -0.0 and 0.0 stay two points.  Returns the states
    as two (n, dim) arrays and whether the curve completed."""
    domain = G.domain
    half, sixth = 0.5 * dt, dt / 6.0

    # the bytes of the point G was last called at, and its -2 G
    last = [None, None]

    def accel(state):
        point = state[0].tobytes() + state[1].tobytes()
        if point != last[0]:
            last[:] = point, [-2.0 * g for g in G(*state).tolist()]
        return last[1]

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
            break
        x = combine(x, k1x, k2x, k3x, k4x)
        y = combine(y, k1y, k2y, k3y, k4y)
        here = (np.array(x), np.array(y))
        if not domain.admits(x, y, here):
            break
        xs.append(x)
        ys.append(y)
    return np.array(xs), np.array(ys), len(xs) > steps


def _constant_rk4(G, x, y, dt, steps):
    """RK4 for coefficients G folded to a constant, with `_rk4`'s bits,
    from the (dim,) state (x, y) and `_BLOCK // 4` steps at a time.

    With a = -2 G the same at every stage, k1y = k2y = k3y = k4y = a: the
    third stage's y is the second's, k3x = k2x, and the products half * a
    and dt * a and the step's change of y, sixth * (((a + 2a) + 2a) + a),
    are taken once.  A block's states y are the running sum of its first
    y and that change, step after step, the additions `_rk4` makes (see
    `_running_sum`).  Each stage's y, each step's change of x and each
    stage's x follow elementwise, with `_rk4`'s operations in its order,
    and the states x are the running sum of those changes, so every point
    keeps `_rk4`'s bits.

    The 4 * k points the loop checks in a block of k steps (x2, x3, x4
    and the step's end, step by step) go to `domain.first_refused` in
    that order; the first refused point truncates the curve where `_rk4`
    would.  A guarded G's guards run once per block (`_guards_hold`), on
    the points where `_rk4` takes -2 G: the start of each step and each
    admitted stage, up to the truncation.  Returns what `_rk4` returns,
    the states as the concatenated blocks, or None when a guard raised."""
    first_refused = G.domain.first_refused
    dim = len(x)
    half, sixth = 0.5 * dt, dt / 6.0
    a = -2.0 * G.const
    half_a, dt_a = half * a, dt * a
    step_y = sixth * (((a + 2.0 * a) + 2.0 * a) + a)

    def by_step(*points):
        """The (4 k, dim) rows of four (k, dim) arrays, step by step."""
        return np.stack(points, axis=1).reshape(-1, dim)

    xs, ys = [x[None]], [y[None]]
    for start in range(0, steps, _BLOCK // 4):
        k = min(_BLOCK // 4, steps - start)
        Y = _running_sum(y, np.broadcast_to(step_y, (k, dim)))
        y1, y2, y4 = Y[:-1], Y[:-1] + half_a, Y[:-1] + dt_a
        X = _running_sum(x, sixth * (((y1 + 2.0 * y2) + 2.0 * y2) + y4))
        x1 = X[:-1]
        x2, x3, x4 = x1 + half * y1, x1 + half * y2, x1 + dt * y2
        refused = first_refused(by_step(x2, x3, x4, X[1:]),
                                by_step(y2, y2, y4, Y[1:]))
        # `_rk4` takes -2 G at a step's start and at each stage it admits
        calls = min(refused + 1, 4 * k)
        if G.guards and not _guards_hold(G, by_step(x1, x2, x3, x4)[:calls],
                                         by_step(y1, y2, y2, y4)[:calls]):
            return None
        taken = refused // 4
        xs.append(X[1:taken + 1])
        ys.append(Y[1:taken + 1])
        if taken < k:
            break
        x, y = X[-1], Y[-1]
    xs, ys = np.concatenate(xs), np.concatenate(ys)
    return xs, ys, len(xs) > steps


def _running_sum(first, increments):
    """The rows first, first + increments[0], (first + increments[0]) +
    increments[1], and so on.  `np.add.accumulate` adds row after row, so
    each row is the float sum of the row before and one increment, as a
    loop makes it; `np.sum` adds pairwise and would not be."""
    return np.add.accumulate(np.vstack((first, increments)))


def _guards_hold(G, xs, ys):
    """Whether G evaluates on the (n, dim) batch of points xs, ys without
    raising.  The block runs with no memo key: no other call shares its
    points, and a key would leave an entry in every guard's memo per
    block.  Any error counts, as the caller then steps the curve again by
    the one-point loop, which raises it, or truncates on it, at its own
    sample."""
    try:
        _run(G, None, xs, ys)
    except Exception:
        return False
    return True
