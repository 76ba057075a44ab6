"""Action-type functionals over fixed quadrature samples.

An ActionFunctional pairs a level tag with a density closure and a frozen,
seeded set of weighted samples.  Levels name the kind of object the
density consumes: "spray", "nonlinear", "anisotropic", "linear" on the
connection side, "lagrangian" and "metric" on the metric side.  Moving a
functional between neighbouring levels precomposes its density with the
canonical map between the levels; the metric side only moves downward.

A density `density(obj, xs, ys)` takes the object and the (B, dim) arrays
of all quadrature samples and returns the B density values, shape (B,);
each evaluation calls it once.
"""

import numpy as np

from .connections import (AnisotropicConnection, NonlinearConnection, Spray,
                          lower_connection, raise_connection)
from .errors import LevelError, ShapeError, TransitionError
from .linear import LinearConnection, embed_trivial, project_intrinsic
from .metrics import AnisotropicMetric, Lagrangian, fundamental_tensor

LEVELS = ("spray", "nonlinear", "anisotropic", "linear", "lagrangian", "metric")

_EXPECTED_TYPE = {
    "spray": Spray,
    "nonlinear": NonlinearConnection,
    "anisotropic": AnisotropicConnection,
    "linear": LinearConnection,
    "lagrangian": Lagrangian,
    "metric": AnisotropicMetric,
}

# Each source level maps to its neighbour and the move that carries an
# object of the neighbour level back to the source level.  restrict moves
# along these arrows (precomposing the injection into the richer level);
# extend moves against them (precomposing the retraction).
_RESTRICT = {
    "linear": ("anisotropic", lambda gamma, engine: embed_trivial(gamma)),
    "anisotropic": ("nonlinear", raise_connection),
    "nonlinear": ("spray", raise_connection),
    "metric": ("lagrangian", lambda lagr, engine: fundamental_tensor(lagr)),
}
_EXTEND = {
    "spray": ("nonlinear", lambda obj, engine: lower_connection(obj)),
    "nonlinear": ("anisotropic", lambda obj, engine: lower_connection(obj)),
    "anisotropic": ("linear", lambda conn, engine: project_intrinsic(conn)),
}


class ActionFunctional:
    """Weighted sample sum of a density on a conic domain.

    The quadrature (points and weights) is drawn once from the seed and
    then frozen, so two functionals built with the same arguments agree
    exactly, sample by sample.
    """

    def __init__(self, level, density, domain, count=64, seed=0, name="",
                 _samples=None):
        if level not in LEVELS:
            raise LevelError(f"level must be one of {LEVELS}, got {level!r}")
        self.level = level
        self.density = density
        self.domain = domain
        self.seed = int(seed)
        self.name = name or f"action[{level}]"
        if _samples is not None:
            self.xs, self.ys, self.weights = _samples
        else:
            self.xs, self.ys = domain.sample(count, seed)
            rng = np.random.default_rng(seed + 1)
            w = rng.uniform(0.5, 1.5, size=len(self.xs))
            self.weights = w / w.sum()

    def _with_density(self, level, density, name):
        return ActionFunctional(level, density, self.domain, seed=self.seed,
                                name=name,
                                _samples=(self.xs, self.ys, self.weights))


def evaluate_action(functional, obj):
    """Quadrature value of the functional on one object of its level."""
    expected = _EXPECTED_TYPE[functional.level]
    if not isinstance(obj, expected):
        raise LevelError(
            f"functional at level {functional.level!r} expects "
            f"{expected.__name__}, got {type(obj).__name__}")
    xs = np.asarray(functional.xs, dtype=float)
    values = np.asarray(
        functional.density(obj, xs, np.asarray(functional.ys, dtype=float)),
        dtype=float)
    if values.shape != (len(xs),):
        raise ShapeError(
            f"density of {functional.name!r} returned shape {values.shape} "
            f"on {len(xs)} samples, needs ({len(xs)},)")
    total = 0.0
    for w, v in zip(functional.weights, values):
        total += w * float(v)
    return total


def _move(functional, table, verb, engine, note=""):
    """Precompose the density with the move `table` holds for the
    functional's level, and retag it with the neighbour level."""
    src = functional.level
    if src not in table:
        raise TransitionError(
            f"cannot {verb} from level {src!r}; supported source levels: "
            f"{sorted(table)}{note}")
    dst, move = table[src]
    density = functional.density
    new = lambda obj, xs, ys: density(move(obj, engine), xs, ys)
    return functional._with_density(dst, new, f"{functional.name}|{dst}")


def restrict_functional(functional, engine=None):
    """Pull the functional back one level along the canonical injection.

    linear -> anisotropic (trivial lift), anisotropic -> nonlinear and
    nonlinear -> spray (vertical raising), metric -> lagrangian (fundamental
    tensor).
    """
    return _move(functional, _RESTRICT, "restrict", engine)


def extend_functional(functional, engine=None):
    """Push the functional one level up along the canonical retraction.

    spray -> nonlinear and nonlinear -> anisotropic (Liouville lowering),
    anisotropic -> linear (intrinsic quotient).  The metric side has no
    canonical upward move: extending from "lagrangian" is rejected.
    """
    return _move(functional, _EXTEND, "extend", engine,
                 " (the metric side only restricts)")


def gauge_symmetrize(functional, engine=None):
    """Precompose with retract-then-inject at the functional's own level.

    The result is blind to in-kernel residues: it sees only the image part
    of its argument.  Supported at "linear" (regular connections),
    "anisotropic", and "nonlinear".
    """
    if functional.level not in ("linear", "anisotropic", "nonlinear"):
        raise TransitionError(
            f"gauge symmetrization is defined at linear, anisotropic, and "
            f"nonlinear levels, not {functional.level!r}")
    out = extend_functional(restrict_functional(functional, engine), engine)
    out.name = f"sym({functional.name})"
    return out
