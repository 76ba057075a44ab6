"""Energy functions, Legendre-type fields, and anisotropic metrics.

The chain runs L -> ell = dv L -> phi = (1/2) dv ell.  A Lagrangian is a
2-homogeneous scalar whose fundamental tensor phi is nondegenerate on the
domain; phi itself is 0-homogeneous and symmetric, and satisfies
phi . y = (1/2) ell.
"""

import numpy as np

from .errors import DegeneracyError, ShapeError
from .fields import (DEFAULT_ENGINE, _first, _require_type, _sample_at, add,
                     liouville_field, matrix_inverse, scalar_reciprocal,
                     scale, subtract, tensor_product, vertical_derivative)
from .ladder import lower, project_kernel


class Lagrangian:
    """2-homogeneous scalar energy on a conic domain.

    Every field derived from the energy is built once per (kind,
    differentiation method) and kept in one store, through `kept`: ell, phi
    and the inverse of phi (`fundamental_tensor`), read through the
    energy's chains and so kept under "analytic", and per method the
    canonical spray, N = dv G, the Berwald and Chern coefficients and the
    iota of each (`classical_linear`), dv phi and the Cartan tensor.  No
    kept node refers back to the Lagrangian, so all of them die with it by
    reference counting alone."""

    def __init__(self, field, name=""):
        _require_type(field, 0, 0, 2, "a Lagrangian")
        self.field = field
        self.name = name or field.name
        self._store = {}

    @property
    def domain(self):
        return self.field.domain

    def kept(self, kind, build, engine=None):
        """The node `build()` makes, built once per `kind` and `engine`'s
        differentiation method (the default engine's when None) and kept
        here.  No node `build` makes may capture the Lagrangian."""
        key = (kind, (engine or DEFAULT_ENGINE).method)
        node = self._store.get(key)
        if node is None:
            node = self._store[key] = build()
        return node

    def ell_field(self):
        return self.kept("ell", lambda: vertical_derivative(self.field))

    def phi_field(self):
        return self.kept("phi", lambda: scale(
            vertical_derivative(self.ell_field()), 0.5,
            name=f"phi({self.name})"))

    def __call__(self, x, y):
        return self.field(x, y)


class LegendreField:
    """A (0, 1) field of homogeneity 1; the gradient shape of an energy."""

    def __init__(self, field, name=""):
        _require_type(field, 0, 1, 1, "a Legendre-type field")
        self.field = field
        self.name = name or field.name

    def __call__(self, x, y):
        return self.field(x, y)


class AnisotropicMetric:
    """Symmetric nondegenerate (0, 2) field, 0-homogeneous in y."""

    def __init__(self, field, name=""):
        _require_type(field, 0, 2, 0, "an anisotropic metric")
        self.field = field
        self.name = name or field.name
        self._inv = None

    @property
    def domain(self):
        return self.field.domain

    def inverse_field(self):
        if self._inv is None:
            self._inv = matrix_inverse(self.field, name=f"inv({self.name})")
        return self._inv

    def __call__(self, x, y):
        return self.field(x, y)

    def check_at(self, x, y, sym_tol=1e-8):
        """Raise DegeneracyError / ShapeError if the metric misbehaves at
        (x, y), or at any sample of a (B, dim) batch; the error names the
        first such sample."""
        xs = np.reshape(np.asarray(x, dtype=float), (-1, self.domain.dim))
        ys = np.reshape(np.asarray(y, dtype=float), (-1, self.domain.dim))
        g = self.field(xs, ys)
        lopsided = ~_symmetric(g, sym_tol)
        if lopsided.any():
            raise ShapeError(f"metric {self.name!r} is not symmetric at the "
                             f"sample {_sample_at(xs, ys, _first(lopsided))}")
        scaled = g / np.maximum(np.max(np.abs(g), axis=-1), 1e-300)[..., None]
        flat = np.abs(np.linalg.det(scaled)) <= 1e-10
        if flat.any():
            raise DegeneracyError(
                f"metric {self.name!r} is numerically degenerate",
                sample=_sample_at(xs, ys, _first(flat)))


def legendre_of(L):
    """The vertical gradient of a Lagrangian, wrapped as a LegendreField."""
    return LegendreField(L.ell_field(), name=f"ell({L.name})")


def fundamental_tensor(L, validate_at=None):
    """phi = (1/2) dv dv L as an AnisotropicMetric.

    Each call returns a new metric, whose `inverse_field()` is the one
    inverse node of phi kept in `L`'s store, so every object built on it
    shares that node.  `validate_at` may give (xs, ys) sample arrays; degeneracy
    at any of them raises DegeneracyError carrying the offending sample,
    on every call.
    """
    metric = AnisotropicMetric(L.phi_field(), name=f"phi({L.name})")
    metric._inv = L.kept("phi_inverse", metric.inverse_field)
    if validate_at is not None:
        metric.check_at(*validate_at)
    return metric


def legendre_residue(ell, engine=None):
    """Obstruction of a (0, 1), 1-homogeneous field to being a gradient shadow.

    Delta_i = (1/2) ell_i - (1/2) y^a (dv ell)_{a i}; vanishes exactly when
    ell is the vertical gradient of its own ground-floor energy.
    """
    field = ell.field if isinstance(ell, LegendreField) else ell
    _require_type(field, 0, 1, 1, "legendre_residue")
    dell = vertical_derivative(field, engine)
    hooked = tensor_product(
        dell, liouville_field(field.domain), "ai,a->i", 0, 1)
    return scale(subtract(field, hooked), 0.5,
                 name=f"legendre_residue({field.name})")


def kernel_residue(ell, engine=None):
    """Same obstruction, computed through the ladder kernel projection."""
    field = ell.field if isinstance(ell, LegendreField) else ell
    _require_type(field, 0, 1, 1, "kernel_residue")
    return project_kernel(field, engine)


def wick_metric(L, kappa):
    """Rotate a Lagrangian's fundamental tensor toward its energy direction.

    g = phi + kappa * (phi . y) (x) (phi . y) / L, built with phi . y =
    (1/2) ell.  Evaluating where L vanishes raises DivisionError naming the
    sample.  g . y = (1 + kappa) phi . y, so the ground-floor energy of g
    is (1 + kappa) L / 2.
    """
    phi = L.phi_field()
    ell = L.ell_field()
    outer = tensor_product(ell, ell, "i,j->ij", 0, 2)
    correction = tensor_product(outer, scalar_reciprocal(L.field),
                                "ij,->ij", 0, 2)
    g = add(phi, scale(correction, float(kappa) / 4.0),
            name=f"wick({L.name},{kappa:g})")
    return AnisotropicMetric(g, name=g.name)


def lagrangian_of_metric(metric):
    """Ground-floor energy (1/2) g(y, y) of an anisotropic metric."""
    return Lagrangian(lower(lower(metric.field, 1), 2,
                            name=f"energy({metric.name})"))


def _symmetric(g, tol):
    """Per matrix of a stack (..., n, n): np.allclose(g, g.T) with absolute
    tolerance tol * (1 + max |g|), matrix by matrix."""
    gt = np.swapaxes(g, -1, -2)
    atol = tol * (1.0 + np.max(np.abs(g), axis=(-2, -1)))
    close = np.abs(g - gt) <= atol[..., None, None] + 1e-5 * np.abs(gt)
    return np.all(close, axis=(-2, -1))


def signature_at(metric, x, y, zero_tol=1e-8):
    """Counts (n_plus, n_minus, n_zero) of eigenvalues of the metric at (x, y).

    Eigenvalues with |lambda| < zero_tol count as zero.  The components are
    symmetrized-checked first; a lopsided matrix raises ShapeError.  At a
    (B, dim) batch of samples the three counts are integer arrays of
    length B.
    """
    g = metric(x, y)
    if not np.all(_symmetric(g, 1e-8)):
        raise ShapeError("signature of a non-symmetric matrix is undefined")
    eigs = np.linalg.eigvalsh(0.5 * (g + np.swapaxes(g, -1, -2)))
    n_zero = np.sum(np.abs(eigs) < zero_tol, axis=-1)
    n_plus = np.sum(eigs >= zero_tol, axis=-1)
    n_minus = np.sum(eigs <= -zero_tol, axis=-1)
    if n_zero.ndim == 0:
        return (int(n_plus), int(n_minus), int(n_zero))
    return (n_plus, n_minus, n_zero)
