"""Linear connections on the pulled-back bundle, split into two blocks.

A LinearConnection carries horizontal coefficients Gamma1^i_jk (alpha = 0)
and vertical coefficients Gamma2^i_jk (alpha = -1); the direction index j
is the first covariant slot in both blocks.  The anisotropic quotient is

    Gamma^i_jk = Gamma1^i_jk - N^b_j Gamma2^i_bk,

taken along the connection's own induced N.  Regularity is controlled by
the matrix M^i_b = delta^i_b + Gamma2^i_bc y^c: when M is invertible the
connection induces N^a_i = B^a_b Gamma1^b_ic y^c with B = M^{-1}, and the
pair (quotient, Gamma2) determines the connection.
"""

import numpy as np

from .connections import (AnisotropicConnection, NonlinearConnection,
                          berwald_connection, chern_connection, dv_phi)
from .errors import DegeneracyError, ShapeError
from .fields import (_require_type, add, constant_field, liouville_contract,
                     matrix_inverse, pivot_inverse, scale, subtract,
                     tensor_product, vertical_derivative, x_derivative,
                     zero_field)
from .metrics import fundamental_tensor


class LinearConnection:
    """Blocks (Gamma1, Gamma2) of a vertically trivial linear connection.

    Gamma2 . y, M and the induced N are built once per connection, on
    first use, and named after the connection's name at that time."""

    def __init__(self, gamma1, gamma2, name=""):
        _require_type(gamma1, 1, 2, 0, "Gamma1")
        _require_type(gamma2, 1, 2, -1, "Gamma2")
        if gamma1.domain is not gamma2.domain:
            raise ShapeError("both blocks live on one domain")
        self.gamma1 = gamma1
        self.gamma2 = gamma2
        self.name = name
        self._hooked = None
        self._regular_field = None
        self._induced = None

    @property
    def domain(self):
        return self.gamma1.domain

    def hooked_vertical_field(self):
        """The field Gamma2 . y (contraction on the last slot)."""
        if self._hooked is None:
            self._hooked = liouville_contract(self.gamma2)
        return self._hooked

    def regularity_matrix_field(self):
        """The field M = id + Gamma2 . y."""
        if self._regular_field is None:
            eye = constant_field(self.domain, np.eye(self.domain.dim), 1, 1,
                                 name="id")
            self._regular_field = add(eye, self.hooked_vertical_field(),
                                      name=f"M({self.name})")
        return self._regular_field


def b_matrix(conn, x, y):
    """(B, True) with B = (id + Gamma2 . y)^{-1}, or (None, False) if singular.

    At a (B, dim) batch of samples B is the stack of inverses, and the
    result is (None, False) when any matrix of the batch is singular.
    Never raises on singularity; callers that need B hard should use
    `b_matrix_field` and let evaluation fail loudly.
    """
    M = conn.regularity_matrix_field()(x, y)
    try:
        return pivot_inverse(M), True
    except DegeneracyError:
        return None, False


def b_matrix_field(conn):
    return matrix_inverse(conn.regularity_matrix_field(),
                          name=f"B({conn.name})")


def is_strongly_regular(conn, x, y, tol=1e-12):
    """True when Gamma2 . y vanishes at the sample, which forces B = id.

    At a (B, dim) batch of samples the answer is a boolean array, one
    entry per sample.
    """
    hooked = conn.hooked_vertical_field()(x, y)
    lead = np.shape(x)[:-1]
    regular = np.max(np.abs(hooked).reshape(lead + (-1,)), axis=-1) <= tol
    return regular if lead else bool(regular)


def induced_nonlinear(conn):
    """The nonlinear connection N^a_i = B^a_b Gamma1^b_ic y^c.  Its
    coefficients are built once and kept on `conn`, as M is; each call
    wraps them in a new connection."""
    if conn._induced is None:
        conn._induced = tensor_product(
            b_matrix_field(conn), liouville_contract(conn.gamma1),
            "ab,bi->ai", 1, 1, name=f"N({conn.name})")
    return NonlinearConnection(conn._induced)


def project_intrinsic(conn):
    """Anisotropic quotient along the connection's own induced N, the one
    `induced_nonlinear` keeps: `project_with_N` along that N."""
    return project_with_N(conn, induced_nonlinear(conn))[0]


def project_with_N(conn, N):
    """Quotient along an externally chosen N; returns (connection, Gamma2)."""
    slanted = tensor_product(N.coefficients, conn.gamma2, "bj,ibk->ijk", 1, 2)
    gamma = AnisotropicConnection(subtract(conn.gamma1, slanted))
    return gamma, conn.gamma2


def embed_trivial(gamma):
    """Lift an anisotropic connection with a vanishing vertical block."""
    coeff = gamma.coefficients if isinstance(gamma, AnisotropicConnection) else gamma
    return LinearConnection(coeff, zero_field(coeff.domain, 1, 2, -1.0),
                            name=f"lift({coeff.name})")


def linear_from_pair(gamma, delta):
    """Rebuild the linear connection with quotient `gamma` and vertical
    block `delta`, relative to N = iota(gamma).

    Inverse of `project_intrinsic` paired with reading off Gamma2: the
    induced N of the result is iota(gamma) again, because
    Gamma1 . y = (id + delta . y) . (iota gamma).
    """
    coeff = gamma.coefficients if isinstance(gamma, AnisotropicConnection) else gamma
    _require_type(delta, 1, 2, -1, "the vertical block")
    return _from_pair(coeff, liouville_contract(coeff), delta)


def _from_pair(coeff, hooked, delta):
    """`linear_from_pair` of the quotient `coeff`, whose iota(coeff) is
    `hooked`, and of a vertical block `delta` of type (1, 2)."""
    slanted = tensor_product(hooked, delta, "bj,ibk->ijk", 1, 2)
    return LinearConnection(add(coeff, slanted), delta,
                            name=f"pair({coeff.name})")


def covariant_derivative(conn, X, Z, x, y, engine=None):
    """Derivative of a vector field Z along a split direction X = (Xh, Xv).

    Xh and Xv are coefficient arrays of the horizontal and vertical parts
    in the frame adapted to the connection's induced N:

        (D Z)^i = Xh^j (delta_j Z^i + Gamma1^i_jc Z^c)
                + Xv^j (dZ^i/dy^j + Gamma2^i_jc Z^c)

    with delta_j = d/dx^j - N^a_j d/dy^a.  x and y are one sample or a
    (B, dim) batch; Xh and Xv are (dim,) or one row per sample.
    """
    Xh, Xv = (np.asarray(X[0], dtype=float), np.asarray(X[1], dtype=float))
    field = Z.coefficients if hasattr(Z, "coefficients") else Z
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    dZx = x_derivative(field, engine)(x, y)
    dZy = vertical_derivative(field, engine)(x, y)
    Nv = induced_nonlinear(conn).coefficients(x, y)
    Zv = field(x, y)
    delta_Z = dZx - np.einsum("...aj,...ia->...ij", Nv, dZy)
    horiz = np.einsum("...j,...ij->...i", Xh, delta_Z) \
        + np.einsum("...j,...ijc,...c->...i", Xh, conn.gamma1(x, y), Zv)
    vert = np.einsum("...j,...ij->...i", Xv, dZy) \
        + np.einsum("...j,...ijc,...c->...i", Xv, conn.gamma2(x, y), Zv)
    return horiz + vert


_CLASSICAL = ("berwald", "chern", "hashiguchi", "cartan")


def cartan_tensor(L, engine=None):
    """C^i_jk = (1/2) phi^{il} dphi_lj/dy^k; totally symmetric when lowered,
    killed by hooking y into any slot.  Kept in `L`'s store per method, on
    the `dv_phi` Chern shares: each call returns that one node."""
    return L.kept("cartan", lambda: tensor_product(
        fundamental_tensor(L).inverse_field(), scale(dv_phi(L, engine), 0.5),
        "il,ljk->ijk", 1, 2, name=f"cartan({L.name})"), engine)


def classical_linear(L, kind, engine=None):
    """One of the four classical linear connections of a Lagrangian.

    kind is "berwald", "chern", "hashiguchi", or "cartan"; the first two
    have a vanishing vertical block, the last two carry the Cartan tensor.
    All four are strongly regular and induce the canonical N.  The iota
    of the Berwald and of the Chern coefficients is kept in `L`'s store
    per method, so the two connections over each share it.
    """
    if kind not in _CLASSICAL:
        raise ValueError(f"kind must be one of {_CLASSICAL}, got {kind!r}")
    if kind in ("berwald", "hashiguchi"):
        source, gamma = "berwald", berwald_connection(L, engine).coefficients
    else:
        source, gamma = "chern", chern_connection(L, engine).coefficients
    hooked = L.kept(f"iota_{source}", lambda: liouville_contract(gamma),
                    engine)
    if kind in ("berwald", "chern"):
        delta = zero_field(L.domain, 1, 2, -1.0)
    else:
        delta = cartan_tensor(L, engine)
    out = _from_pair(gamma, hooked, delta)
    out.name = f"{kind}({L.name})"
    return out
