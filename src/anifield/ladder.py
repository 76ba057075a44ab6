"""Splitting fields along the ladder of homogeneity levels.

For a field S of type (r, s) with integer homogeneity alpha, the total
weight omega = alpha + s is constant along vertical differentiation and
Liouville contraction.  The rung move down is `lower`, the contraction
divided by nu = alpha + 1; the move up is the vertical derivative, which
`lower` undoes, as iota(dv T) = nu T for T of homogeneity nu.  Climbing
one rung divides out one covariant slot:

    S = dv(S_up) + Delta,   S_up = lower(S, nu) = (1/nu) iota(S),

where the residue Delta is killed by iota.  Iterating to the ground floor
writes S as iterated vertical derivatives of a single base function plus
one in-kernel residue per rung.
"""

from dataclasses import dataclass

from .errors import LevelError, ShapeError
from .fields import (add, liouville_contract, scale, subtract,
                     vertical_derivative)


def _as_int_level(value, what):
    v = float(value)
    if not v.is_integer():
        raise LevelError(f"{what} must be an integer level, got {value!r}")
    return int(v)


def _levels(S):
    """(alpha, omega) of a field the ladder walks: integer alpha >= 0."""
    alpha = _as_int_level(S.alpha, "field homogeneity")
    if alpha < 0:
        raise LevelError(f"ladder starts at alpha >= 0, got {alpha}")
    return alpha, alpha + S.s


def lower(S, nu, name=""):
    """The rung move down: (1/nu) iota(S), the bare contraction at nu = 1
    unless a name asks for a named copy."""
    if nu == 0:
        raise LevelError(f"cannot lower {S.name!r} by nu = 0: its "
                         f"contraction would have no pre-image")
    hooked = liouville_contract(S)
    if nu == 1 and not name:
        return hooked
    return scale(hooked, 1.0 / nu, name=name)


def project_image(S, engine=None):
    """Component of S reachable as a vertical derivative: dv(lower(S, nu))
    with nu = alpha + 1, the homogeneity of the pre-image.  Idempotent, and
    the identity on any dv T."""
    return vertical_derivative(lower(S, S.alpha + 1.0), engine)


def project_kernel(S, engine=None, name=""):
    """Component of S killed by the Liouville contraction.  When S has no
    image part, that is S itself, under its own name."""
    return subtract(S, project_image(S, engine),
                    name=name or f"ker({S.name})")


@dataclass(frozen=True)
class LadderDecomposition:
    """Result of walking a field down to a chosen homogeneity level.

    base : the field at the stopping level (covariant rank omega - beta)
    residues : in-kernel residues, ordered by increasing covariant rank;
        the residue of rank k sits at homogeneity omega - k
    """

    r: int
    omega: int
    base: object
    residues: tuple

    @property
    def beta(self):
        return self.omega - self.base.s

    def residue_of_rank(self, k):
        for res in self.residues:
            if res.s == k:
                return res
        raise LevelError(f"no residue of covariant rank {k} in this split")


def decompose(S, beta, engine=None):
    """Split S into iterated-derivative and residue parts up to level beta.

    S must have integer homogeneity alpha >= 0; beta must satisfy
    alpha < beta <= omega = alpha + s.  beta = omega reaches the ground
    floor: a single function of full weight plus one residue per rung.
    """
    alpha, omega = _levels(S)
    beta = _as_int_level(beta, "target")
    if not alpha < beta <= omega:
        raise LevelError(
            f"target level {beta} not in ({alpha}, {omega}] for this field")
    current = S
    collected = []
    for nu in range(alpha + 1, beta + 1):
        lifted = lower(current, nu)
        collected.append(subtract(current, vertical_derivative(lifted, engine),
                                  name=f"residue[{current.s}]"))
        current = lifted
    return LadderDecomposition(r=S.r, omega=omega, base=current,
                               residues=tuple(reversed(collected)))


def _climb(field, top, engine):
    """Differentiate `field` vertically up to covariant rank `top`."""
    for _ in range(top - field.s):
        field = vertical_derivative(field, engine)
    return field


def reconstruct(split, engine=None):
    """Reassemble the field a LadderDecomposition came from.

    Every part is differentiated back up to the top covariant rank and
    summed; mismatched weights raise ShapeError.
    """
    base = split.base
    if base.s + round(base.alpha) != split.omega:
        raise ShapeError("base weight does not match the declared omega")
    top = split.residues[-1].s if split.residues else base.s
    for res in split.residues:
        if res.r != split.r or res.s + round(res.alpha) != split.omega:
            raise ShapeError(
                f"residue of rank {res.s} has weight "
                f"{res.s + res.alpha:g}, expected {split.omega}")
    # Named through `add`: a zero part folds away, and the sum is then
    # the other part itself, whose name is not ours to change.
    total = _climb(base, top, engine)
    for res in split.residues:
        total = add(total, _climb(res, top, engine), name=f"rebuilt[{top}]")
    return total


def destroy_residues(S, engine=None):
    """Ground-floor shadow of S: drop every residue, keep the base.

    Climbs the base of `decompose(S, omega)` back up to the rank of S.
    Equals S exactly when S is an iterated vertical derivative, and kills
    S when iota(S) = 0.  The homogeneity of S must be an integer >= 0.
    """
    alpha, omega = _levels(S)
    if alpha == omega:
        return S        # a scalar is its own ground floor
    out = _climb(decompose(S, omega, engine).base, S.s, engine)
    # A derivative is a chain cached on the node below it; name a copy.
    return scale(out, 1.0, name=f"destroyed({S.name})")
