"""Splitting fields along the ladder of homogeneity levels.

For a field S of type (r, s) with integer homogeneity alpha, the total
weight omega = alpha + s is constant along vertical differentiation and
Liouville contraction.  Climbing one rung divides out one covariant slot:

    S = dv(S_up) + Delta,   S_up = (1/nu) iota(S),   nu = alpha + 1,

where the residue Delta is killed by iota.  Iterating to the ground floor
writes S as iterated vertical derivatives of a single base function plus
one in-kernel residue per rung.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LevelError, ShapeError
from .fields import (add, liouville_contract, scale, subtract,
                     vertical_derivative)


def _as_int_level(value, what):
    v = float(value)
    if not v.is_integer():
        raise LevelError(f"{what} must be an integer level, got {value!r}")
    return int(v)


def project_image(S, alpha=None, engine=None):
    """Component of S reachable as a vertical derivative.

    Inverts iota(dv T) = alpha T one rung up: returns dv((1/alpha) iota S)
    where alpha is the homogeneity of the pre-image, S.alpha + 1 unless
    given explicitly.  Idempotent, and the identity on any dv T.
    """
    alpha = S.alpha + 1.0 if alpha is None else float(alpha)
    if alpha == 0.0:
        raise LevelError("image projection is undefined when the pre-image "
                         "would sit at level 0")
    lifted = scale(liouville_contract(S), 1.0 / alpha)
    return vertical_derivative(lifted, engine)


def project_kernel(S, alpha=None, engine=None, name=""):
    """Component of S killed by the Liouville contraction.  When S has no
    image part, that is S itself, under its own name."""
    return subtract(S, project_image(S, alpha, engine),
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
    alpha = _as_int_level(S.alpha, "field homogeneity")
    beta = _as_int_level(beta, "target")
    omega = alpha + S.s
    if alpha < 0:
        raise LevelError(f"ladder starts at alpha >= 0, got {alpha}")
    if not alpha < beta <= omega:
        raise LevelError(
            f"target level {beta} not in ({alpha}, {omega}] for this field")
    current = S
    collected = []
    for nu in range(alpha + 1, beta + 1):
        lifted = scale(liouville_contract(current), 1.0 / nu)
        collected.append(subtract(current, vertical_derivative(lifted, engine),
                                  name=f"residue[{current.s}]"))
        current = lifted
    return LadderDecomposition(r=S.r, omega=omega, base=current,
                               residues=tuple(reversed(collected)))


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

    def climb(field):
        out = field
        for _ in range(top - field.s):
            out = vertical_derivative(out, engine)
        return out

    # Named through `add`: a zero part folds away, and the sum is then
    # the other part itself, whose name is not ours to change.
    total = climb(base)
    for res in split.residues:
        total = add(total, climb(res), name=f"rebuilt[{top}]")
    return total


def destroy_residues(S, alpha=None, omega=None, engine=None):
    """Ground-floor shadow of S: drop every residue, keep the base.

    Walks S all the way down with repeated normalized contractions, then
    differentiates the base back up.  Equals S exactly when S is an
    iterated vertical derivative, and kills S when iota(S) = 0.
    """
    a = _as_int_level(S.alpha if alpha is None else alpha, "alpha")
    if alpha is not None and a != round(S.alpha):
        raise LevelError(
            f"declared alpha {a} does not match field homogeneity {S.alpha:g}")
    w = a + S.s if omega is None else _as_int_level(omega, "omega")
    if w != a + S.s:
        raise LevelError(
            f"omega {w} does not match alpha + rank = {a + S.s}")
    if a < 0:
        raise LevelError(f"ladder starts at alpha >= 0, got {a}")
    if w == a:
        return S        # a scalar is its own ground floor
    current = S
    for nu in range(a + 1, w + 1):
        current = scale(liouville_contract(current), 1.0 / nu)
    out = current
    for _ in range(w - a):
        out = vertical_derivative(out, engine)
    # A derivative is a chain cached on the node below it; name a copy.
    return scale(out, 1.0, name=f"destroyed({S.name})")
