"""Geodesic flow of a canonical spray, and action functionals that cannot
see in-kernel shifts of a connection."""

import numpy as np

from anifield import (ActionFunctional, DiffEngine, NonlinearConnection,
                      add, canonical_spray, evaluate_action,
                      gauge_symmetrize, geodesic_integrate, raise_connection,
                      restrict_functional)
from anifield.catalog import get_example
from anifield.checks import kernel_shift

engine = DiffEngine("analytic")

# --- geodesics -----------------------------------------------------------

euc = get_example("euclidean2")
G_flat = canonical_spray(euc.lagrangian, engine)
traj = geodesic_integrate(G_flat, (0.0, 0.0), (1.0, 2.0), 0.01, 100)
x_final, y_final = traj.points[-1]
print("flat geodesic: completed =", traj.completed)
print("  endpoint x =", x_final, " (straight line predicts [1, 2])")

conf = get_example("conformal2")
L = conf.lagrangian
G = canonical_spray(L, engine)
traj = geodesic_integrate(G, (0.0, 0.0), (0.6, 0.8), 0.001, 1000)
energies = [L(x, y) for x, y in traj.points]
print("conformal geodesic over", len(traj.points) - 1, "steps:")
print("  energy drift max |L - L0| =",
      max(abs(e - energies[0]) for e in energies))

# --- action functionals --------------------------------------------------

N = raise_connection(G, engine)


def curvature_like_density(conn, xs, ys):
    n = conn.coefficients(xs, ys)
    return np.sum(n * n, axis=(1, 2))


A = ActionFunctional("nonlinear", curvature_like_density, conf.domain,
                     count=32, seed=5)
print("\naction on the canonical nonlinear connection:",
      evaluate_action(A, N))

restricted = restrict_functional(A, engine)
print("restricted to spray level, fed the spray itself:",
      evaluate_action(restricted, G))

# A rank-1 in-kernel shift changes the connection but not the symmetrized
# action: the retract-then-inject pass strips exactly that part.
shift = kernel_shift(conf.domain,
                     np.random.default_rng(8).normal(size=(2, 2, 2)), rank=1)
N_shifted = NonlinearConnection(add(N.coefficients, shift))
A_gauge = gauge_symmetrize(A, engine)
print("\nraw action, shifted vs original      :",
      evaluate_action(A, N_shifted), "vs", evaluate_action(A, N))
print("gauge action, shifted vs original    :",
      evaluate_action(A_gauge, N_shifted), "vs", evaluate_action(A_gauge, N))
