"""How sprays, nonlinear connections, and anisotropic connections change
coordinates, demonstrated on a shear chart where everything has a closed
form."""

import numpy as np

from anifield import (AnisotropicConnection, DiffEngine, canonical_spray,
                      coherence_defect, raise_connection,
                      transform_connection, transform_tensor,
                      vertical_derivative)
from anifield.catalog import get_example

engine = DiffEngine("analytic")
bundle = get_example("quadchart")
T = bundle.transition
L = bundle.lagrangian

x = np.array([0.5, 1.0])
y = np.array([1.0, 2.0])
xt, yt = T.push_point(x, y)
print("chart map: (x, y) =", x, y, "-> (xt, yt) =", xt, yt)

G = canonical_spray(L, engine)
Gt = transform_connection(G, T)
print("\nspray here                :", G.coefficients(x, y))
print("spray in the tilde chart  :", Gt.coefficients(xt, yt))
print("closed form               :", np.array([-yt[1] ** 2, 0.0]))

N = raise_connection(G, engine)
Nt = transform_connection(N, T)
print("\nnonlinear in tilde chart  :\n", Nt.coefficients(xt, yt))
print("closed form row 0         :", np.array([0.0, -2.0 * yt[1]]))

Gamma = AnisotropicConnection(vertical_derivative(N.coefficients, engine))
Gammat = transform_connection(Gamma, T)
print("\nGamma~[0] in tilde chart  :\n", Gammat.coefficients(xt, yt)[0])
print("(constant, entry [1,1] is -2: the shear's second derivative)")

ell = L.ell_field()
ell_t = transform_tensor(ell, T)
print("\none-form pushed forward   :", ell_t(xt, yt))
print("inverse Jacobian by hand  :", ell(x, y) @ T.inverse_jacobian(x))

xs, ys = bundle.domain.sample(12, seed=4)
print("\ncoherence defects (transform-then-operate vs operate-then-transform):")
for name, obj in (("spray", G), ("nonlinear", N), ("anisotropic", Gamma),
                  ("one-form", ell)):
    defects = coherence_defect(obj, T, xs, ys, engine)
    worst = max(gaps.max() for gaps in defects.values())
    print(f"  {name:>11}: checked {sorted(defects)} -> max defect {worst:.2e}")
