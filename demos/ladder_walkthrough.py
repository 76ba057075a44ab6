"""Walk a one-form down the homogeneity ladder and back up.

The running example is ell = (y1 - y2, y1 + y2): one half of it is the
gradient of an energy, the other half is an obstruction that no amount of
vertical differentiation can produce.  The cascade splits the two cleanly.
"""

import numpy as np

from anifield import (ConicDomain, DiffEngine, TensorField, decompose,
                      destroy_residues, liouville_contract, project_image,
                      project_kernel, reconstruct, zero_field)

engine = DiffEngine("analytic")
domain = ConicDomain(2, name="plane")

ddell = TensorField(domain, 0, 2, 0.0,
                    lambda xs, ys: np.tile([[1.0, -1.0], [1.0, 1.0]],
                                           (len(xs), 1, 1)),
                    dy=lambda: zero_field(domain, 0, 3, -1.0))
ell = TensorField(domain, 0, 1, 1.0,
                  lambda xs, ys: np.stack([ys[:, 0] - ys[:, 1],
                                           ys[:, 0] + ys[:, 1]], axis=-1),
                  dy=ddell, name="skew_ell")

x = np.zeros(2)
y = np.array([3.0, 4.0])
print("ell(x, y)             =", ell(x, y))

image = project_image(ell, engine=engine)
kernel = project_kernel(ell, engine=engine)
print("gradient part         =", image(x, y))
print("obstruction part      =", kernel(x, y), "(should be (-y2, y1))")
print("obstruction hooked    =", liouville_contract(kernel)(x, y),
      "(in-kernel, so 0)")

split = decompose(ell, 2, engine)
print("\ncascade to level 0:")
print("  base energy S0      =", split.base(x, y), "(equals |y|^2 / 2)")
for res in split.residues:
    print(f"  residue rank {res.s}      =", res(x, y))

total = reconstruct(split, engine)
print("reconstructed         =", total(x, y))
print("round-trip defect     =", np.max(np.abs(total(x, y) - ell(x, y))))

flattened = destroy_residues(ell, engine=engine)
print("\nresidues destroyed    =", flattened(x, y),
      "(the pure gradient (y1, y2))")
