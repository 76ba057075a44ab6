"""Numerical calculus for positively homogeneous tensor fields on conic
subsets of the tangent bundle: the vertical-derivative ladder, anisotropic
metrics and their signatures, sprays and the classical connections,
chart-transition cocycles, and action functionals over the whole tower.
"""

from .atlas import (ChartTransition, coherence_defect, transform_connection,
                    transform_tensor)
from .catalog import ExampleBundle, example_names, get_example
from .checks import CHECKS, CheckReport, applicable_checks
from .cli import RunConfig, canonical_json, parse_config, run_suite
from .connections import (AnisotropicConnection, Connection,
                          NonlinearConnection, Spray, Trajectory,
                          berwald_connection, canonical_spray,
                          chern_connection, dv_phi, geodesic_integrate,
                          landsberg_tensor, lower_connection,
                          nonlinear_residue, raise_connection, torsion)
from .errors import (AnifieldError, DegeneracyError, DivisionError,
                     DomainError, LevelError, RankError, ShapeError,
                     TransitionError)
from .fields import (ConicDomain, DiffEngine, TensorField, add,
                     constant_field, evaluate, form_field,
                     homogeneity_defect, liouville_contract, liouville_field,
                     matrix_inverse, reindex, scalar_power,
                     scalar_reciprocal, scale, subtract, tensor_product,
                     vertical_derivative, x_derivative, zero_field)
from .functionals import (ActionFunctional, evaluate_action,
                          extend_functional, gauge_symmetrize,
                          restrict_functional)
from .ladder import (LadderDecomposition, decompose, destroy_residues, lower,
                     project_image, project_kernel, reconstruct)
from .linear import (LinearConnection, b_matrix, cartan_tensor,
                     classical_linear, covariant_derivative, embed_trivial,
                     induced_nonlinear, is_strongly_regular,
                     linear_from_pair, project_intrinsic, project_with_N)
from .metrics import (AnisotropicMetric, Lagrangian, fundamental_tensor,
                      kernel_residue, lagrangian_of_metric, legendre_of,
                      legendre_residue, signature_at, wick_metric)

__version__ = "0.1.0"

__all__ = [
    "ActionFunctional", "AnifieldError", "AnisotropicConnection",
    "AnisotropicMetric", "CHECKS", "ChartTransition", "CheckReport",
    "ConicDomain", "Connection", "DegeneracyError", "DiffEngine",
    "DivisionError", "DomainError", "ExampleBundle", "LadderDecomposition",
    "Lagrangian", "LevelError", "LinearConnection", "NonlinearConnection",
    "RankError", "RunConfig", "ShapeError", "Spray", "TensorField",
    "Trajectory", "TransitionError", "add", "applicable_checks", "b_matrix",
    "berwald_connection", "canonical_json", "canonical_spray",
    "cartan_tensor", "chern_connection", "classical_linear",
    "coherence_defect", "constant_field", "covariant_derivative",
    "decompose", "destroy_residues", "dv_phi", "embed_trivial", "evaluate",
    "evaluate_action", "example_names", "extend_functional", "form_field",
    "fundamental_tensor", "gauge_symmetrize", "geodesic_integrate",
    "get_example", "homogeneity_defect", "induced_nonlinear",
    "is_strongly_regular", "kernel_residue", "lagrangian_of_metric",
    "landsberg_tensor", "legendre_of", "legendre_residue",
    "linear_from_pair", "liouville_contract", "liouville_field",
    "lower", "lower_connection", "matrix_inverse", "nonlinear_residue",
    "parse_config", "project_image", "project_intrinsic", "project_kernel",
    "project_with_N", "raise_connection", "reconstruct", "reindex",
    "restrict_functional", "run_suite", "scalar_power",
    "scalar_reciprocal", "scale", "signature_at", "subtract", "tensor_product",
    "torsion", "transform_connection", "transform_tensor",
    "vertical_derivative", "wick_metric", "x_derivative", "zero_field",
]
