"""Rectangular Morley elements for biharmonic eigenvalue problems on boxes.

The discrete eigenvalues approximate the clamped or simply supported
biharmonic spectrum from below on uniform square or cubic meshes.
"""

from .assembly import (BC_CLAMPED, BC_SIMPLY_SUPPORTED, DofMap, FemField,
                       SymmetricSparseMatrix, assemble, broken_energy_inner,
                       broken_error_norms, build_dof_map,
                       eigen_error_identity_terms, element_matrices,
                       interpolate_global, nested_dissection)
from .element import ReferenceElement, build_reference_element, physical_dof_scaling
from .eigensolve import (EigenResult, factor_spd, residual_report,
                         smallest_k_dense, smallest_k_shift_invert, solve_smallest)
from .functions import (PolynomialFunction, ScaledFunction, SineProduct,
                        sine_eigenvalue, unit_box_eigenfunction)
from .mesh import CartesianMesh, build_mesh
from .operators import (BubbleSet, build_bubbles, bubble_expansion,
                        canonical_interpolate, commuting_discrepancy,
                        interpolation_convergence_probe, moment_project,
                        refined_identity_check, run_bubble_suite,
                        run_commuting_suite, run_refined_identity_suite,
                        taylor_error_leading_term)
from .polynomial import Polynomial
from .quadrature import (QuadRule, facet_rule, gauss_legendre_1d,
                         integrate_monomial_box, tensor_rule)

__version__ = "0.1.0"

__all__ = [
    "BC_CLAMPED",
    "BC_SIMPLY_SUPPORTED",
    "BubbleSet",
    "CartesianMesh",
    "DofMap",
    "EigenResult",
    "FemField",
    "Polynomial",
    "PolynomialFunction",
    "QuadRule",
    "ReferenceElement",
    "ScaledFunction",
    "SineProduct",
    "SymmetricSparseMatrix",
    "assemble",
    "broken_energy_inner",
    "broken_error_norms",
    "bubble_expansion",
    "build_bubbles",
    "build_dof_map",
    "build_mesh",
    "build_reference_element",
    "canonical_interpolate",
    "commuting_discrepancy",
    "eigen_error_identity_terms",
    "element_matrices",
    "factor_spd",
    "gauss_legendre_1d",
    "integrate_monomial_box",
    "interpolate_global",
    "interpolation_convergence_probe",
    "moment_project",
    "nested_dissection",
    "physical_dof_scaling",
    "refined_identity_check",
    "residual_report",
    "run_bubble_suite",
    "run_commuting_suite",
    "run_refined_identity_suite",
    "sine_eigenvalue",
    "smallest_k_dense",
    "smallest_k_shift_invert",
    "solve_smallest",
    "taylor_error_leading_term",
    "tensor_rule",
    "unit_box_eigenfunction",
]
