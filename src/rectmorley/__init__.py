"""Rectangular Morley elements for biharmonic eigenvalue problems on boxes.

The discrete eigenvalues approximate the clamped or simply supported
biharmonic spectrum from below on uniform square or cubic meshes.

The names below load their submodule on first access, so importing the
package (and with it rectmorley.cli) does not load numpy: the CLI caps the
BLAS/OpenMP thread pools before the numeric stack starts.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "assembly": ("BC_CLAMPED", "BC_SIMPLY_SUPPORTED", "DofMap", "FemField",
                 "assemble", "broken_energy_inner", "broken_error_norms",
                 "build_dof_map", "eigen_error_identity_terms", "element_matrices",
                 "interpolate_global"),
    "element": ("ReferenceElement", "build_reference_element", "reference_dof_scale"),
    "eigensolve": ("EigenResult", "smallest_k_dense", "solve_smallest"),
    "functions": ("ScaledFunction", "SineProduct", "sine_eigenvalue",
                  "unit_box_eigenfunction"),
    "mesh": ("CartesianMesh", "build_mesh"),
    "operators": ("build_bubbles", "bubble_expansion",
                  "canonical_interpolate", "commuting_discrepancy",
                  "interpolation_convergence_probe", "moment_project",
                  "refined_identity_check", "run_bubble_suite", "run_commuting_suite",
                  "run_refined_identity_suite"),
    "polynomial": ("Polynomial",),
    "quadrature": ("QuadRule", "facet_rule", "gauss_legendre_1d",
                   "integrate_monomial_box", "tensor_rule"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)
