"""Exact inversion of polynomial maps F(x) = x - H(x) by tree expansion.

H is homogeneous of degree d with a fully symmetric rational coefficient
tensor.  The formal inverse G is computed two independent ways (a sum
over valence-constrained labeled trees and the fixed point G = y + H(G)
solved degree by degree), cross-checked exactly, and analyzed: Jacobian condition in
its equivalent forms, partition-function identities, inverse-degree
bound, and floating-point convergence checks.
"""

from treeinv.catalog import catalog, catalog_names, get_fixture, random_map
from treeinv.errors import (
    BudgetExceededError,
    DimensionMismatchError,
    GuardExceededError,
    MapFormatError,
    PreconditionError,
)
from treeinv.inversion import (
    InverseReport,
    check_quadratic_nilpotent_theorem,
    correlation_tensor,
    default_degree_cap,
    fixed_point_inverse,
    invert_report,
    lagrange_oracle_1d,
    polynomial_inverse_degree,
    verify_inverse,
)
from treeinv.jacobian import (
    JacobianVerdict,
    analyze,
    is_unit_jacobian,
    newton_cayley_hamilton_check,
    nilpotency_order,
    symmetrized_chain_tensor,
    symmetrized_loop_tensor,
    trace_powers,
)
from treeinv.mapfile import load_map, parse_map, save_map, serialize_map
from treeinv.numeric import (
    RadiusReport,
    convergence_radius,
    default_sample_points,
    eval_series_numeric,
    theorem1_check,
)
from treeinv.partition import (
    PartitionReport,
    check_self_normalization,
    log_z_series,
    partition_report,
    series_exp,
    series_log,
    verify_z_identity,
    z_series,
)
from treeinv.poly import Poly, Series, poly_compose, series_compose
from treeinv.polymatrix import PolyMatrix
from treeinv.tensormap import (
    PolyMap,
    SymTensor,
    build_F,
    build_H,
    jacobian_det,
    jacobian_matrix,
    norm_w,
)
from treeinv.trees import (
    ValencedTree,
    VertexSet,
    amplitude,
    amplitude_vector,
    enumerate_trees,
    tree_count,
    tree_sum_inverse,
)

__version__ = "0.1.0"

# The one census kernel is pure Python; benchmark reports record this name.
BACKEND = "pure"

__all__ = [
    "BACKEND",
    "BudgetExceededError",
    "DimensionMismatchError",
    "GuardExceededError",
    "InverseReport",
    "JacobianVerdict",
    "MapFormatError",
    "PartitionReport",
    "Poly",
    "PolyMap",
    "PolyMatrix",
    "PreconditionError",
    "RadiusReport",
    "Series",
    "SymTensor",
    "ValencedTree",
    "VertexSet",
    "__version__",
    "amplitude",
    "amplitude_vector",
    "analyze",
    "build_F",
    "build_H",
    "catalog",
    "catalog_names",
    "check_quadratic_nilpotent_theorem",
    "check_self_normalization",
    "convergence_radius",
    "correlation_tensor",
    "default_degree_cap",
    "default_sample_points",
    "enumerate_trees",
    "eval_series_numeric",
    "fixed_point_inverse",
    "get_fixture",
    "invert_report",
    "is_unit_jacobian",
    "jacobian_det",
    "jacobian_matrix",
    "lagrange_oracle_1d",
    "load_map",
    "log_z_series",
    "newton_cayley_hamilton_check",
    "nilpotency_order",
    "norm_w",
    "parse_map",
    "partition_report",
    "poly_compose",
    "polynomial_inverse_degree",
    "random_map",
    "save_map",
    "serialize_map",
    "series_compose",
    "series_exp",
    "series_log",
    "symmetrized_chain_tensor",
    "symmetrized_loop_tensor",
    "theorem1_check",
    "trace_powers",
    "tree_count",
    "tree_sum_inverse",
    "verify_inverse",
    "verify_z_identity",
    "z_series",
]
