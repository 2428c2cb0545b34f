"""The public names and CLI verbs that callers and scripts rely on."""

from __future__ import annotations

import argparse

import treeinv
from treeinv.cli import build_parser

PUBLIC_NAMES = [
    "BACKEND", "BudgetExceededError", "DimensionMismatchError", "GuardExceededError",
    "InverseReport", "JacobianVerdict", "MapFormatError", "PartitionReport", "Poly",
    "PolyMap", "PolyMatrix", "PreconditionError", "RadiusReport", "Series", "SymTensor",
    "ValencedTree", "VertexSet", "__version__", "amplitude", "amplitude_vector", "analyze",
    "build_F", "build_H", "catalog", "catalog_names", "check_quadratic_nilpotent_theorem",
    "check_self_normalization", "convergence_radius", "correlation_tensor",
    "default_degree_cap", "default_sample_points", "enumerate_trees", "eval_series_numeric",
    "fixed_point_inverse", "get_fixture", "invert_report", "is_unit_jacobian", "jacobian_det",
    "jacobian_matrix", "lagrange_oracle_1d", "load_map", "log_z_series",
    "newton_cayley_hamilton_check", "nilpotency_order", "norm_w", "parse_map",
    "partition_report", "poly_compose", "polynomial_inverse_degree", "random_map", "save_map",
    "serialize_map", "series_compose", "series_exp", "series_log", "symmetrized_chain_tensor",
    "symmetrized_loop_tensor", "theorem1_check", "trace_powers", "tree_count",
    "tree_sum_inverse", "verify_inverse", "verify_z_identity", "z_series",
]


def test_public_names_are_pinned():
    assert sorted(treeinv.__all__) == PUBLIC_NAMES
    assert len(treeinv.__all__) == len(PUBLIC_NAMES)
    for name in PUBLIC_NAMES:
        assert hasattr(treeinv, name), name


def test_cli_verbs_are_pinned():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert list(sub.choices) == ["invert", "check", "trees", "zfun", "verify-theorem1", "catalog"]
