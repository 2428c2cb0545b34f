"""The public names and CLI verbs that callers and scripts rely on."""

from __future__ import annotations

import argparse
import dataclasses

import pytest

import treeinv
from treeinv.cli import build_parser
from treeinv.numeric import SampleCheck

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


PUBLIC_METHODS = {
    "Poly": [
        "coefficient", "const", "constant_term", "diff", "eval_fraction",
        "homogeneous_component", "is_homogeneous", "is_zero", "monomial", "n", "scale",
        "terms", "to_string", "total_degree", "truncate", "variable", "zero",
    ],
    "Series": [
        "body", "cap", "coefficient", "comps", "den", "homogeneous_component", "is_zero", "n",
        "one", "scale", "to_string", "truncate", "variable", "zero",
    ],
    "PolyMatrix": ["det", "dim", "entries", "identity", "is_zero", "n", "power", "trace", "zero"],
    "PolyMap": ["d", "gabber_bound", "n", "name", "tensor"],
    "SymTensor": ["d", "entries", "get", "is_zero", "n"],
    "ValencedTree": ["edges", "from_parents", "rooted", "validate", "vertices"],
    "VertexSet": ["N", "V", "d", "for_internal", "total"],
    "InverseReport": [],
    "JacobianVerdict": [],
    "PartitionReport": [],
    "RadiusReport": ["bounds_ok", "passed", "residuals_ok"],
    "SampleCheck": [],
}

REPORT_FIELDS = {
    "InverseReport": ["series", "verified_to", "polynomial_degree", "gabber_bound"],
    "JacobianVerdict": ["unit_jacobian", "nilpotency_order", "traces_vanish"],
    "PartitionReport": ["log_z", "z", "self_normalized"],
    "RadiusReport": ["norm_w", "radius", "tol", "samples"],
    "SampleCheck": ["point", "values", "residual", "bound_ok"],
}


def _class(name: str) -> type:
    return SampleCheck if name == "SampleCheck" else getattr(treeinv, name)


@pytest.mark.parametrize("name", sorted(PUBLIC_METHODS))
def test_public_class_members_are_pinned(name):
    assert sorted(n for n in dir(_class(name)) if not n.startswith("_")) == PUBLIC_METHODS[name]


@pytest.mark.parametrize("name", sorted(REPORT_FIELDS))
def test_report_fields_are_pinned(name):
    assert [f.name for f in dataclasses.fields(_class(name))] == REPORT_FIELDS[name]
