"""Command-line front end.

Verbs: invert, check, trees, zfun, verify-theorem1, catalog.  Every verb
takes --json for a machine-readable report; exact rationals print as
p/q.  Exit codes: 0 success/verified, 1 a verification failed, 2 usage,
parse, or resource errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from treeinv.catalog import catalog as catalog_fixtures
from treeinv.catalog import get_fixture
from treeinv.errors import (
    BudgetExceededError,
    GuardExceededError,
    MapFormatError,
    PreconditionError,
)
from treeinv.inversion import (
    default_degree_cap,
    fixed_point_inverse,
    polynomial_inverse_degree,
    verify_inverse,
)
from treeinv.jacobian import analyze
from treeinv.mapfile import load_map, serialize_map
from treeinv.numeric import default_sample_points, theorem1_check
from treeinv.partition import check_self_normalization, partition_report, verify_z_identity
from treeinv.poly import Series, _grlex_key
from treeinv.trees import (
    DEFAULT_BUDGET,
    enumerate_trees,
    labeled_shape_census,
    tree_count,
    tree_sum_inverse,
)


def _frac_str(value) -> str:
    return f"{value.numerator}/{value.denominator}"


def _series_json(s: Series) -> list[dict]:
    items = sorted(s.body.terms.items(), key=_grlex_key)
    return [{"monomial": list(m), "coeff": _frac_str(c)} for m, c in items]


def _emit(args, payload: dict, lines: list[str]) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _cmd_invert(args) -> int:
    pmap = load_map(args.map)
    method = args.method
    D = args.degree if args.degree is not None else default_degree_cap(pmap)
    if args.degree is None and method != "fixedpoint":
        # the tree sums: the largest cap up to that one whose every stratum fits the budget
        while D > 1 and tree_count((D - 1) // (pmap.d - 1), pmap.d) > args.budget:
            D -= 1
    agreement = None
    if method == "trees":
        series = tree_sum_inverse(pmap, D, budget=args.budget)
    else:
        series = fixed_point_inverse(pmap, D)
    if method == "both":
        agreement = series == tree_sum_inverse(pmap, D, budget=args.budget)
    verified = verify_inverse(pmap, series, D)

    payload = {
        "map": pmap.name,
        "n": pmap.n,
        "d": pmap.d,
        "degree": D,
        "method": method,
        "series": [_series_json(s) for s in series],
        "verified": verified,
    }
    lines = [f"map {pmap.name}: n={pmap.n} d={pmap.d}, inverse to degree {D} ({method})"]
    for i, s in enumerate(series):
        lines.append(f"  G_{i + 1} = {s.to_string()}")
    if agreement is not None:
        payload["agreement"] = agreement
        lines.append(f"tree expansion agrees with fixed point: {agreement}")
    lines.append(f"inverse property F(G(y)) = y up to degree {D}: {verified}")
    _emit(args, payload, lines)
    return 0 if verified and agreement in (None, True) else 1


def _cmd_check(args) -> int:
    pmap = load_map(args.map)
    verdict = analyze(pmap)
    bound = pmap.gabber_bound()
    cap = default_degree_cap(pmap)  # max(10, bound + d) > bound, as the probe needs
    # no probe without a unit Jacobian: JF(G) JG = I would force det JF = 1
    if verdict.unit_jacobian:
        poly_deg = polynomial_inverse_degree(pmap, cap)
        poly_line = poly_deg if poly_deg is not None else f"not detected up to degree {cap}"
    else:
        poly_deg, poly_line = None, "none (Jacobian not unit)"
    payload = {
        "map": pmap.name,
        "n": pmap.n,
        "d": pmap.d,
        "unit_jacobian": verdict.unit_jacobian,
        "nilpotency_order": verdict.nilpotency_order,
        "traces_vanish": verdict.traces_vanish,
        "gabber_bound": bound,
        "polynomial_inverse_degree": poly_deg,
    }
    lines = [
        f"map {pmap.name}: n={pmap.n} d={pmap.d}",
        f"  unit_jacobian   = {str(verdict.unit_jacobian).lower()}",
        f"  nilpotency      = {verdict.nilpotency_order if verdict.nilpotency_order is not None else 'none'}",
        f"  traces_vanish   = {str(verdict.traces_vanish).lower()}",
        f"  gabber_bound    = {bound}",
        f"  poly_inverse    = {poly_line}",
    ]
    _emit(args, payload, lines)
    return 0


def _cmd_trees(args) -> int:
    V, d = args.internal, args.d
    count = tree_count(V, d)
    N = (d - 1) * V + 1
    payload = {"d": d, "internal": V, "leaves": N, "count": count}
    lines = [f"V={V} internal vertices, d={d}: N={N} leaves, {count} labeled trees"]
    if args.enumerate:
        seen = 0
        for _tree in enumerate_trees(V, d, budget=args.budget):
            seen += 1
        shapes = len(labeled_shape_census(V, d))
        payload["enumerated"] = seen
        payload["shapes"] = shapes
        lines.append(f"enumerated {seen} trees across {shapes} rooted shapes")
        if seen != count:
            lines.append("MISMATCH against the count formula")
            _emit(args, payload, lines)
            return 1
    _emit(args, payload, lines)
    return 0


def _cmd_zfun(args) -> int:
    pmap = load_map(args.map)
    D = args.degree if args.degree is not None else default_degree_cap(pmap)
    report = partition_report(pmap, D)
    identity = verify_z_identity(pmap, D)
    verdict = analyze(pmap)
    self_norm = None
    if verdict.unit_jacobian:
        self_norm = check_self_normalization(pmap, D)
    payload = {
        "map": pmap.name,
        "degree": D,
        "log_z": _series_json(report.log_z),
        "z": _series_json(report.z),
        "z_identity": identity,
        "self_normalized": self_norm,
    }
    lines = [
        f"map {pmap.name}: partition series to degree {D}",
        f"  log Z = {report.log_z.to_string()}",
        f"  Z     = {report.z.to_string()}",
        f"  Z * JF(G(y)) = 1: {identity}",
    ]
    if self_norm is not None:
        lines.append(f"  self-normalized (Z = 1 under unit Jacobian): {self_norm}")
    _emit(args, payload, lines)
    ok = identity and self_norm in (None, True)
    return 0 if ok else 1


def _cmd_verify_theorem1(args) -> int:
    pmap = load_map(args.map)
    D = args.degree if args.degree is not None else 40
    points = default_sample_points(pmap, seed=args.seed, random_per_radius=args.samples)
    report = theorem1_check(pmap, D, points, tol=args.tol)
    radius = report.radius
    payload = {
        "map": pmap.name,
        "degree": D,
        "norm_w": report.norm_w,
        "radius": "inf" if math.isinf(radius) else radius,
        "tol": report.tol,
        "samples": [
            {
                "point": list(s.point),
                "values": list(s.values),
                "residual": s.residual,
                "bound_ok": s.bound_ok,
            }
            for s in report.samples
        ],
        "passed": report.passed,
    }
    lines = [
        f"map {pmap.name}: ||w|| = {report.norm_w:g}, radius R = "
        + ("inf" if math.isinf(radius) else f"{radius:.9g}"),
        f"degree {D} truncation, tolerance {report.tol:g}",
        f"{'point':<40} {'residual':>12}  bound",
    ]
    for s in report.samples:
        pt = "(" + ", ".join(f"{c:.6g}" for c in s.point) + ")"
        lines.append(f"{pt:<40} {s.residual:>12.3e}  {'ok' if s.bound_ok else 'VIOLATED'}")
    lines.append(f"overall: {'pass' if report.passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _cmd_catalog(args) -> int:
    if args.name is None:
        fixtures = catalog_fixtures()
        payload = {
            "fixtures": [{"name": m.name, "n": m.n, "d": m.d} for m in fixtures]
        }
        lines = [f"{m.name:<18} n={m.n} d={m.d}" for m in fixtures]
        _emit(args, payload, lines)
        return 0
    pmap = get_fixture(args.name)
    text = serialize_map(pmap)
    if args.json:
        print(json.dumps({"name": pmap.name, "n": pmap.n, "d": pmap.d, "text": text}, indent=2))
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treeinv",
        description="Exact inversion of polynomial maps x - H(x) by tree expansion.",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_common(p, with_map=True):
        if with_map:
            p.add_argument("--map", required=True, help="map file path")
        p.add_argument("--json", action="store_true", help="machine-readable output")

    p = sub.add_parser("invert", help="compute the formal inverse series")
    add_common(p)
    p.add_argument("--degree", type=int, default=None, help="truncation degree")
    p.add_argument(
        "--method",
        choices=("fixedpoint", "trees", "both"),
        default="fixedpoint",
        help="graded fixed point, tree expansion, or cross-checked both",
    )
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max labeled trees per stratum")
    p.set_defaults(func=_cmd_invert)

    p = sub.add_parser("check", help="Jacobian condition and inverse degree report")
    add_common(p)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("trees", help="tree counts per stratum")
    add_common(p, with_map=False)
    p.add_argument("--d", type=int, required=True, help="vertex arity d")
    p.add_argument("--internal", type=int, required=True, help="internal vertex count V")
    p.add_argument("--enumerate", action="store_true", help="stream and validate all trees")
    p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                   help="max labeled trees per stratum")
    p.set_defaults(func=_cmd_trees)

    p = sub.add_parser("zfun", help="partition-function series and identities")
    add_common(p)
    p.add_argument("--degree", type=int, default=None, help="truncation degree")
    p.set_defaults(func=_cmd_zfun)

    p = sub.add_parser("verify-theorem1", help="numeric convergence check")
    add_common(p)
    p.add_argument("--degree", type=int, default=None, help="truncation degree (default 40)")
    p.add_argument("--samples", type=int, default=2, help="random points per radius")
    p.add_argument("--tol", type=float, default=1e-6, help="residual tolerance")
    p.add_argument("--seed", type=int, default=0, help="sample-point seed")
    p.set_defaults(func=_cmd_verify_theorem1)

    p = sub.add_parser("catalog", help="list built-in fixtures or emit one")
    p.add_argument("--name", default=None, help="fixture to emit as a map file")
    p.add_argument("--json", action="store_true", help="machine-readable output")
    p.set_defaults(func=_cmd_catalog)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (
        MapFormatError,
        BudgetExceededError,
        GuardExceededError,
        PreconditionError,
        OSError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
