"""Floating-point checks of the convergence statement.

The tree expansion converges absolutely for ||y||_inf below
R = (d! / (2^d ||w||))^(1/(d-1)), and there the summed series satisfies
||G(y)||_inf <= ||y||_inf / (1 - ||y||_inf / R).  This module samples
points inside 0.9 R, evaluates the truncated inverse in doubles, and
reports residuals of F(G(y)) = y alongside the norm bound.

Floats are confined to this module; everything upstream is exact.
Summation orders are fixed (graded-lexicographic monomials, component
order) so repeated runs give bit-identical reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random

from treeinv.poly import Poly, Series, _grlex_key
from treeinv.tensormap import PolyMap, build_H, norm_w


def convergence_radius(pmap: PolyMap) -> float:
    """(d! / (2^d ||w||))^(1/(d-1)); infinity for the zero tensor.

    The exponent 1/(d-1) comes from solving the convergence condition
    2^d ||w|| ||y||^(d-1) / d! < 1 for ||y||.
    """
    w = norm_w(pmap)
    if w == 0:
        return math.inf
    d = pmap.d
    base = math.factorial(d) / (2**d * float(w))
    return base ** (1.0 / (d - 1))


def _graded_terms(p: Poly) -> list[tuple[float, tuple[tuple[int, int], ...]]]:
    """(coefficient as a double, its (variable, exponent > 0) pairs) in graded-lex order."""
    return [
        (float(coeff), tuple((i, e) for i, e in enumerate(mono) if e))
        for mono, coeff in sorted(p.terms.items(), key=_grlex_key)
    ]


def _eval_terms(terms: list[tuple[float, tuple[tuple[int, int], ...]]], point) -> float:
    total = 0.0
    for term, factors in terms:
        for i, e in factors:
            term *= point[i] ** e
        total += term
    return total


def eval_poly_numeric(p: Poly, point) -> float:
    """Double-precision value at point, summed in graded-lex order."""
    if len(point) != p.n:
        raise ValueError(f"point has {len(point)} coordinates, poly has {p.n}")
    return _eval_terms(_graded_terms(p), point)


def eval_series_numeric(s: Series, point) -> float:
    """Double-precision value of the truncated series at point."""
    return eval_poly_numeric(s.body, point)


@dataclass
class SampleCheck:
    """One sample point of a convergence check."""

    point: tuple[float, ...]
    values: tuple[float, ...]
    residual: float
    bound_ok: bool


@dataclass
class RadiusReport:
    """Numeric verification summary for one map."""

    norm_w: float
    radius: float
    tol: float
    samples: list[SampleCheck]

    @property
    def residuals_ok(self) -> bool:
        return all(s.residual <= self.tol for s in self.samples)

    @property
    def bounds_ok(self) -> bool:
        return all(s.bound_ok for s in self.samples)

    @property
    def passed(self) -> bool:
        return self.residuals_ok and self.bounds_ok


def default_sample_points(
    pmap: PolyMap, seed: int = 0, random_per_radius: int = 2
) -> list[tuple[float, ...]]:
    """Axis-aligned plus seeded random-direction points at {0.25, 0.5, 0.8} R.

    For the zero tensor the radius is infinite and the scale drops to 1
    so the points stay finite.
    """
    n = pmap.n
    R = convergence_radius(pmap)
    scale = 1.0 if math.isinf(R) else R
    rng = Random(seed)
    points: list[tuple[float, ...]] = []
    for f in (0.25, 0.5, 0.8):
        r = f * scale
        for i in range(n):
            axis = [0.0] * n
            axis[i] = r
            points.append(tuple(axis))
        for _ in range(random_per_radius):
            direction = [rng.uniform(-1.0, 1.0) for _ in range(n)]
            top = max(abs(u) for u in direction)
            if top == 0.0:
                direction = [1.0] * n
                top = 1.0
            points.append(tuple(r * u / top for u in direction))
    return points


def theorem1_check(
    pmap: PolyMap,
    D: int,
    points,
    tol: float = 1e-6,
    G: list[Series] | None = None,
) -> RadiusReport:
    """Residual and norm-bound check at each sample point.

    Every point must satisfy ||y||_inf <= 0.9 R; anything farther out is
    rejected outright since the truncation error is uncontrolled there.
    The residual is max_i |F_i(G_num(y)) - y_i| for the degree-D
    truncation G; the bound check allows tol of float slack.  A given G
    is truncated to degree D, and must reach it: a component whose cap
    is below D, or a G without exactly n components, raises ValueError.
    """
    from treeinv.inversion import fixed_point_inverse

    n = pmap.n
    R = convergence_radius(pmap)
    H = build_H(pmap)
    if G is None:
        G = fixed_point_inverse(pmap, D)
    elif len(G) != n:
        raise ValueError(f"expected {n} components, got {len(G)}")
    elif any(g.cap < D for g in G):
        raise ValueError(f"series caps {[g.cap for g in G]} below {D}")
    else:
        G = [g.truncate(D) for g in G]
    # sorted once per call; each point sums in the same order as eval_poly_numeric
    G_terms = [_graded_terms(g.body) for g in G]
    H_terms = [_graded_terms(h) for h in H]
    samples: list[SampleCheck] = []
    for point in points:
        point = tuple(float(c) for c in point)
        if len(point) != n:
            raise ValueError(f"point {point} has wrong dimension, expected {n}")
        r = max(abs(c) for c in point)
        if r > 0.9 * R:
            raise ValueError(
                f"point {point} has sup norm {r:.6g}, outside 0.9 R = {0.9 * R:.6g}; "
                "refusing to check a point without a convergence guarantee"
            )
        g_num = [_eval_terms(G_terms[i], point) for i in range(n)]
        residual = 0.0
        for i in range(n):
            f_i = g_num[i] - _eval_terms(H_terms[i], g_num)
            residual = max(residual, abs(f_i - point[i]))
        if math.isinf(R):
            bound_ok = True
        else:
            bound = r / (1.0 - r / R)
            bound_ok = max(abs(v) for v in g_num) <= bound + tol
        samples.append(
            SampleCheck(point=point, values=tuple(g_num), residual=residual, bound_ok=bound_ok)
        )
    return RadiusReport(norm_w=float(norm_w(pmap)), radius=R, tol=tol, samples=samples)
