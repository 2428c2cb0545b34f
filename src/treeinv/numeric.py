"""Floating-point checks of the convergence statement.

The tree expansion converges absolutely for ||y||_inf below
R = (d! / (2^d ||w||))^(1/(d-1)), and there the summed series satisfies
||G(y)||_inf <= ||y||_inf / (1 - ||y||_inf / R).  This module samples
points inside 0.9 R, evaluates the truncated inverse in doubles, and
reports residuals of F(G(y)) = y alongside the norm bound.

Floats are confined to this module; everything upstream is exact.
Summation orders are fixed (graded-lexicographic monomials, component
order) so repeated runs give bit-identical reports.

Every evaluation has one prepared form, read off packed Series parts
(H is the map's memoized Series; a Poly is packed at a cap of its total
degree first): a list of terms, each a coefficient as a double and the
power-table indices of its factors.  v / den is the correctly rounded
double of v/den, as float(Fraction(v, den)) is, and each degree is
ordered by monomial through a cached per-key slot, so the terms come in
graded-lex order.
At each point the table holds x_i ** e at index i * base + e, computed
once for every power some term reads; a term is its coefficient times
its table entries in increasing variable order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from treeinv.inversion import _truncated, inverse_series
from treeinv.poly import Monomial, Poly, Series, _unpack
from treeinv.tensormap import PolyMap, _h_series, norm_w


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


Terms = list[tuple[float, tuple[int, ...]]]


@lru_cache(maxsize=1 << 12)
def _slot(key: int, n: int, base: int) -> tuple[Monomial, tuple[int, ...]]:
    """The monomial of a packed key and its power-table indices in that base."""
    mono = _unpack(key, n, base)
    return mono, tuple([i * base + e for i, e in enumerate(mono) if e])


class _Evaluator:
    """Series of one dimension and one cap, prepared for evaluation in doubles at many points.

    ``terms[k]`` lists series k's terms in graded-lex order, read off its
    packed parts; ``powers`` names, as (index, variable, exponent), every
    table entry a term reads.
    """

    __slots__ = ("terms", "powers", "size")

    def __init__(self, ss: list[Series]):
        n, base = ss[0].n, ss[0].cap + 1
        self.terms: list[Terms] = []
        for s in ss:
            den, ts = s.den, []
            for comp in s.comps:
                # the monomials of one degree are distinct, so the sort compares only them
                slots = sorted([(_slot(k, n, base), v) for k, v in comp.items()])
                ts += [(v / den, idx) for (_, idx), v in slots]
            self.terms.append(ts)
        used = sorted({j for ts in self.terms for _, idx in ts for j in idx})
        self.powers = [(j, *divmod(j, base)) for j in used]
        self.size = n * base

    def __call__(self, point) -> list[float]:
        table = [0.0] * self.size
        for j, i, e in self.powers:
            table[j] = point[i] ** e
        out = []
        for ts in self.terms:
            total = 0.0
            for term, idx in ts:
                for j in idx:
                    term *= table[j]
                total += term
            out.append(total)
        return out


def eval_poly_numeric(p: Poly, point) -> float:
    """Double-precision value at point, summed in graded-lex order."""
    return eval_series_numeric(Series(p, max(0, p.total_degree())), point)


def eval_series_numeric(s: Series, point) -> float:
    """Double-precision value of the truncated series at point."""
    if len(point) != s.n:
        raise ValueError(f"point has {len(point)} coordinates, expected {s.n}")
    return _Evaluator([s])(point)[0]


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
    so the points stay finite.  A negative random_per_radius is refused.
    """
    if random_per_radius < 0:
        raise ValueError(f"random points per radius must be non-negative, got {random_per_radius}")
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

    Every point must be finite and satisfy ||y||_inf <= 0.9 R; anything
    else is rejected outright, since the truncation error is uncontrolled
    farther out and a nan coordinate would pass the radius test.  So
    are an empty point list and a tol that is negative or not finite.
    The residual is max_i |F_i(G_num(y)) - y_i| for the degree-D
    truncation G; the bound check allows tol of float slack.  A given G
    is truncated to degree D, and must reach it: a component whose cap
    is below D, or a G without exactly n components, raises ValueError.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    n = pmap.n
    R = convergence_radius(pmap)
    G = None if G is None else _truncated(pmap, G, D)
    # every point is checked before any series is made or evaluated
    checked = []
    for point in points:
        point = tuple(float(c) for c in point)
        if len(point) != n:
            raise ValueError(f"point {point} has wrong dimension, expected {n}")
        if not all(map(math.isfinite, point)):
            raise ValueError(f"point {point} has a coordinate that is not finite")
        r = max(abs(c) for c in point)
        if r > 0.9 * R:
            raise ValueError(
                f"point {point} has sup norm {r:.6g}, outside 0.9 R = {0.9 * R:.6g}; "
                "refusing to check a point without a convergence guarantee"
            )
        checked.append((point, r))
    if not checked:
        raise ValueError("no sample points to check")
    if G is None:
        G = inverse_series(pmap, D)
    # prepared once per call; each point sums in the same order as eval_poly_numeric
    G_at = _Evaluator(G)
    H_at = _Evaluator(_h_series(pmap))
    samples: list[SampleCheck] = []
    for point, r in checked:
        g_num = G_at(point)
        residual = 0.0
        for i, h in enumerate(H_at(g_num)):
            f_i = g_num[i] - h
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
