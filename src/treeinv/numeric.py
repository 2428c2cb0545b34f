"""Floating-point checks of the convergence statement.

The tree expansion converges absolutely for ||y||_inf below
R = (d! / (2^d ||w||))^(1/(d-1)), and there the summed series satisfies
||G(y)||_inf <= ||y||_inf / (1 - ||y||_inf / R).  This module samples
points inside 0.9 R, evaluates the truncated inverse in doubles, and
reports residuals of F(G(y)) = y alongside the norm bound.

Floats are confined to this module; everything upstream is exact.
Summation orders are fixed (graded-lexicographic monomials, component
order) so repeated runs give bit-identical reports.

Every evaluation reads packed Series parts (H is the map's memoized
Series; a Poly is packed at a cap of its total degree first).  A
coefficient is v / den, the correctly rounded double of v/den, as
float(Fraction(v, den)) is.  Terms come in graded-lex order, and a term
is its coefficient times x_i ** e for each factor in increasing variable
order, each power computed once per point; a sum starts at +0.0 and adds
its terms in that order.

Each structure, (n, cap, poly._shadow of each series), has one prepared
form: its terms sorted once, a dense degree standing for every monomial
of it, so a coefficient that cancels on one map makes no new structure.
From the structure's second sighting on (plan.PlanCache's policy, in
``EVALUATORS``), its terms run as straight-line Python built with
compile(), one statement per term, with one variant per pattern of
coordinates that are exactly 0.0, which leaves out every term reading
one.  Both keep the summation order, so every value is the same double.
A first sighting, a structure past ``TERMS``, and a point where the
compiled code could differ (a coordinate that is not finite or so large
that a term left out could have overflowed, or a power that only the
dense shadow reads overflowing) take the interpreted loop over the
series' own terms.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache
from random import Random

from treeinv.inversion import _truncated, inverse_series
from treeinv.plan import PlanCache, TooLarge, _ints_nbytes
from treeinv.poly import Monomial, Poly, Series, _shadow, _spelled, _unpack
from treeinv.tensormap import PolyMap, _h_series, norm_w


def convergence_radius(pmap: PolyMap) -> float:
    """(d! / (2^d ||w||))^(1/(d-1)); infinity for the zero tensor.

    The exponent 1/(d-1) comes from solving the convergence condition
    2^d ||w|| ||y||^(d-1) / d! < 1 for ||y||.  A map whose ||w|| or
    radius a double cannot hold raises ValueError.
    """
    w = norm_w(pmap)
    if w == 0:
        return math.inf
    try:
        w_float = float(w)
    except OverflowError:
        w_float = math.inf
    if not 0.0 < w_float < math.inf:
        raise ValueError("||w|| is outside the range of a double")
    d = pmap.d
    try:
        radius = (math.factorial(d) / (2**d * w_float)) ** (1.0 / (d - 1))
    except OverflowError:
        # d! leaves the range of a double past d = 170; math.log takes ints of any size
        radius = math.exp((math.log(math.factorial(d)) - math.log(2**d) - math.log(w_float)) / (d - 1))
    if not 0.0 < radius < math.inf:
        raise ValueError("the convergence radius is outside the range of a double")
    return radius


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
    table entry a term reads.  This is the interpreted route, taken on a
    structure's first sighting and wherever a compiled one could differ.
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


# Terms past which a structure is not compiled: about 0.9 MB for its
# slot dicts and one variant, at the 220 bytes a term takes (nbytes).
TERMS = 1 << 12
# The structures held, within 4 MB of nbytes in all: code, slot dicts
# and term lists, the least recently used dropped first.
EVALUATORS = PlanCache(TERMS, 1 << 22)
# Partial products below this never overflow: 2^24 below the largest double.
_SAFE = 2.0**1000
_is_zero = (0.0).__eq__


class _Structure:
    """One structure's terms, sorted once, and its compiled code, one variant per pattern of zero coordinates.

    The structure is (n, cap, poly._shadow of each series): a dense
    degree stands for every monomial of it, a sparse one for its own
    keys.  Term p reads C[p], the coefficient that bind() puts there
    (0.0 for a key the series lacks), times its power-table entries
    idx[p] in increasing variable order, so each term is the
    interpreted route's product and each sum adds its terms in the
    interpreted route's order.  ``slots[k]`` maps each key of series k
    to its term, ``ends[k]`` is the end of series k's terms.  ``nbytes``
    counts the term list, the slot dicts with their ints, and each
    variant's function, code object, constants and line table.
    """

    __slots__ = ("key", "n", "base", "idx", "slots", "ends", "degree", "variants", "nbytes")

    def __init__(self, key, limit: int):
        n, cap, shadows = key
        base = cap + 1
        spelled = [_spelled(n, base, shadow) for shadow in shadows]
        if sum(len(keys) for by_degree in spelled for keys in by_degree.values()) > limit:
            raise TooLarge
        self.key, self.n, self.base = key, n, base
        self.idx: list[tuple[int, ...]] = []
        self.slots: list[dict[int, int]] = []
        self.ends: list[int] = []
        for by_degree in spelled:
            slots = {}
            for keys in by_degree.values():
                for k, (_, idx) in sorted([(k, _slot(k, n, base)) for k in keys], key=lambda ks: ks[1]):
                    slots[k] = len(self.idx)
                    self.idx.append(idx)
            self.slots.append(slots)
            self.ends.append(len(self.idx))
        self.degree = max([k for shadow in shadows for k, _ in shadow], default=0)
        self.variants: dict[tuple[bool, ...], object] = {}
        self.nbytes = sys.getsizeof(self.idx) + sum(map(_ints_nbytes, self.slots))

    def bind(self, ss: list[Series]):
        """An evaluator of ss, which has this structure."""
        C = [0.0] * len(self.idx)
        for s, slots in zip(ss, self.slots):
            den = s.den
            for comp in s.comps:
                for k, v in comp.items():
                    C[slots[k]] = v / den
        # with every |x_i| <= safe, each partial product of a term stays within _SAFE
        top = max(map(abs, C), default=0.0)
        if top > _SAFE:
            safe = -1.0
        elif top == 0.0 or self.degree == 0:
            safe = math.inf
        else:
            safe = (_SAFE / top) ** (1.0 / self.degree)
        interpreted = None

        def evaluate(point) -> list[float]:
            nonlocal interpreted
            # false for a coordinate that is inf or nan, or one so large
            # that a term left out below could have reached inf first
            if sum(map(abs, point)) <= safe:
                zero = tuple(map(_is_zero, point))
                code = self.variants.get(zero) or self._compile(zero)
                try:
                    return code(C, *point)
                except OverflowError:  # perhaps a power only the dense shadow reads
                    pass
            if interpreted is None:
                interpreted = _Evaluator(ss)
            return interpreted(point)

        return evaluate

    def _compile(self, zero: tuple[bool, ...]):
        """The code for points whose coordinates are 0.0 exactly where zero says.

        A term that reads such a coordinate is ±0.0 there, unless its
        product met an inf first (bind's bound rules that out), and a sum
        that starts at +0.0 is never -0.0, so adding ±0.0 changes nothing:
        the term is left out.
        """
        base, names = self.base, {}
        keep = [not any(zero[j // base] for j in idx) for idx in self.idx]
        lines = [f"def f(C, {', '.join(f'x{i}' for i in range(self.n))}):"]
        for j in sorted({j for idx, kept in zip(self.idx, keep) if kept for j in idx}):
            i, e = divmod(j, base)
            names[j] = f"x{i}" if e == 1 else f"x{i}_{e}"
            if e > 1:
                lines.append(f" {names[j]} = x{i} ** {e}")
        start = 0
        for k, end in enumerate(self.ends):
            lines.append(f" t{k} = 0.0")
            lines += [f" t{k} += C[{p}]" + "".join([f" * {names[j]}" for j in self.idx[p]])
                      for p in range(start, end) if keep[p]]
            start = end
        lines.append(f" return [{', '.join(f't{k}' for k in range(len(self.ends)))}]")
        namespace: dict = {}
        exec(compile("\n".join(lines), "<treeinv.numeric>", "exec"), namespace)
        code = self.variants[zero] = namespace["f"]
        grown = sys.getsizeof(code) + sys.getsizeof(namespace) + _code_nbytes(code.__code__) + sys.getsizeof(zero)
        self.nbytes += grown
        EVALUATORS.grew(self.key, self, grown)
        return code


def _code_nbytes(code) -> int:
    """A code object's bytes: itself (from Python 3.11 on its bytecode too), its constants and its line table."""
    held = sys.getsizeof(code) + sys.getsizeof(code.co_consts) + sys.getsizeof(code.co_linetable)
    if sys.version_info < (3, 11):
        held += sys.getsizeof(code.co_code)
    return held + sum(map(sys.getsizeof, code.co_consts))


def _evaluator(ss: list[Series]):
    """Evaluator of ss in doubles: compiled from the structure's second sighting on, else interpreted."""
    n, cap = ss[0].n, ss[0].cap
    key = (n, cap, tuple([_shadow(n, s.comps) for s in ss]))
    structure = EVALUATORS.get(key, lambda limit: _Structure(key, limit))
    return _bound(_Evaluator if structure is None else structure.bind, ss)


def _bound(build, ss: list[Series]):
    """build(ss), with a series coefficient that a double cannot hold refused by ValueError."""
    try:
        return build(ss)
    except OverflowError:
        raise ValueError("a series coefficient is outside the range of a double") from None


def eval_poly_numeric(p: Poly, point) -> float:
    """Double-precision value at point, summed in graded-lex order."""
    return eval_series_numeric(Series(p, max(0, p.total_degree())), point)


def eval_series_numeric(s: Series, point) -> float:
    """Double-precision value of the truncated series at point."""
    if len(point) != s.n:
        raise ValueError(f"point has {len(point)} coordinates, expected {s.n}")
    if all(type(c) is float for c in point):
        return _evaluator([s])(point)[0]
    # any other coordinate (an int's powers are exact ints) takes the interpreted loop
    return _bound(_Evaluator, [s])(point)[0]


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
        r = max(map(abs, point))
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
    # each point sums in the same order as eval_poly_numeric
    G_at = _evaluator(G)
    H_at = _evaluator(_h_series(pmap))
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
            bound_ok = max(map(abs, g_num)) <= bound + tol
        samples.append(
            SampleCheck(point=point, values=tuple(g_num), residual=residual, bound_ok=bound_ok)
        )
    return RadiusReport(norm_w=float(norm_w(pmap)), radius=R, tol=tol, samples=samples)
