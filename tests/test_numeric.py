"""Floating-point checks of convergence radius, truncated evaluation, and the norm bound."""

from __future__ import annotations

import math
import random
import re
import struct
from fractions import Fraction
from math import factorial

import pytest

from treeinv import numeric
from treeinv.catalog import catalog, get_fixture, random_map, univariate_map
from treeinv.inversion import fixed_point_inverse
from treeinv.numeric import (
    RadiusReport,
    SampleCheck,
    convergence_radius,
    default_sample_points,
    eval_poly_numeric,
    eval_series_numeric,
    theorem1_check,
)
from treeinv.poly import Poly, Series
from treeinv.tensormap import PolyMap, SymTensor, build_H, norm_w
from treeinv.trees import tree_count


def _half_square_series(cap: int) -> Series:
    return Series(Poly.variable(1, 0) + Poly.monomial((2,), Fraction(1, 2)), cap)


def test_radius_pinned_values():
    assert convergence_radius(univariate_map(2, 1)) == pytest.approx(0.5)
    assert convergence_radius(PolyMap(SymTensor(2, 2))) == math.inf
    assert convergence_radius(get_fixture("univar-3")) == pytest.approx(math.sqrt(6 / 48))


def test_radius_past_the_factorials_a_double_holds():
    # 200! leaves the range of a double, the radius (200! / 2^200)^(1/199) does not
    def radius(d: int, w=1) -> float:
        return convergence_radius(PolyMap(SymTensor(1, d, {(0, (0,) * d): w})))

    assert radius(200) == pytest.approx(38.138293253282, rel=1e-12)
    points = default_sample_points(PolyMap(SymTensor(1, 200, {(0, (0,) * 200): 1})))
    assert points and all(0 < abs(x) < radius(200) for (x,) in points)
    # up to d = 170 the radius is the direct expression's, bit for bit
    assert radius(170).hex() == "0x1.04a1114855bb6p+5"
    assert radius(170, Fraction(3, 7)).hex() == "0x1.05f06b8518e2dp+5"
    assert radius(5, Fraction(2, 3)).hex() == "0x1.8a3fbe42b030cp+0"
    # past d = 170, a ||w|| a double cannot hold is still refused
    with pytest.raises(ValueError, match=re.escape("||w||")):
        radius(200, 10**400)


def test_radius_quadratic_scaling():
    # d=2: radius = 1/‖w‖ up to the constant 2!/2² = 1/2
    assert convergence_radius(univariate_map(2, 4)) == pytest.approx(0.125)


def test_eval_pinned_values():
    s = _half_square_series(3)
    assert eval_series_numeric(s, [0.0]) == 0.0
    assert eval_series_numeric(s, [0.4]) == pytest.approx(0.48)
    prod = Poly.monomial((1, 1))
    assert eval_poly_numeric(prod, [2.0, 3.0]) == 6.0


def test_eval_dimension_check():
    with pytest.raises(ValueError):
        eval_poly_numeric(Poly.variable(2, 0), [1.0])


def test_theorem1_univar2_pinned():
    report = theorem1_check(univariate_map(2, 1), 40, [[0.4]], tol=1e-6)
    assert report.radius == pytest.approx(0.5)
    assert report.passed
    (sample,) = report.samples
    g_num = sample.values[0]
    assert abs(g_num - (1 - math.sqrt(0.2))) <= 1e-6
    assert sample.residual <= 1e-6
    assert abs(g_num) <= 0.4 / (1 - 0.4 / 0.5) + 1e-6  # bound value 2.0


def test_theorem1_at_origin():
    report = theorem1_check(univariate_map(2, 1), 10, [[0.0]], tol=1e-12)
    (sample,) = report.samples
    assert sample.values[0] == 0.0
    assert sample.residual == 0.0


def _bisect_root(f, lo: float, hi: float) -> float:
    for _ in range(200):
        mid = (lo + hi) / 2
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def test_theorem1_univar3_against_root_oracle():
    # w = 6 means F(x) = x - x^3; invert numerically at y = 0.3
    pmap = get_fixture("univar-3")
    report = theorem1_check(pmap, 41, [[0.3]], tol=1e-6)
    assert report.passed
    (sample,) = report.samples
    root = _bisect_root(lambda x: x - x**3 - 0.3, 0.0, 0.45)
    assert abs(sample.values[0] - root) <= 1e-6


def test_theorem1_truncates_given_G_to_D():
    pmap = univariate_map(2, 1)
    G20 = fixed_point_inverse(pmap, 20)
    got = theorem1_check(pmap, 5, [[0.4]], G=G20)
    assert got == theorem1_check(pmap, 5, [[0.4]])
    assert got == theorem1_check(pmap, 5, [[0.4]], G=fixed_point_inverse(pmap, 5))
    # the degree-5 truncation, not the cap-20 series, sets the residual
    assert got.samples[0].residual > 1e-3


def test_theorem1_rejects_G_below_D_or_of_wrong_length():
    pmap = univariate_map(2, 1)
    with pytest.raises(ValueError, match="below 20"):
        theorem1_check(pmap, 20, [[0.4]], G=fixed_point_inverse(pmap, 3))
    pmap = get_fixture("triangular-2-2")
    G = fixed_point_inverse(pmap, 5)
    for wrong in (G[:1], G + G):
        with pytest.raises(ValueError, match="components"):
            theorem1_check(pmap, 5, [[0.01, 0.01]], G=wrong)


def test_theorem1_rejects_point_outside_radius():
    with pytest.raises(ValueError, match="0.9"):
        theorem1_check(univariate_map(2, 1), 10, [[0.46]])


def test_theorem1_rejects_non_finite_point():
    # nan passes a radius test (nan > x is False) and max(0.0, nan) is 0.0,
    # so an unchecked nan coordinate would report residual 0.0
    for pmap in (get_fixture("random-2-2"), PolyMap(SymTensor(2, 2))):
        for bad in (math.nan, math.inf, -math.inf):
            for coord in (0, 1):
                point = [0.0, 0.0]
                point[coord] = bad
                with pytest.raises(ValueError, match="finite"):
                    theorem1_check(pmap, 6, [[0.01, 0.01], point])


def test_theorem1_rejects_an_empty_point_list():
    # with no samples every "all" holds, so the report would pass having checked nothing
    with pytest.raises(ValueError, match="no sample points"):
        theorem1_check(univariate_map(2, 1), 10, [])
    with pytest.raises(ValueError, match="no sample points"):
        theorem1_check(univariate_map(2, 1), 10, iter([]))


def test_theorem1_checks_every_point_before_any_series_is_made(monkeypatch):
    # r32 at D = 30 spends seconds in the fixed point; a refusal must not wait for it
    def refuse(*args):
        raise AssertionError("inverse_series ran before the points were checked")

    monkeypatch.setattr(numeric, "inverse_series", refuse)
    pmap = random_map(3, 2, seed=1)
    R = convergence_radius(pmap)
    good = [0.1 * R, 0.0, -0.1 * R]
    for points, match in (
        ([], "no sample points"),
        (iter([]), "no sample points"),
        ([good, [0.0, 0.0]], "wrong dimension"),
        ([good, [0.0, math.nan, 0.0]], "finite"),
        ([good, [0.0, 0.0, -0.95 * R]], "0.9"),
    ):
        with pytest.raises(ValueError, match=match):
            theorem1_check(pmap, 30, points)


@pytest.mark.parametrize("tol", [-1.0, -1e-300, math.inf, -math.inf, math.nan])
def test_theorem1_rejects_a_tolerance_it_cannot_judge_by(tol):
    # inf would pass every residual; a negative or nan tol would fail every one
    with pytest.raises(ValueError, match="tolerance"):
        theorem1_check(univariate_map(2, 1), 10, [[0.4]], tol=tol)


def test_theorem1_takes_a_zero_tolerance():
    assert theorem1_check(univariate_map(2, 1), 10, [[0.0]], tol=0).passed


def test_default_sample_points_rejects_negative_random_count():
    pmap = get_fixture("random-2-2")
    with pytest.raises(ValueError, match="non-negative"):
        default_sample_points(pmap, random_per_radius=-1)
    assert len(default_sample_points(pmap, random_per_radius=0)) == 3 * pmap.n


def test_residual_improves_with_truncation_degree():
    for pmap in [univariate_map(2, 1), get_fixture("univar-3")]:
        r = 0.5 * convergence_radius(pmap)
        point = [r] * pmap.n
        prev = None
        for D in (10, 10 + (pmap.d - 1), 10 + 2 * (pmap.d - 1)):
            rep = theorem1_check(pmap, D, [point], tol=1.0)
            residual = rep.samples[0].residual
            if prev is not None:
                assert residual <= prev + 1e-12
            prev = residual


def test_proof_majorant_termwise():
    # stratum weight count/(V!N!)·‖w‖^V·y^N stays under y·(2^d ‖w‖ y^(d-1)/d!)^V
    for pmap in [univariate_map(2, 1), get_fixture("univar-3"), get_fixture("random-2-2")]:
        w = norm_w(pmap)
        d = pmap.d
        y = Fraction(9, 10) * Fraction(convergence_radius(pmap)).limit_denominator(10**6)
        for V in range(11):
            N = (d - 1) * V + 1
            lhs = Fraction(tree_count(V, d), factorial(V) * factorial(N)) * w**V * y**N
            rhs = y * (Fraction(2**d) * w * y ** (d - 1) / factorial(d)) ** V
            assert lhs <= rhs, (pmap.name, V)


def test_default_sample_points_within_radius_and_bound_holds():
    for pmap in catalog():
        radius = convergence_radius(pmap)
        points = default_sample_points(pmap, seed=0)
        assert points
        for pt in points:
            assert max(abs(c) for c in pt) <= 0.9 * radius
        report = theorem1_check(pmap, 12 if pmap.d == 2 else 13, points, tol=1e-2)
        assert report.bounds_ok, pmap.name


def _eval_sorting_per_point(p: Poly, point) -> float:
    """The evaluator theorem1_check used to call: sorts p at every point."""
    total = 0.0
    for mono, coeff in sorted(p.terms.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        term = float(coeff)
        for x, e in zip(point, mono):
            if e:
                term *= x**e
        total += term
    return total


def _per_point_report(pmap, D, points, tol):
    """theorem1_check's report, with every polynomial sorted again at each point."""
    G = fixed_point_inverse(pmap, D)
    H = build_H(pmap)
    R = convergence_radius(pmap)
    samples = []
    for point in points:
        point = tuple(float(c) for c in point)
        r = max(abs(c) for c in point)
        g_num = [_eval_sorting_per_point(g.body, point) for g in G]
        residual = 0.0
        for i in range(pmap.n):
            residual = max(residual, abs(g_num[i] - _eval_sorting_per_point(H[i], g_num) - point[i]))
        bound_ok = math.isinf(R) or max(abs(v) for v in g_num) <= r / (1.0 - r / R) + tol
        samples.append(SampleCheck(point, tuple(g_num), residual, bound_ok))
    return RadiusReport(norm_w=float(norm_w(pmap)), radius=R, tol=tol, samples=samples)


@pytest.mark.parametrize("pmap", catalog(), ids=lambda p: p.name)
def test_theorem1_report_bit_identical_to_per_point_path(pmap):
    D = 12 if pmap.d == 2 else 13
    points = default_sample_points(pmap, seed=3)
    assert theorem1_check(pmap, D, points, tol=1e-2) == _per_point_report(pmap, D, points, 1e-2)


def _scaled_random_map(n: int, d: int, seed: int, scale: int) -> PolyMap:
    entries = {key: v * scale for key, v in random_map(n, d, seed=seed).tensor.entries.items()}
    return PolyMap(SymTensor(n, d, entries), name=f"scaled-{n}-{d}")


@pytest.mark.parametrize("seed", [21, 22])
def test_theorem1_report_bit_identical_on_a_benchmark_shaped_map(seed):
    # dense n=4, d=3 with the tensor scaled by 10^6, D=5, G handed in at a larger cap
    pmap = _scaled_random_map(4, 3, seed, 10**6)
    points = default_sample_points(pmap, seed=seed)
    want = _per_point_report(pmap, 5, points, 1e-6)
    assert theorem1_check(pmap, 5, points, tol=1e-6, G=fixed_point_inverse(pmap, 7)) == want
    assert theorem1_check(pmap, 5, points, tol=1e-6) == want


def test_eval_poly_numeric_matches_sorting_per_point_evaluator():
    rng = random.Random(23)
    for n in range(1, 5):
        for _ in range(20):
            terms = {}
            for _ in range(rng.randint(0, 12)):
                mono = tuple(rng.randint(0, 5) for _ in range(n))
                terms[mono] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            p = Poly(n, terms)
            point = [rng.uniform(-1.5, 1.5) for _ in range(n)]
            assert eval_poly_numeric(p, point) == _eval_sorting_per_point(p, point)
            s = Series(p, 7)
            assert eval_series_numeric(s, point) == _eval_sorting_per_point(s.body, point)


def test_eval_series_numeric_at_int_and_fraction_coordinates_matches_sorting_per_point():
    # any coordinate that is not a float takes the interpreted loop, and no structure is seen
    numeric.EVALUATORS.clear()
    rng = random.Random(29)
    cases = 0
    for n in range(1, 5):
        for _ in range(45):
            terms = {}
            for _ in range(rng.randint(0, 12)):
                mono = tuple(rng.randint(0, 4) for _ in range(n))
                terms[mono] = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**4))
            s = Series(Poly(n, terms), 7)
            ints = [rng.randint(-3, 3) for _ in range(n)]
            fractions = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            mixed = [rng.uniform(-1.5, 1.5) if i % 2 else Fraction(rng.randint(-9, 9), 7) for i in range(n)]
            for point in (ints, fractions, mixed):
                assert _bits([eval_series_numeric(s, point)]) == _bits([_eval_sorting_per_point(s.body, point)])
                cases += 1
    assert cases == 540
    assert not numeric.EVALUATORS.plans and not numeric.EVALUATORS.marks


def test_a_coefficient_outside_the_range_of_a_double_is_refused_at_every_coordinate_type():
    s = Series(Poly(1, {(1,): Fraction(10**400)}), 2)
    numeric.EVALUATORS.clear()
    for point in ([1], [Fraction(1)]):
        with pytest.raises(ValueError, match="series coefficient"):
            eval_series_numeric(s, point)
    assert not numeric.EVALUATORS.plans and not numeric.EVALUATORS.marks
    # a first sighting and a compiled one
    for _ in range(2):
        with pytest.raises(ValueError, match="series coefficient"):
            eval_series_numeric(s, [1.0])
    numeric.EVALUATORS.clear()


# w_{1;1,1} of univariate_map(2, w) and the quantity a double cannot hold:
# ||w|| itself, the radius 1 / (2 ||w||), or G's degree-3 coefficient 2 w^2
OUT_OF_RANGE = [
    (10**400, "||w||"),
    (Fraction(1, 10**400), "||w||"),
    (Fraction(1, 10**310), "radius"),
    (10**200, "series coefficient"),
]


@pytest.mark.parametrize("w, quantity", OUT_OF_RANGE, ids=["w=1e400", "w=1e-400", "w=1e-310", "w=1e200"])
def test_a_map_outside_the_range_of_a_double_is_refused_before_any_point(monkeypatch, w, quantity):
    evaluated = []
    call = numeric._Evaluator.__call__
    monkeypatch.setattr(numeric._Evaluator, "__call__", lambda *args: evaluated.append(args) or call(*args))
    numeric.EVALUATORS.clear()
    # a first sighting and a compiled one
    for _ in range(2):
        with pytest.raises(ValueError, match=re.escape(quantity)):
            theorem1_check(univariate_map(2, w), 3, [(0.0,)])
    assert not evaluated
    if quantity != "series coefficient":
        with pytest.raises(ValueError, match=re.escape(quantity)):
            default_sample_points(univariate_map(2, w))
    numeric.EVALUATORS.clear()


def test_eval_reads_only_the_powers_its_terms_use():
    # x2^2 at 1e200 would overflow; a polynomial in which x2 has degree 1 never forms it
    p = Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    assert eval_poly_numeric(p, [1.0, 1e200]) == 1e200 + 1.0
    assert eval_series_numeric(Series(p, 4), [1.0, 1e200]) == 1e200 + 1.0


# -- the compiled evaluator ----------------------------------------------------


def _bits(values) -> list[bytes]:
    """Each double's bytes, so that -0.0 differs from 0.0 and nan equals itself."""
    return [struct.pack("<d", v) for v in values]


def _routes(ss: list[Series], points) -> None:
    """ss at points on a first sighting, on the compiling call and warm: each equal, bit for bit,
    to the interpreted evaluator and to the evaluator that sorts at every point."""
    numeric.EVALUATORS.clear()
    for sighting in ("first", "compiling", "warm"):
        at = numeric._evaluator(ss)
        assert (sighting == "first") == (not numeric.EVALUATORS.plans)
        for point in points:
            want = [_eval_sorting_per_point(s.body, point) for s in ss]
            assert _bits(at(point)) == _bits(numeric._Evaluator(ss)(point)) == _bits(want), (sighting, point)
    numeric.EVALUATORS.clear()


def _g_and_h(pmap: PolyMap, D: int):
    return [fixed_point_inverse(pmap, D), list(numeric._h_series(pmap))]


@pytest.mark.parametrize("pmap", catalog(), ids=lambda p: p.name)
def test_compiled_evaluator_is_bit_identical_on_the_catalog(pmap):
    points = default_sample_points(pmap, seed=5)
    G, H = _g_and_h(pmap, 12 if pmap.d == 2 else 13)
    _routes(G, points)
    # H read at G's values, as theorem1_check reads it
    _routes(H, [numeric._Evaluator(G)(point) for point in points])


@pytest.mark.parametrize("n, d, D", [(4, 3, 5), (3, 2, 6)])
@pytest.mark.parametrize("seed", [31, 32])
def test_compiled_evaluator_is_bit_identical_on_scaled_dense_maps(n, d, D, seed):
    pmap = _scaled_random_map(n, d, seed, 10 ** (3 * (d - 1)))
    points = default_sample_points(pmap, seed=seed)
    # axis points (every coordinate but one exactly 0.0), and one zero of three
    r = 0.5 * convergence_radius(pmap)
    points += [(0.0,) * n, (r, -0.0) + (0.0,) * (n - 2)]
    if n == 3:
        points.append((0.3 * r, 0.0, -0.6 * r))
    G, H = _g_and_h(pmap, D)
    _routes(G, points)
    _routes(H, [numeric._Evaluator(G)(point) for point in points])


def test_compiled_evaluator_serves_a_G_missing_keys_its_dense_shadow_holds():
    pmap = _scaled_random_map(3, 2, 33, 1000)
    G = fixed_point_inverse(pmap, 6)
    # drop a third of G_0's degree-4 keys: still at least half of the degree, so dense
    comps = [dict(c) for c in G[0].comps]
    for k in list(comps[4])[::3]:
        del comps[4][k]
    sparse = [Series._reduced(3, 6, G[0].den, comps), *G[1:]]
    assert numeric._shadow(3, sparse[0].comps) == numeric._shadow(3, G[0].comps)
    points = default_sample_points(pmap, seed=1)
    numeric.EVALUATORS.clear()
    numeric._evaluator(G)
    # sparse is the structure's second sighting, so it compiles and reads 0.0 for each missing key
    for _ in range(2):
        at = numeric._evaluator(sparse)
        assert numeric.EVALUATORS.plans
        for point in points:
            assert _bits(at(point)) == _bits(numeric._Evaluator(sparse)(point))
    numeric.EVALUATORS.clear()


def test_a_power_only_the_dense_shadow_reads_may_overflow():
    # x1^2 would overflow at 1e200.  In x0^2 + x1 nothing reads it; in
    # 1e-100 (x0^2 + x0 x1) only the dense shadow of degree 2 does, at a
    # point small enough for the compiled route to be tried
    tiny = Fraction(1, 10**100)
    cases = [
        (Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)}), 1e200 + 1.0),
        (Poly(2, {(2, 0): tiny, (1, 1): tiny}), float(tiny) * 1e200 + float(tiny)),
    ]
    numeric.EVALUATORS.clear()
    for p, want in cases:
        for _ in range(3):
            assert eval_poly_numeric(p, [1.0, 1e200]) == want
            assert eval_series_numeric(Series(p, 4), [1.0, 1e200]) == want
    assert numeric.EVALUATORS.plans
    numeric.EVALUATORS.clear()


def test_a_term_that_meets_its_zero_after_inf_stays_nan():
    # 10^300 x0^2 x1 at (1e10, 0.0): 10^300 * 1e20 overflows before x1 = 0.0, giving nan
    p = Poly(2, {(2, 1): Fraction(10**300), (1, 0): Fraction(1)})
    s = Series(p, 3)
    assert math.isnan(_eval_sorting_per_point(p, (1e10, 0.0)))
    _routes([s], [(1e10, 0.0), (0.5, 0.0), (0.0, 0.5)])
    numeric.EVALUATORS.clear()
    for _ in range(3):
        assert math.isnan(eval_series_numeric(s, [1e10, 0.0]))
    numeric.EVALUATORS.clear()


def test_a_second_structure_with_the_same_shadow_compiles_nothing(monkeypatch):
    built, compiled = [], []
    init, compile_variant = numeric._Structure.__init__, numeric._Structure._compile
    monkeypatch.setattr(numeric._Structure, "__init__", lambda self, *args: built.append(1) or init(self, *args))
    monkeypatch.setattr(numeric._Structure, "_compile", lambda self, zero: compiled.append(zero) or compile_variant(self, zero))
    first, second = (_scaled_random_map(4, 3, seed, 1000) for seed in (41, 42))
    numeric.EVALUATORS.clear()
    for pmap in (first, first):
        theorem1_check(pmap, 5, default_sample_points(pmap), tol=1e-6)
    # G and H, each with its variants: one per axis and one for points off the axes
    assert len(built) == 2 and len(compiled) == 4 + 1 + 1
    seen = (len(built), len(compiled))
    report = theorem1_check(second, 5, default_sample_points(second), tol=1e-6)
    assert (len(built), len(compiled)) == seen
    assert report == _per_point_report(second, 5, default_sample_points(second), 1e-6)
    numeric.EVALUATORS.clear()


def test_evaluators_are_counted_and_kept_within_their_budget(monkeypatch):
    cache = numeric.PlanCache(numeric.TERMS, 60_000)
    monkeypatch.setattr(numeric, "EVALUATORS", cache)
    for seed in (51, 52, 53):
        pmap = _scaled_random_map(4, 3, seed, 1000)
        for _ in range(2):
            theorem1_check(pmap, 5 + seed % 3, default_sample_points(pmap), tol=1e-6)
        assert cache.nbytes == sum(s.nbytes for s in cache.plans.values()) <= cache.budget
        for s in cache.plans.values():
            assert s.nbytes > 150 * len(s.idx)
    # a structure past TERMS is never compiled
    monkeypatch.setattr(cache, "limit", 10)
    cache.clear()
    for _ in range(3):
        numeric._evaluator([Series(_half_square_series(20).body * Poly.variable(1, 0), 20)] * 11)
    assert not cache.plans and list(cache.marks.values()) == [True]
