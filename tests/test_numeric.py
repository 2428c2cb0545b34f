"""Floating-point checks of convergence radius, truncated evaluation, and the norm bound."""

from __future__ import annotations

import math
import random
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


def test_eval_reads_only_the_powers_its_terms_use():
    # x2^2 at 1e200 would overflow; a polynomial in which x2 has degree 1 never forms it
    p = Poly(2, {(2, 0): Fraction(1), (0, 1): Fraction(1)})
    assert eval_poly_numeric(p, [1.0, 1e200]) == 1e200 + 1.0
    assert eval_series_numeric(Series(p, 4), [1.0, 1e200]) == 1e200 + 1.0
