"""Partition-function series: exp/log, trace formula, and the determinant identity."""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from treeinv.catalog import catalog, get_fixture, random_map, univariate_map
from treeinv.errors import PreconditionError
from treeinv.inversion import fixed_point_inverse
from treeinv.jacobian import nilpotency_order
from treeinv.partition import (
    check_self_normalization,
    log_z_series,
    partition_report,
    series_exp,
    series_log,
    verify_z_identity,
    z_series,
)
from treeinv.poly import Poly, Series, series_compose
from treeinv.tensormap import PolyMap, SymTensor, jacobian_matrix


def _series_1d(coeffs: dict[int, Fraction], cap: int) -> Series:
    body = Poly.zero(1)
    for deg, c in coeffs.items():
        body = body + Poly.monomial((deg,), c)
    return Series(body, cap)


def test_series_exp_pinned():
    y = Series.variable(1, 0, 3)
    got = series_exp(y)
    assert got == _series_1d({0: Fraction(1), 1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 6)}, 3)


def test_series_log_pinned():
    one_minus = Series(Poly.const(1, 1) - Poly.variable(1, 0), 3)
    got = series_log(one_minus)
    assert got == _series_1d({1: Fraction(-1), 2: Fraction(-1, 2), 3: Fraction(-1, 3)}, 3)


def test_series_exp_log_constant_term_guards():
    with pytest.raises(ValueError):
        series_exp(Series.one(1, 3))
    with pytest.raises(ValueError):
        series_log(Series.variable(1, 0, 3))


def _random_series(rng: random.Random, n: int, cap: int) -> Series:
    """Up to four monomials of degree 1..2n, coefficients p/q with q in 1, 2, 3, 5."""
    body = Poly.zero(n)
    for _ in range(4):
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        if sum(exps) == 0:
            continue
        body = body + Poly.monomial(exps, Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3, 5))))
    return Series(body, cap)


def _random_cases():
    rng = random.Random(55)
    return [_random_series(rng, n, cap) for n in (1, 2, 3) for cap in range(9) for _ in range(2)]


def test_exp_log_round_trip_random():
    for s in _random_cases():
        assert series_log(series_exp(s)) == s
        e = series_exp(s)
        assert series_exp(series_log(e)) == e


def test_exp_log_match_their_power_series():
    """exp(S) = sum_{k<=cap} S^k / k! and log(1 + T) = sum (-1)^(k+1) T^k / k, from Series products."""
    for t in _random_cases():
        n, cap = t.n, t.cap
        one = Series.one(n, cap)
        exp_t, log_1_t, power = one, Series.zero(n, cap), one
        for k in range(1, cap + 1):
            power = power * t
            exp_t = exp_t + power.scale(Fraction(1, factorial(k)))
            log_1_t = log_1_t + power.scale(Fraction((-1) ** (k + 1), k))
        assert series_exp(t) == exp_t
        assert series_log(one + t) == log_1_t


def test_exp_is_multiplicative():
    a = Series(Poly.variable(2, 0), 4)
    b = Series(Poly.monomial((0, 2), Fraction(3)), 4)
    assert series_exp(a + b) == series_exp(a) * series_exp(b)


def test_log_z_vanishes_for_triangular():
    pmap = get_fixture("triangular-2-3")
    assert log_z_series(pmap, 10).is_zero()


def test_log_z_univar2_pinned():
    # oracle: log Z = -log(1 - G) with G the quadratic-map inverse
    got = log_z_series(univariate_map(2, 1), 3)
    want = _series_1d({1: Fraction(1), 2: Fraction(1), 3: Fraction(4, 3)}, 3)
    assert got == want
    (g,) = fixed_point_inverse(univariate_map(2, 1), 3)
    assert got == -series_log(Series.one(1, 3) - g)


def test_log_z_zero_tensor():
    assert log_z_series(PolyMap(SymTensor(2, 2)), 6).is_zero()


def test_log_z_no_terms_below_degree_d_minus_1():
    for pmap in catalog():
        lz = log_z_series(pmap, 6)
        for deg in range(pmap.d - 1):
            assert lz.homogeneous_component(deg).is_zero(), pmap.name


def test_z_univar2_pinned():
    got = z_series(univariate_map(2, 1), 3)
    want = _series_1d(
        {0: Fraction(1), 1: Fraction(1), 2: Fraction(3, 2), 3: Fraction(5, 2)}, 3
    )
    assert got == want


def test_z_triangular_is_one():
    for name in ["triangular-2-2", "triangular-3-2", "triangular-4-3"]:
        assert z_series(get_fixture(name), 8) == Series.one(get_fixture(name).n, 8)


def test_z_zero_tensor_is_one():
    assert z_series(PolyMap(SymTensor(1, 2)), 5) == Series.one(1, 5)


def test_z_identity_catalog_d8():
    for pmap in catalog():
        assert verify_z_identity(pmap, 8), pmap.name


def test_self_normalization_unit_fixtures():
    assert check_self_normalization(get_fixture("triangular-4-3"), 10)
    assert check_self_normalization(get_fixture("m2zero-2-2"), 10)


def test_self_normalization_precondition():
    with pytest.raises(PreconditionError):
        check_self_normalization(univariate_map(2, 1), 6)


def test_exp_log_agree_on_fixture_series():
    for pmap in catalog():
        lz = log_z_series(pmap, 6)
        z = z_series(pmap, 6)
        assert series_exp(lz) == z, pmap.name
        assert series_log(z) == lz, pmap.name


def test_partition_report_fields():
    rep = partition_report(get_fixture("m2zero-2-2"), 8)
    assert rep.self_normalized
    assert rep.z == Series.one(2, 8)
    assert rep.log_z.is_zero()
    rep2 = partition_report(univariate_map(2, 1), 4)
    assert not rep2.self_normalized
    assert series_exp(rep2.log_z) == rep2.z


def _series_matrix_log_z(pmap: PolyMap, D: int) -> Series:
    """Reference: form M(G(y)) as a matrix of series and sum (1/k) tr of its powers."""
    n, d = pmap.n, pmap.d
    G = fixed_point_inverse(pmap, D)
    M = jacobian_matrix(pmap)
    MG = [[series_compose(M.entries[i][j], G) for j in range(n)] for i in range(n)]
    total = Series.zero(n, D)
    power = MG
    for k in range(1, D // (d - 1) + 1):
        if k > 1:
            power = [
                [
                    sum((power[i][t] * MG[t][j] for t in range(1, n)), power[i][0] * MG[0][j])
                    for j in range(n)
                ]
                for i in range(n)
            ]
        tr = sum((power[i][i] for i in range(1, n)), power[0][0])
        total = total + tr.scale(Fraction(1, k))
    return total


@pytest.mark.parametrize("pmap", catalog(), ids=lambda p: p.name)
def test_log_z_matches_series_matrix_catalog(pmap):
    for D in (1, pmap.d, 8):
        assert log_z_series(pmap, D) == _series_matrix_log_z(pmap, D), D


@pytest.mark.parametrize("n,d,D,seed", [(2, 2, 6, 21), (3, 2, 5, 22), (2, 3, 8, 23)])
def test_log_z_matches_series_matrix_past_n_powers(n, d, D, seed):
    # not nilpotent and D // (d - 1) > n: the sum reaches M^k with k > n
    pmap = random_map(n, d, seed=seed)
    assert nilpotency_order(pmap) is None
    assert D // (d - 1) > n
    assert log_z_series(pmap, D) == _series_matrix_log_z(pmap, D)
