"""The packed integer Series kernel against untruncated Poly arithmetic plus truncation."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from treeinv.errors import DimensionMismatchError
from treeinv.poly import Poly, Series, poly_compose, series_compose

CASES = [(n, cap) for n in range(1, 5) for cap in range(13)]


def _coeff(rng: random.Random) -> Fraction:
    return Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.choice([1, 1, 2, 3, 4, 6, 7]))


def _random_poly(rng: random.Random, n: int, max_deg: int, terms: int) -> Poly:
    out = {}
    for _ in range(terms):
        deg = rng.randint(0, max_deg)
        exps = [0] * n
        for _ in range(deg):
            exps[rng.randrange(n)] += 1
        out[tuple(exps)] = _coeff(rng)
    return Poly(n, out)


def _inputs(rng: random.Random, n: int, cap: int) -> list[Poly]:
    """Random polynomials around the cap, plus the zero and a constant."""
    polys = [_random_poly(rng, n, cap + 2, rng.randint(1, 6)) for _ in range(3)]
    return polys + [Poly.zero(n), Poly.const(n, _coeff(rng))]


def _assert_reduced(s: Series) -> None:
    values = [v for c in s.comps for v in c.values()]
    assert 0 not in values
    assert s.den > 0 and gcd(s.den, *values) == 1


@pytest.mark.parametrize("n,cap", CASES)
def test_ring_operations_match_poly_then_truncate(n, cap):
    rng = random.Random(1000 * n + cap)
    polys = _inputs(rng, n, cap)
    for a in polys:
        for b in polys:
            sa, sb = Series(a, cap), Series(b, cap)
            for got, want in (
                (sa * sb, a * b),
                (sa + sb, a + b),
                (sa - sb, a - b),
            ):
                _assert_reduced(got)
                assert got == Series(want, cap)
                assert got.body == want.truncate(cap)
        for value in (0, 1, -1, Fraction(-3, 4), 6):
            got = Series(a, cap).scale(value)
            _assert_reduced(got)
            assert got.body == a.scale(value).truncate(cap)


@pytest.mark.parametrize("n,cap", CASES)
def test_truncate_rekeys_to_the_smaller_cap(n, cap):
    rng = random.Random(2000 * n + cap)
    for p in _inputs(rng, n, cap):
        s = Series(p, cap)
        for low in range(cap + 2):
            got = s.truncate(low)
            _assert_reduced(got)
            assert got == Series(p, min(low, cap))
            assert got.body == p.truncate(min(low, cap))
    with pytest.raises(ValueError):
        Series(Poly.zero(n), cap).truncate(-1)


@pytest.mark.parametrize("n,cap", [(n, cap) for n in range(1, 5) for cap in (0, 1, 3, 6, 9, 12)])
def test_series_compose_matches_poly_compose(n, cap):
    rng = random.Random(3000 * n + cap)
    for trial in range(3):
        f = _random_poly(rng, n, 3, rng.randint(1, 5))
        if trial == 2:
            f = f + Poly.const(n, _coeff(rng))
        gs = [_random_poly(rng, n, 3, rng.randint(0, 3)) for _ in range(n)]
        got = series_compose(f, [Series(g, cap) for g in gs])
        _assert_reduced(got)
        assert got == Series(poly_compose(f, gs), cap)


@pytest.mark.parametrize("constant", [False, True], ids=["no-constant", "constant"])
def test_series_compose_with_monomials_above_the_cap(constant):
    # without a constant term in any substituent the monomials above the cap
    # contribute nothing; with one they must all be substituted
    rng = random.Random(4000 + constant)
    n, cap = 3, 3
    for _ in range(4):
        high = Poly.zero(n)
        for deg in (cap + 1, cap + 2, cap + 3):
            exps = [0] * n
            for _ in range(deg):
                exps[rng.randrange(n)] += 1
            high = high + Poly.monomial(exps, _coeff(rng))
        f = _random_poly(rng, n, cap, 4) + high
        gs = [_random_poly(rng, n, 3, 3) for _ in range(n)]
        gs = [g - Poly.const(n, g.constant_term()) for g in gs]
        if constant:
            gs = [g + Poly.const(n, _coeff(rng)) for g in gs]
        series = [Series(g, cap) for g in gs]
        got = series_compose(f, series)
        _assert_reduced(got)
        assert got == Series(poly_compose(f, gs), cap)
        assert series_compose(high, series).is_zero() != constant


def test_constructed_and_computed_series_are_equal_and_hash_equal():
    rng = random.Random(7)
    for n in range(1, 5):
        for cap in (0, 2, 5, 9):
            a = _random_poly(rng, n, cap, 4)
            b = _random_poly(rng, n, cap, 4)
            computed = Series(a, cap) * Series(b, cap) + Series(a, cap).scale(Fraction(1, 3))
            built = Series(a * b + a.scale(Fraction(1, 3)), cap)
            assert computed == built
            assert hash(computed) == hash(built)
            assert computed.body == built.body


def test_body_is_the_truncated_poly():
    rng = random.Random(8)
    for n in range(1, 5):
        for cap in range(7):
            p = _random_poly(rng, n, cap + 3, 6)
            assert Series(p, cap).body == p.truncate(cap)
            assert Series(p, cap).n == n


def test_coefficient_of_absent_monomial_is_fraction_zero():
    s = Series(Poly.monomial((1, 2), Fraction(-5, 3)) + Poly.const(2, 2), 4)
    assert s.coefficient((1, 2)) == Fraction(-5, 3)
    assert s.coefficient((0, 0)) == Fraction(2)
    for mono in [(2, 1), (0, 5), (9, 0), (5, 0)]:
        got = s.coefficient(mono)
        assert got == 0 and type(got) is Fraction
    assert type(s.coefficient((0, 0))) is Fraction


def test_zero_and_constant_series():
    for n in range(1, 5):
        for cap in (0, 1, 6):
            z = Series.zero(n, cap)
            one = Series.one(n, cap)
            assert z.is_zero() and not one.is_zero()
            assert z.den == 1 and one == Series(Poly.const(n, 1), cap)
            assert one * one == one and z * one == z and one - one == z
            assert one.scale(0) == z and one.scale(Fraction(2, 3)) * one.scale(Fraction(3, 2)) == one


def test_product_never_carries_between_exponents():
    # exponents at the cap in different variables, base cap + 1
    cap = 4
    x = Series(Poly.monomial((2, 0, 0)), cap)
    y = Series(Poly.monomial((0, 2, 0)), cap)
    assert (x * y).body == Poly.monomial((2, 2, 0))
    assert (x * x).body == Poly.monomial((4, 0, 0))
    assert (x * x * y).is_zero()


def test_mismatched_operands_rejected():
    a = Series.variable(2, 0, 3)
    with pytest.raises(DimensionMismatchError):
        a * Series.variable(3, 0, 3)
    with pytest.raises(DimensionMismatchError):
        a - Series.variable(2, 0, 4)


@pytest.mark.parametrize("n,cap", [(1, 6), (2, 5), (3, 4)])
def test_series_compose_with_shared_denominator_factors_is_reduced(n, cap):
    # substituents over 6, 12 and 18: the unreduced prefix products carry
    # powers of those denominators that only the final sums divide out
    rng = random.Random(4000 * n + cap)
    for _ in range(4):
        gs = []
        for j in range(n):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * n
                for _ in range(rng.randint(1, 2)):
                    exps[rng.randrange(n)] += 1
                terms[tuple(exps)] = Fraction(rng.choice([-5, -1, 1, 3, 7]) * 3, 6 * (j + 1))
            gs.append(Poly(n, terms))
        f = _random_poly(rng, n, 3, rng.randint(1, 5)).scale(6)
        got = series_compose(f, [Series(g, cap) for g in gs])
        _assert_reduced(got)
        assert got == Series(poly_compose(f, gs), cap)
