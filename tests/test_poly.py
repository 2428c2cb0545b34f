"""Exact polynomial, series, and polynomial-matrix arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from treeinv.errors import DimensionMismatchError, GuardExceededError
from treeinv.poly import Poly, Series, poly_compose, series_compose
from treeinv.polymatrix import PolyMatrix


def _x(n: int, i: int) -> Poly:
    return Poly.variable(n, i)


def _random_poly(rng: random.Random, n: int, max_deg: int, terms: int) -> Poly:
    out = Poly.zero(n)
    for _ in range(terms):
        exps = tuple(rng.randint(0, max_deg) for _ in range(n))
        coeff = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        out = out + Poly.monomial(exps, coeff)
    return out


def test_additive_inverse_cancels():
    x1 = _x(1, 0)
    assert (x1 + (-x1)).is_zero()


def test_monomial_multiplication_adds_exponents():
    n = 2
    x2 = _x(n, 1)
    sq = Poly.monomial((0, 2))
    assert sq * x2 == Poly.monomial((0, 3))


def test_difference_of_squares():
    n = 2
    x1, x2 = _x(n, 0), _x(n, 1)
    assert (x1 + x2) * (x1 - x2) == x1 * x1 - x2 * x2


def test_monomial_degree_and_constant_term():
    p = Poly.monomial((2, 1), Fraction(3, 2)) + Poly.const(2, Fraction(7))
    assert Poly.monomial((2, 1)).total_degree() == 3
    assert p.total_degree() == 3
    assert p.constant_term() == Fraction(7)
    assert p.coefficient((2, 1)) == Fraction(3, 2)
    assert p.coefficient((5, 5)) == 0


@pytest.mark.parametrize("mono", [(-1,), (1.5,), (2, -1), (Fraction(1),), ("1",), (True, 0)])
def test_negative_or_non_integer_exponents_refused(mono):
    # packed into a Series, exponent -1 would read back as cap in base cap + 1
    with pytest.raises(ValueError):
        Poly(len(mono), {mono: 1})
    with pytest.raises(ValueError):
        Poly.monomial(mono)


def test_zero_coefficients_are_pruned():
    p = Poly(2, {(1, 0): Fraction(2)}) + Poly(2, {(1, 0): Fraction(-2)})
    assert p.is_zero()
    assert not p.terms


def test_homogeneous_product_degree():
    rng = random.Random(11)
    for _ in range(20):
        deg_a = rng.randint(1, 3)
        deg_b = rng.randint(1, 3)
        a = Poly.zero(2)
        b = Poly.zero(2)
        for _ in range(3):
            ea = rng.randint(0, deg_a)
            eb = rng.randint(0, deg_b)
            a = a + Poly.monomial((ea, deg_a - ea), Fraction(rng.randint(1, 4)))
            b = b + Poly.monomial((eb, deg_b - eb), Fraction(rng.randint(1, 4)))
        prod = a * b
        assert prod.is_homogeneous(deg_a + deg_b)


def test_ring_axioms_seeded():
    rng = random.Random(2026)
    for _ in range(30):
        a = _random_poly(rng, 2, 3, 3)
        b = _random_poly(rng, 2, 3, 3)
        c = _random_poly(rng, 2, 3, 3)
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        _x(1, 0) + _x(2, 0)
    with pytest.raises(DimensionMismatchError):
        _x(1, 0) * _x(2, 1)


def test_diff_and_eval():
    n = 2
    p = Poly.monomial((2, 1), Fraction(3))  # 3 x1^2 x2
    assert p.diff(0) == Poly.monomial((1, 1), Fraction(6))
    assert p.diff(1) == Poly.monomial((2, 0), Fraction(3))
    assert p.eval_fraction([Fraction(1, 2), Fraction(4)]) == Fraction(3)


def test_truncate_by_total_degree():
    p = Poly.monomial((1, 0)) + Poly.monomial((2, 2)) + Poly.monomial((0, 3))
    t = p.truncate(3)
    assert t == Poly.monomial((1, 0)) + Poly.monomial((0, 3))


def test_power_matches_repeated_mul():
    rng = random.Random(5)
    p = _random_poly(rng, 2, 2, 3)
    assert p ** 3 == p * p * p
    assert p ** 0 == Poly.const(2, 1)


# series


def test_series_compose_square_of_shifted_variable():
    # f = x^2 into g = y + y^2 at cap 4
    f = Poly.monomial((2,))
    y = Series.variable(1, 0, 4)
    g = y + Series(Poly.monomial((2,)), 4)
    got = series_compose(f, [g])
    want = Series(
        Poly.monomial((2,)) + Poly.monomial((3,), Fraction(2)) + Poly.monomial((4,)),
        4,
    )
    assert got == want


def test_series_compose_identity_substitution():
    f = Poly.monomial((1, 1))
    g = [Series.variable(2, 0, 2), Series.variable(2, 1, 2)]
    assert series_compose(f, g) == Series(Poly.monomial((1, 1)), 2)


def test_series_compose_cube_truncates():
    f = Poly.monomial((3,))
    g = Series(Poly.monomial((1,)) + Poly.monomial((2,)), 3)
    assert series_compose(f, [g]) == Series(Poly.monomial((3,)), 3)


def test_series_compose_agrees_with_poly_compose():
    rng = random.Random(99)
    for _ in range(15):
        f = _random_poly(rng, 2, 2, 3)
        g1 = _random_poly(rng, 2, 2, 2)
        g2 = _random_poly(rng, 2, 2, 2)
        full = poly_compose(f, [g1, g2])
        # a cap that clears the full composite degree gives exact agreement
        cap = max(full.total_degree(), 1)
        got = series_compose(f, [Series(g1, cap), Series(g2, cap)])
        assert got == Series(full, cap)
        # and any smaller cap agrees after truncation
        low = Series(full.truncate(3), 3)
        assert series_compose(f, [Series(g1, 3), Series(g2, 3)]) == low


def test_series_cap_mismatch_rejected():
    a = Series.variable(1, 0, 3)
    b = Series.variable(1, 0, 4)
    with pytest.raises(DimensionMismatchError):
        a + b
    with pytest.raises(DimensionMismatchError):
        a * b


def test_series_constructor_truncates_and_rejects_negative_cap():
    s = Series(Poly.monomial((4,)) + Poly.monomial((2,)), 3)
    assert s.body == Poly.monomial((2,))
    with pytest.raises(ValueError):
        Series(Poly.zero(1), -1)


def test_series_mul_truncates_at_cap():
    y = Series.variable(1, 0, 2)
    sq = y * y
    assert sq == Series(Poly.monomial((2,)), 2)
    assert (sq * y).is_zero()


# polynomial matrices


def test_det_identity_is_one():
    m = PolyMatrix.identity(2, 2)
    assert m.det() == Poly.const(2, 1)


def test_det_upper_triangular_unit():
    n = 2
    one = Poly.const(n, 1)
    m = PolyMatrix([[one, Poly.monomial((0, 2), Fraction(-3))], [Poly.zero(n), one]])
    assert m.det() == one


def test_det_diagonal_product():
    n = 1
    one = Poly.const(n, 1)
    m = PolyMatrix([[one - _x(n, 0), Poly.zero(n)], [Poly.zero(n), one]])
    assert m.det() == one - _x(n, 0)


def test_det_multiplicative_on_random_2x2():
    rng = random.Random(31)
    for _ in range(10):
        a = PolyMatrix([[_random_poly(rng, 2, 1, 2) for _ in range(2)] for _ in range(2)])
        b = PolyMatrix([[_random_poly(rng, 2, 1, 2) for _ in range(2)] for _ in range(2)])
        assert (a * b).det() == a.det() * b.det()


def test_matrix_power_nilpotent_square():
    n = 2
    z = Poly.zero(n)
    m = PolyMatrix([[z, Poly.monomial((0, 2), Fraction(3))], [z, z]])
    assert m.power(2).is_zero()


def test_matrix_power_identity_and_first_power():
    m = PolyMatrix.identity(3, 1)
    assert m.power(5) == m
    n = 2
    z = Poly.zero(n)
    single = PolyMatrix([[z, Poly.const(n, 1)], [z, z]])
    assert single.power(1) == single


def test_matrix_dimension_checks():
    with pytest.raises(DimensionMismatchError):
        PolyMatrix.identity(2, 1) + PolyMatrix.identity(3, 1)
    with pytest.raises(ValueError):
        PolyMatrix([[Poly.zero(1)], [Poly.zero(1)]])


def test_det_guard_rejects_large_matrix():
    m = PolyMatrix.identity(9, 1)
    with pytest.raises(GuardExceededError):
        m.det()
    assert m.det(guard=9) == Poly.const(1, 1)
