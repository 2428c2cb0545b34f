"""Fixed-point inversion, the univariate oracle, and inverse-structure checks."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from treeinv.catalog import catalog, get_fixture, random_map, triangular_map, univariate_map
from treeinv.errors import PreconditionError
from treeinv.inversion import (
    check_quadratic_nilpotent_theorem,
    correlation_tensor,
    default_degree_cap,
    fixed_point_inverse,
    invert_report,
    lagrange_oracle_1d,
    polynomial_inverse_degree,
    verify_inverse,
)
from treeinv.poly import Poly, Series, series_compose
from treeinv.tensormap import PolyMap, SymTensor, build_H


def _series_1d(coeffs: dict[int, Fraction], cap: int) -> Series:
    body = Poly.zero(1)
    for deg, c in coeffs.items():
        body = body + Poly.monomial((deg,), c)
    return Series(body, cap)


def test_fixed_point_univar2_pinned():
    (got,) = fixed_point_inverse(univariate_map(2, 1), 5)
    want = _series_1d(
        {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(5, 8), 5: Fraction(7, 8)},
        5,
    )
    assert got == want


def test_fixed_point_triangular_3_2_pinned():
    g1, g2, g3 = fixed_point_inverse(triangular_map(3, 2), 6)
    n = 3
    want1 = (
        Poly.variable(n, 0)
        + Poly.monomial((0, 2, 0))
        + Poly.monomial((0, 1, 2), Fraction(2))
        + Poly.monomial((0, 0, 4))
    )
    assert g1 == Series(want1, 6)
    assert g2 == Series(Poly.variable(n, 1) + Poly.monomial((0, 0, 2)), 6)
    assert g3 == Series(Poly.variable(n, 2), 6)


def test_fixed_point_zero_tensor_identity():
    pmap = PolyMap(SymTensor(2, 2))
    assert fixed_point_inverse(pmap, 4) == [Series.variable(2, 0, 4), Series.variable(2, 1, 4)]


def test_fixed_point_rejects_nonpositive_cap():
    with pytest.raises(ValueError):
        fixed_point_inverse(univariate_map(2, 1), 0)


def test_fixed_point_satisfies_recursion():
    # G = y + H(G) truncated, exactly
    from treeinv.poly import series_compose
    from treeinv.tensormap import build_H

    for pmap in catalog():
        D = 6
        G = fixed_point_inverse(pmap, D)
        hs = build_H(pmap)
        for i in range(pmap.n):
            rhs = Series.variable(pmap.n, i, D) + series_compose(hs[i], G)
            assert G[i] == rhs, pmap.name


def _whole_composition_inverse(pmap: PolyMap, D: int) -> list[Series]:
    """Reference: iterate G <- y + H(G), each pass a full truncated composition, until stationary."""
    H = build_H(pmap)
    y = [Series.variable(pmap.n, i, D) for i in range(pmap.n)]
    G = y
    while True:
        nxt = [y[i] + series_compose(H[i], G) for i in range(pmap.n)]
        if nxt == G:
            return G
        G = nxt


@pytest.mark.parametrize("pmap", catalog(), ids=lambda p: p.name)
def test_graded_inverse_matches_whole_composition_catalog(pmap):
    for D in (1, pmap.d, 8):
        assert fixed_point_inverse(pmap, D) == _whole_composition_inverse(pmap, D), D


@pytest.mark.parametrize(
    "n,d,cap,seed",
    [(2, 2, 6, 11), (3, 2, 5, 12), (2, 3, 6, 13), (4, 3, 5, 14), (2, 4, 9, 15), (3, 4, 7, 16)],
)
def test_graded_inverse_matches_whole_composition_dense(n, d, cap, seed):
    pmap = random_map(n, d, seed=seed)
    G = fixed_point_inverse(pmap, cap)
    assert G == _whole_composition_inverse(pmap, cap)
    # G_m vanishes unless m = (d-1)V + 1 for some vertex count V
    for g in G:
        for m, comp in enumerate(g.comps):
            if (m - 1) % (d - 1) != 0:
                assert not comp, m
            elif m >= 1:
                assert comp, m


@pytest.mark.parametrize("cap", [4, 5])
def test_verify_rejects_a_stray_term_in_a_vanishing_degree(cap):
    # at cap 4 the stray y2^2 changes only degrees 2 and 4, both of which vanish for d=3
    pmap = random_map(2, 3, seed=17)
    G = fixed_point_inverse(pmap, cap)
    assert verify_inverse(pmap, G, cap)
    stray = Series(Poly.monomial((0, 2), Fraction(1, 3)), cap)
    assert not verify_inverse(pmap, [G[0] + stray, G[1]], cap)
    assert not verify_inverse(pmap, [G[0], G[1] + stray], cap)


def test_graded_inverse_matches_whole_composition_zero_tensor():
    pmap = PolyMap(SymTensor(3, 3))
    assert fixed_point_inverse(pmap, 5) == _whole_composition_inverse(pmap, 5)


def test_graded_inverse_cap_below_degree_is_identity():
    # Every G_m with 1 < m < d vanishes, so below the cap d the inverse is y.
    pmap = random_map(2, 4, seed=5)
    G = fixed_point_inverse(pmap, 3)
    assert G == [Series.variable(2, i, 3) for i in range(2)]
    assert G == _whole_composition_inverse(pmap, 3)


def test_graded_inverse_random_2_2_degree_20():
    pmap = get_fixture("random-2-2")
    assert verify_inverse(pmap, fixed_point_inverse(pmap, 20), 20)


def test_lagrange_pinned_catalan():
    got = lagrange_oracle_1d(2, Fraction(1, 2), 4)
    assert got == _series_1d(
        {1: Fraction(1), 2: Fraction(1, 2), 3: Fraction(1, 2), 4: Fraction(5, 8)}, 4
    )


def test_lagrange_zero_coefficient():
    assert lagrange_oracle_1d(2, 0, 6) == Series.variable(1, 0, 6)


def test_lagrange_cubic_pinned():
    got = lagrange_oracle_1d(3, Fraction(1, 6), 5)
    assert got == _series_1d({1: Fraction(1), 3: Fraction(1, 6), 5: Fraction(1, 12)}, 5)


@pytest.mark.parametrize("d,w", [(2, Fraction(1)), (3, Fraction(1)), (2, Fraction(-3, 2)), (3, Fraction(6))])
def test_fixed_point_matches_lagrange(d, w):
    import math

    a = w / math.factorial(d)
    for D in (5, 12):
        (fp,) = fixed_point_inverse(univariate_map(d, w), D)
        assert fp == lagrange_oracle_1d(d, Fraction(a), D)


def test_verify_inverse_cases():
    u2 = univariate_map(2, 1)
    assert verify_inverse(u2, fixed_point_inverse(u2, 5), 5)
    assert not verify_inverse(u2, [Series.variable(1, 0, 2)], 2)
    zero = PolyMap(SymTensor(1, 2))
    assert verify_inverse(zero, [Series.variable(1, 0, 3)], 3)


def test_verify_inverse_catalog_d10():
    for pmap in catalog():
        G = fixed_point_inverse(pmap, 10)
        assert verify_inverse(pmap, G, 10), pmap.name


def test_inverse_uniqueness_under_perturbation():
    u2 = univariate_map(2, 1)
    (g,) = fixed_point_inverse(u2, 6)
    bumped = Series(g.body + Poly.monomial((3,), Fraction(1, 7)), 6)
    assert not verify_inverse(u2, [bumped], 6)


def test_correlation_triangular_2_3():
    pmap = get_fixture("triangular-2-3")
    assert correlation_tensor(pmap, 0, (1, 1, 1)) == Fraction(6)
    assert correlation_tensor(pmap, 1, (0, 0)) == 0
    assert correlation_tensor(pmap, 1, (1, 1, 0, 0)) == 0


def test_correlation_univar2_second_derivative():
    assert correlation_tensor(univariate_map(2, 1), 0, (0, 0)) == Fraction(1)


def test_correlation_symmetric_in_leaf_order():
    pmap = get_fixture("random-2-2")
    for tup in [(0, 1, 1), (0, 0, 1)]:
        vals = {correlation_tensor(pmap, 0, p) for p in itertools.permutations(tup)}
        assert len(vals) == 1


def test_correlation_validates_arguments():
    pmap = univariate_map(2, 1)
    with pytest.raises(ValueError):
        correlation_tensor(pmap, 0, ())
    with pytest.raises(ValueError):
        correlation_tensor(pmap, 1, (0,))
    with pytest.raises(ValueError):
        correlation_tensor(pmap, 0, (0, 0, 0), D=2)


def test_polynomial_degree_triangular_3_2_saturates():
    assert polynomial_inverse_degree(triangular_map(3, 2), 8) == 4


def test_polynomial_degree_univar2_absent():
    assert polynomial_inverse_degree(univariate_map(2, 1), 8) is None


def test_polynomial_degree_zero_tensor():
    assert polynomial_inverse_degree(PolyMap(SymTensor(1, 2)), 2) == 1


def test_polynomial_degree_cap_guard():
    with pytest.raises(ValueError):
        polynomial_inverse_degree(triangular_map(3, 2), 4)


def test_quadratic_nilpotent_theorem_cases():
    assert check_quadratic_nilpotent_theorem(get_fixture("triangular-2-3"), 12)
    assert check_quadratic_nilpotent_theorem(get_fixture("m2zero-2-2"), 10)
    with pytest.raises(PreconditionError):
        check_quadratic_nilpotent_theorem(univariate_map(2, 1), 6)


def test_default_degree_cap():
    assert default_degree_cap(univariate_map(2, 1)) == 10
    assert default_degree_cap(get_fixture("triangular-4-3")) == 30


def test_invert_report_triangular_4_3():
    pmap = get_fixture("triangular-4-3")
    report = invert_report(pmap)
    assert report.gabber_bound == 27
    assert report.polynomial_degree == 27
    assert report.verified_to == 30
    assert len(report.series) == 4


def test_invert_report_nonpolynomial():
    report = invert_report(univariate_map(2, 1), D=8)
    assert report.polynomial_degree is None
    assert report.verified_to == 8
