"""Symmetric coefficient tensors and the polynomial maps they define."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import factorial

import pytest

from treeinv.catalog import (
    catalog,
    get_fixture,
    m2zero_map,
    random_map,
    triangular_map,
    univariate_map,
)
from treeinv.poly import Poly
from treeinv.tensormap import (
    PolyMap,
    SymTensor,
    build_F,
    build_H,
    jacobian_det,
    jacobian_matrix,
    norm_w,
)


def test_lower_indices_canonicalized_and_summed():
    t = SymTensor(2, 2, {(0, (1, 0)): Fraction(1), (0, (0, 1)): Fraction(2)})
    # both keys name the same symmetric slot
    assert t.get(0, (0, 1)) == Fraction(3)
    assert t.get(0, (1, 0)) == Fraction(3)
    assert len(t.entries) == 1


def test_zero_entries_pruned():
    t = SymTensor(1, 2, {(0, (0, 0)): Fraction(0)})
    assert t.is_zero()
    assert not t.entries


def test_tensor_validation_errors():
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(2, (0, 0)): Fraction(1)})  # upper index out of range
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(0, (0, 2)): Fraction(1)})  # lower index out of range
    with pytest.raises(ValueError):
        SymTensor(2, 2, {(0, (0, 0, 0)): Fraction(1)})  # wrong arity
    # indices must be ints: a float in range would reach build_H, which indexes lists with it
    for key in [(0, (0.5, 1)), (1.0, (0, 1)), (0, (Fraction(1), 1)), (True, (0, 1))]:
        with pytest.raises(ValueError):
            SymTensor(2, 2, {key: Fraction(1)})
    with pytest.raises(ValueError):
        SymTensor(0, 2)
    with pytest.raises(ValueError):
        SymTensor(2, 1)


def test_build_h_univariate_quadratic():
    # w = 1 at the single slot gives H = x^2/2
    pmap = univariate_map(2, 1)
    (h,) = build_H(pmap)
    assert h == Poly.monomial((2,), Fraction(1, 2))


def test_build_h_orbit_weighting():
    # n=2, d=3, w_{1,222} = 6: the d! in the denominator cancels, H_1 = x2^3
    t = SymTensor(2, 3, {(0, (1, 1, 1)): Fraction(6)})
    h = build_H(PolyMap(t))
    assert h[0] == Poly.monomial((0, 3))
    assert h[1].is_zero()


def test_build_h_mixed_orbit():
    # w_{1,112} = 6 over the orbit {112,121,211} of size 3: H_1 = 3*6/6 x1^2 x2
    t = SymTensor(2, 3, {(0, (0, 0, 1)): Fraction(6)})
    h = build_H(PolyMap(t))
    assert h[0] == Poly.monomial((2, 1), Fraction(3))


def test_build_h_homogeneous_degree_d():
    rng = random.Random(3)
    for seed in range(5):
        pmap = random_map(2, rng.randint(2, 3), seed)
        for h in build_H(pmap):
            assert h.is_zero() or h.is_homogeneous(pmap.d)


def test_build_f_is_x_minus_h():
    pmap = get_fixture("triangular-2-3")
    hs = build_H(pmap)
    fs = build_F(pmap)
    for i, (f, h) in enumerate(zip(fs, hs)):
        assert f == Poly.variable(pmap.n, i) - h


def test_jacobian_matrix_triangular_2_3():
    pmap = get_fixture("triangular-2-3")
    m = jacobian_matrix(pmap)
    n = pmap.n
    assert m.entries[0][0].is_zero()
    assert m.entries[0][1] == Poly.monomial((0, 2), Fraction(3))
    assert m.entries[1][0].is_zero()
    assert m.entries[1][1].is_zero()
    assert jacobian_det(pmap) == Poly.const(n, 1)


def test_jacobian_det_univariate():
    pmap = univariate_map(2, 1)
    assert jacobian_det(pmap) == Poly.const(1, 1) - Poly.variable(1, 0)


def test_euler_identity_relates_m_and_h():
    # sum_j M_ij x_j = d * H_i for any homogeneous map
    rng = random.Random(17)
    maps = catalog() + [random_map(2, 2, rng.randint(0, 99)) for _ in range(5)]
    for pmap in maps:
        hs = build_H(pmap)
        m = jacobian_matrix(pmap)
        for i in range(pmap.n):
            acc = Poly.zero(pmap.n)
            for j in range(pmap.n):
                acc = acc + m.entries[i][j] * Poly.variable(pmap.n, j)
            assert acc == hs[i].scale(pmap.d), pmap.name


def _seeded_maps() -> list[PolyMap]:
    maps = list(catalog())
    for n in (1, 2, 3, 4):
        for d in (2, 3, 4):
            maps.append(random_map(n, d, seed=10 * n + d))
    # mixed denominators and repeated lower indices
    t = SymTensor(
        3,
        3,
        {
            (0, (0, 0, 1)): Fraction(-7, 3),
            (0, (2, 2, 2)): Fraction(5, 4),
            (1, (0, 1, 2)): Fraction(9, 25),
            (2, (1, 1, 1)): Fraction(-1, 6),
        },
    )
    maps.append(PolyMap(t, name="denominators"))
    return maps


@pytest.mark.parametrize("pmap", _seeded_maps(), ids=lambda p: p.name)
def test_jacobian_matrix_equals_derivatives_of_H(pmap):
    # dH_i/dx_j read straight off the tensor, in Fractions: the coefficient
    # of x^mu in M[i][j] is w_{i, mu + e_j} / mu!, mu! the product of the
    # factorials of mu's multiplicities
    n = pmap.n
    want = [[{} for _ in range(n)] for _ in range(n)]
    for (i, lower), value in pmap.tensor.entries.items():
        for j in set(lower):
            mu = list(lower)
            mu.remove(j)
            mu_fact = 1
            for k in set(mu):
                mu_fact *= factorial(mu.count(k))
            want[i][j][tuple(mu.count(k) for k in range(n))] = value / mu_fact
    got = jacobian_matrix(pmap).entries
    assert [[entry.terms for entry in row] for row in got] == want


@pytest.mark.parametrize("pmap", _seeded_maps(), ids=lambda p: p.name)
def test_norm_w_equals_fraction_row_sums(pmap):
    rows = [Fraction(0)] * pmap.n
    for (i, lower), value in pmap.tensor.entries.items():
        rows[i] += abs(value) * len(set(itertools.permutations(lower)))
    assert norm_w(pmap) == max(rows)
    assert norm_w(pmap) is norm_w(pmap)


def test_norm_w_pinned_values():
    assert norm_w(univariate_map(2, 1)) == Fraction(1)
    assert norm_w(get_fixture("triangular-2-3")) == Fraction(6)
    # orbit weighting: w_{1,12} = 2 contributes twice (slots 12 and 21)
    t = SymTensor(2, 2, {(0, (0, 1)): Fraction(2)})
    assert norm_w(PolyMap(t)) == Fraction(4)


def test_norm_w_is_max_row_sum():
    t = SymTensor(
        2,
        2,
        {
            (0, (0, 0)): Fraction(1),
            (1, (0, 0)): Fraction(-3),
            (1, (1, 1)): Fraction(2),
        },
    )
    assert norm_w(PolyMap(t)) == Fraction(5)


def test_gabber_bound():
    assert univariate_map(2, 1).gabber_bound() == 1
    assert get_fixture("triangular-3-2").gabber_bound() == 4
    assert get_fixture("triangular-4-3").gabber_bound() == 27


def test_catalog_contents():
    names = [p.name for p in catalog()]
    assert names == [
        "univar-2",
        "univar-3",
        "triangular-2-2",
        "triangular-2-3",
        "triangular-3-2",
        "triangular-4-3",
        "m2zero-2-2",
        "random-2-2",
    ]
    with pytest.raises(KeyError):
        get_fixture("no-such-map")


def test_m2zero_square_vanishes_but_m_nonzero():
    pmap = m2zero_map()
    m = jacobian_matrix(pmap)
    assert not m.is_zero()
    assert (m * m).is_zero()


def test_triangular_map_shifts_variables():
    pmap = triangular_map(3, 2)
    hs = build_H(pmap)
    assert hs[0] == Poly.monomial((0, 2, 0))
    assert hs[1] == Poly.monomial((0, 0, 2))
    assert hs[2].is_zero()


def test_duplicates_that_cancel_are_pruned():
    t = SymTensor(2, 2, [((0, (1, 0)), Fraction(1, 2)), ((0, (0, 1)), Fraction(-1, 2)), ((1, (1, 1)), 3)])
    assert dict(t.entries) == {(1, (1, 1)): Fraction(3)}
    # a key that cancels and then reappears is kept with its final sum
    t = SymTensor(1, 2, [((0, (0, 0)), 1), ((0, (0, 0)), -1), ((0, (0, 0)), Fraction(2, 3))])
    assert dict(t.entries) == {(0, (0, 0)): Fraction(2, 3)}


def test_int_and_str_values_become_fractions():
    t = SymTensor(2, 2, {(0, (0, 1)): 3, (1, (0, 0)): "-5/6", (1, (1, 1)): Fraction(7)})
    assert dict(t.entries) == {
        (0, (0, 1)): Fraction(3),
        (1, (0, 0)): Fraction(-5, 6),
        (1, (1, 1)): Fraction(7),
    }
    assert all(type(v) is Fraction for v in t.entries.values())


def _accumulated_H(pmap) -> list[Poly]:
    """The construction build_H replaced: a Fraction sum per monomial, then Poly's checks."""
    n, d = pmap.n, pmap.d
    coeffs = [{} for _ in range(n)]
    for (i, lower), value in pmap.tensor.entries.items():
        exps = [0] * n
        for j in lower:
            exps[j] += 1
        orbit = factorial(d)
        for j in set(lower):
            orbit //= factorial(lower.count(j))
        mono = tuple(exps)
        coeffs[i][mono] = coeffs[i].get(mono, Fraction(0)) + value * orbit / factorial(d)
    return [Poly(n, c) for c in coeffs]


@pytest.mark.parametrize(
    "pmap",
    catalog() + [random_map(n, d, seed=40 + n + d) for n, d in ((1, 5), (3, 3), (4, 2), (2, 6))],
    ids=lambda p: f"{p.name}",
)
def test_build_h_equals_fraction_accumulation(pmap):
    H = build_H(pmap)
    assert H == _accumulated_H(pmap)
    assert all(type(c) is Fraction and c != 0 for h in H for c in h.terms.values())
