"""Matrix products, determinants and contractions on packed ints, against Fraction loops.

The oracles below are the Fraction-valued loops that computed these
objects on untruncated Poly arithmetic: matrix product, power and
cofactor determinant, the memoized powers and traces of M, the chain
contraction of the diagrammatic identities, and the tree contraction
with both tree sums.  They share no arithmetic with the packed kernel:
they use Poly or Fraction matrices, and the tree sums take their shapes
and weights from the same census and generated shapes.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import factorial

import pytest

from itertools import combinations_with_replacement

from treeinv._combinat import distinct_permutations
from treeinv.catalog import catalog, random_map
from treeinv.jacobian import LEG_BUDGET, _walk_chains, trace_powers
from treeinv.poly import Poly, Series
from treeinv.polymatrix import PolyMatrix, _from_parts
from treeinv.tensormap import (
    PolyMap,
    SymTensor,
    _jacobian_parts,
    _one_minus_m_parts,
    jacobian_matrix,
    jacobian_powers,
)
from treeinv.trees import (
    ValencedTree,
    VertexSet,
    _shapes_cached,
    amplitude_vector,
    labeled_shape_census,
    shape_automorphisms,
    tree_sum_inverse,
)

# -- matrix oracles -------------------------------------------------------


def _oracle_mul(A: PolyMatrix, B: PolyMatrix) -> PolyMatrix:
    dim, n = A.dim, A.n
    out = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = Poly.zero(n)
            for k in range(dim):
                acc = acc + A.entries[i][k] * B.entries[k][j]
            row.append(acc)
        out.append(row)
    return PolyMatrix(out)


def _oracle_det(rows: list[list[Poly]], n: int) -> Poly:
    dim = len(rows)
    if dim == 1:
        return rows[0][0]
    acc = Poly.zero(n)
    for i in range(dim):
        lead = rows[i][0]
        if lead.is_zero():
            continue
        minor = [row[1:] for k, row in enumerate(rows) if k != i]
        term = lead * _oracle_det(minor, n)
        acc = acc + (term if i % 2 == 0 else -term)
    return acc


def _random_entry(rng: random.Random, n: int, max_deg: int) -> Poly:
    """Mixed-degree polynomial with non-integer coefficients; sometimes zero."""
    if rng.random() < 0.2:
        return Poly.zero(n)
    terms = {}
    for _ in range(rng.randint(1, 4)):
        exps = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exps[rng.randrange(n)] += 1
        terms[tuple(exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    return Poly(n, terms)


def _random_matrix(rng: random.Random, dim: int, n: int, max_deg: int) -> PolyMatrix:
    rows = [[_random_entry(rng, n, max_deg) for _ in range(dim)] for _ in range(dim)]
    if dim > 1 and rng.random() < 0.3:
        rows[rng.randrange(dim)] = [Poly.zero(n)] * dim
    return PolyMatrix(rows)


def _matrix_cases() -> list:
    cases = []
    rng = random.Random(2024)
    for t in range(24):
        dim = 1 + t % 4
        n = 1 + t % 3
        max_deg = t % 4
        A = _random_matrix(rng, dim, n, max_deg)
        B = _random_matrix(rng, dim, n, (max_deg + 1) % 4)
        cases.append(pytest.param(A, B, id=f"random-{t}"))
    for pmap in catalog() + [random_map(3, 3, seed=5), random_map(4, 2, seed=6)]:
        M = jacobian_matrix(pmap)
        cases.append(pytest.param(PolyMatrix.identity(pmap.n, pmap.n) - M, M, id=f"I-M-{pmap.name}"))
    n = 2
    z = Poly.zero(n)
    cases.append(pytest.param(PolyMatrix.zero(3, n), PolyMatrix.identity(3, n), id="zero"))
    cases.append(
        pytest.param(
            PolyMatrix([[z, z], [Poly.const(n, Fraction(1, 3)), Poly.variable(n, 1)]]),
            PolyMatrix([[Poly.variable(n, 0), z], [z, Poly.const(n, -2)]]),
            id="zero-row",
        )
    )
    return cases


@pytest.mark.parametrize("A,B", _matrix_cases())
def test_matrix_product_power_det_against_poly_loops(A, B):
    assert A * B == _oracle_mul(A, B)
    assert B * A == _oracle_mul(B, A)
    want = A
    for k in range(1, 4):
        assert A.power(k) == want, k
        want = _oracle_mul(want, A)
    assert A.det() == _oracle_det(A.entries, A.n)
    assert B.det() == _oracle_det(B.entries, B.n)


@pytest.mark.parametrize(
    "pmap",
    catalog() + [random_map(2, 2, seed=21, name="seeded-2-2"), random_map(3, 3, seed=22, name="seeded-3-3")],
    ids=lambda p: p.name,
)
def test_memoized_powers_and_traces_against_poly_loops(pmap):
    # past 2n the memo starts over in a larger base; ask in both orders
    M = jacobian_matrix(pmap)
    top = 2 * pmap.n + 3
    want = [M]
    for _ in range(top - 1):
        want.append(_oracle_mul(want[-1], M))
    traces = [sum((P.entries[i][i] for i in range(pmap.n)), Poly.zero(pmap.n)) for P in want]
    for ks in (range(1, top + 1), range(top, 0, -1)):
        fresh = PolyMap(pmap.tensor, pmap.name)
        for k in ks:
            assert jacobian_powers(fresh, k).matrix(k) == want[k - 1], k
            assert trace_powers(fresh, k) == traces[:k], k


def _packed_m_maps() -> list[PolyMap]:
    seeded = [
        random_map(n, d, seed=100 + 10 * n + d, name=f"seeded-{n}-{d}")
        for n in (2, 3, 4)
        for d in (2, 3)
    ]
    return catalog() + seeded + [PolyMap(SymTensor(2, 2), name="zero-2-2")]


@pytest.mark.parametrize("pmap", _packed_m_maps(), ids=lambda p: p.name)
def test_packed_m_and_one_minus_m_unpack_to_jacobian_matrix(pmap):
    n = pmap.n
    M = jacobian_matrix(pmap)
    for base in (pmap.d, 2 * n * (pmap.d - 1) + 1):
        assert _from_parts(n, base, *_jacobian_parts(pmap.tensor, base)) == M
        assert _from_parts(n, base, *_one_minus_m_parts(pmap.tensor, base)) == (
            PolyMatrix.identity(n, n) - M
        )


# -- chain contraction oracle ----------------------------------------------


def _oracle_vertex_matrices(pmap: PolyMap, legs: tuple[int, ...], k: int) -> list | None:
    """W_v[a][b] = w_{a, b, legs of vertex v}; None when some W_v is zero."""
    n, per = pmap.n, pmap.d - 1
    mats = []
    for v in range(k):
        chunk = legs[v * per : (v + 1) * per]
        W = [[pmap.tensor.get(a, (b,) + chunk) for b in range(n)] for a in range(n)]
        if not any(any(row) for row in W):
            return None
        mats.append(W)
    return mats


def _oracle_mat_mul(A, B, n: int):
    return [
        [sum((A[i][t] * B[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def _oracle_walk(pmap: PolyMap, k: int, K: int) -> dict:
    """{mu: sum over arrangements of the Fraction product W_1 ... W_k}, nonzero sums only."""
    n = pmap.n
    out = {}
    for mu in combinations_with_replacement(range(n), K):
        total = [[Fraction(0)] * n for _ in range(n)]
        for legs in distinct_permutations(mu):
            mats = _oracle_vertex_matrices(pmap, legs, k)
            if mats is None:
                continue
            prod = mats[0]
            for v in range(1, k):
                prod = _oracle_mat_mul(prod, mats[v], n)
            for i in range(n):
                for j in range(n):
                    total[i][j] += prod[i][j]
        if any(any(row) for row in total):
            out[mu] = total
    return out


# The Fraction oracle takes seconds per map above 4^6 leg arrangements,
# far below LEG_BUDGET; larger walks are left to the sympy and Poly routes.
_ORACLE_ARRANGEMENTS = 4**6


def _chain_maps() -> list[PolyMap]:
    maps = list(catalog())
    for n in (2, 3, 4):
        for d in (2, 3, 4):
            maps.append(random_map(n, d, seed=10 * n + d, name=f"seeded-{n}-{d}"))
    # denominators with a large lcm, and a zero vertex matrix for every chunk holding leg 2
    maps.append(
        PolyMap(
            SymTensor(
                3,
                2,
                {
                    (0, (0, 1)): Fraction(5, 7),
                    (1, (0, 0)): Fraction(-2, 9),
                    (1, (1, 1)): Fraction(11, 4),
                    (2, (0, 1)): Fraction(1, 3),
                    (2, (1, 1)): Fraction(-3, 25),
                },
            ),
            name="mixed-dens-zero-vertex",
        )
    )
    return maps


@pytest.mark.parametrize("pmap", _chain_maps(), ids=lambda p: p.name)
def test_integer_chain_walk_against_fraction_walk(pmap):
    n, d = pmap.n, pmap.d
    for k in (1, 2, 3):
        K = k * (d - 1)
        if n**K > min(LEG_BUDGET, _ORACLE_ARRANGEMENTS):
            continue
        Lk, sums = _walk_chains(pmap, k, K)
        want = _oracle_walk(pmap, k, K)
        assert sums.keys() == want.keys(), k
        for mu, total in sums.items():
            assert [[Fraction(x, Lk) for x in row] for row in total] == want[mu], (k, mu)


def test_zero_vertex_matrix_case_has_one():
    pmap = _chain_maps()[-1]
    assert _oracle_vertex_matrices(pmap, (2,), 1) is None
    assert _oracle_vertex_matrices(pmap, (0,), 1) is not None


# -- tree contraction oracles ---------------------------------------------


def _tree_from_shape(shape, V: int, d: int) -> ValencedTree:
    """One labeled tree of the stratum with this rooted shape below the root's child."""
    vs = VertexSet.for_internal(V, d)
    internal = iter(range(1, V + 1))
    leaves = iter(range(V + 1, vs.total))
    edges = []

    def place(s, parent: int) -> None:
        v = next(internal) if s else next(leaves)
        edges.append((parent, v))
        for child in s:
            place(child, v)

    place(shape, 0)
    return ValencedTree(vs, edges)


def _oracle_contract(child_vecs: list[list[Poly]], pmap: PolyMap) -> list[Poly]:
    n = pmap.n
    by_lower: dict[tuple[int, ...], list[tuple[int, Fraction]]] = {}
    for (j, lower), value in pmap.tensor.entries.items():
        by_lower.setdefault(lower, []).append((j, value))
    out = [Poly.zero(n) for _ in range(n)]
    for lower, rows in by_lower.items():
        sym = Poly.zero(n)
        for perm in distinct_permutations(lower):
            prod = child_vecs[0][perm[0]]
            for t in range(1, len(perm)):
                prod = prod * child_vecs[t][perm[t]]
            sym = sym + prod
        for j, value in rows:
            out[j] = out[j] + sym.scale(value)
    return out


def _oracle_from_parents(parents, pmap: PolyMap) -> list[Poly]:
    T = len(parents)
    children: list[list[int]] = [[] for _ in range(T)]
    for v in range(1, T):
        children[parents[v]].append(v)

    def vec(v: int) -> list[Poly]:
        if not children[v]:
            return [Poly.variable(pmap.n, j) for j in range(pmap.n)]
        return _oracle_contract([vec(c) for c in children[v]], pmap)

    return vec(children[0][0])


def _oracle_from_shape(shape, pmap: PolyMap) -> list[Poly]:
    if shape == ():
        return [Poly.variable(pmap.n, j) for j in range(pmap.n)]
    return _oracle_contract([_oracle_from_shape(s, pmap) for s in shape], pmap)


def _oracle_tree_sum(pmap: PolyMap, D: int, method: str) -> list[Series]:
    n, d = pmap.n, pmap.d
    totals = [Poly.zero(n) for _ in range(n)]
    V = 0
    while (d - 1) * V + 1 <= D:
        N = (d - 1) * V + 1
        if method == "labeled":
            weighted = [
                (Fraction(count, factorial(V) * factorial(N)), _oracle_from_shape(shape, pmap))
                for count, shape in labeled_shape_census(V, d)
            ]
        else:
            weighted = [
                (Fraction(1, shape_automorphisms(s)), _oracle_from_shape(s, pmap))
                for s in _shapes_cached(V, d)
            ]
        for w, vec in weighted:
            for i in range(n):
                totals[i] = totals[i] + vec[i].scale(w)
        V += 1
    return [Series(t, D) for t in totals]


def _tree_maps() -> list[PolyMap]:
    maps = list(catalog())
    for n, d, seed in ((2, 2, 11), (3, 2, 12), (2, 3, 13), (3, 3, 14)):
        maps.append(random_map(n, d, seed=seed, name=f"seeded-{n}-{d}-{seed}"))
    return maps


@pytest.mark.parametrize("pmap", _tree_maps(), ids=lambda p: p.name)
def test_amplitudes_and_tree_sums_against_poly_contraction(pmap):
    d = pmap.d
    for V in range(5):
        for _, shape in labeled_shape_census(V, d):
            tree = _tree_from_shape(shape, V, d)
            assert amplitude_vector(tree, pmap) == _oracle_from_parents(tree.rooted(), pmap), V
    D = (d - 1) * 4 + 1
    for method in ("labeled", "grouped"):
        assert tree_sum_inverse(pmap, D, method=method) == _oracle_tree_sum(pmap, D, method), method
