"""Equivalent forms of the unit-Jacobian condition.

For F = x - H with H homogeneous of degree d, write M(x) for the matrix
of partials of H.  det(I - M(x)) = 1 identically, nilpotency of M(x),
and vanishing of all tr M(x)^k are equivalent over characteristic zero;
analyze() computes all three and refuses to return a verdict in which
they disagree.  The determinant is a cofactor expansion that shares
nothing with the powers of M; nilpotency and traces read the same
per-map powers, since they are the same matrices.  Both the powers and
the determinant are computed on packed integer parts (see polymatrix.py)
and read here as Poly.

The diagrammatic forms contract chains (open) or loops (closed) of k
tensor vertices and symmetrize over the k(d-1) free legs.  No
normalization is applied per vertex, so the k = 1 chain is w itself;
symmetrization over legs is an average, and the result is proportional
to the coefficients of [M(x)^k]_{ij} (resp. tr M(x)^k) monomial by
monomial.  Both the contraction and the coefficient-extraction routes
are computed and their agreement is asserted on every call, so a zero
tensor is never an artifact of one code path; the contraction reads
only the tensor, never the memoized powers.  The chain and the loop of
one length share one contraction walk, kept in the map's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from treeinv._combinat import distinct_permutations, multiplicity_factor
from treeinv.errors import BudgetExceededError, GuardExceededError
from treeinv.poly import Poly
from treeinv.polymatrix import DET_DIM_GUARD
from treeinv.tensormap import PolyMap, jacobian_det, jacobian_power

ChainTensor = dict[tuple[int, int, tuple[int, ...]], Fraction]
LoopTensor = dict[tuple[int, ...], Fraction]

LEG_BUDGET = 10**6


def is_unit_jacobian(pmap: PolyMap, guard: int = DET_DIM_GUARD) -> bool:
    """True iff det(I - M(x)) is the constant polynomial 1."""
    return jacobian_det(pmap, guard) == Poly.const(pmap.n, Fraction(1))


def nilpotency_order(pmap: PolyMap) -> int | None:
    """Least k <= n with M(x)^k = 0, if any.

    The search stops at n: an n x n matrix nilpotent at any order is
    nilpotent at order n, so larger exponents add nothing.
    """
    for k in range(1, pmap.n + 1):
        if jacobian_power(pmap, k).is_zero():
            return k
    return None


def trace_powers(pmap: PolyMap, k_max: int | None = None) -> list[Poly]:
    """tr M(x)^k for k = 1..k_max (default n); entries homogeneous or zero."""
    if k_max is None:
        k_max = pmap.n
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    return [jacobian_power(pmap, k).trace() for k in range(1, k_max + 1)]


@dataclass
class JacobianVerdict:
    """The three equivalent readings of the Jacobian condition."""

    unit_jacobian: bool
    nilpotency_order: int | None
    traces_vanish: bool


def analyze(pmap: PolyMap, guard: int = DET_DIM_GUARD) -> JacobianVerdict:
    """Compute all three conditions and assert their equivalence."""
    unit = is_unit_jacobian(pmap, guard)
    order = nilpotency_order(pmap)
    traces = all(t.is_zero() for t in trace_powers(pmap))
    if not (unit == (order is not None) == traces):
        raise AssertionError(
            f"equivalence violated on {pmap!r}: det={unit}, "
            f"nilpotency={order}, traces={traces}"
        )
    return JacobianVerdict(
        unit_jacobian=unit, nilpotency_order=order, traces_vanish=traces
    )


def _check_leg_budget(n: int, K: int, budget: int) -> None:
    if n**K > budget:
        raise BudgetExceededError(
            f"leg assignments n^K = {n}^{K} exceed budget {budget}"
        )


def _vertex_matrices(pmap: PolyMap, legs: tuple[int, ...], k: int) -> list | None:
    """W_v[a][b] = w_{a, b, legs of vertex v}; None when some W_v is zero."""
    tensor = pmap.tensor
    n, d = pmap.n, pmap.d
    per = d - 1
    mats = []
    for v in range(k):
        chunk = legs[v * per : (v + 1) * per]
        any_nonzero = False
        W = [[Fraction(0)] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                val = tensor.entries.get((a, tuple(sorted((b,) + chunk))))
                if val is not None:
                    W[a][b] = val
                    any_nonzero = True
        if not any_nonzero:
            return None
        mats.append(W)
    return mats


def _mat_mul(A, B, n: int):
    return [
        [sum((A[i][t] * B[t][j] for t in range(n)), Fraction(0)) for j in range(n)]
        for i in range(n)
    ]


def _chain_products(pmap: PolyMap, k: int, K: int):
    """Sum over leg arrangements of the k-vertex chain product, per multiset.

    Walked once per map and k (memoized): the chain tensor reads these
    products and the loop tensor their traces.
    """
    return pmap._memoized(("chain", k), lambda: _walk_chains(pmap, k, K))


def _walk_chains(pmap: PolyMap, k: int, K: int):
    n = pmap.n
    out: dict[tuple[int, ...], list[list[Fraction]]] = {}
    for mu in combinations_with_replacement(range(n), K):
        total = [[Fraction(0)] * n for _ in range(n)]
        seen = False
        for legs in distinct_permutations(mu):
            mats = _vertex_matrices(pmap, legs, k)
            if mats is None:
                continue
            prod = mats[0]
            for v in range(1, k):
                prod = _mat_mul(prod, mats[v], n)
            for i in range(n):
                row = prod[i]
                for j in range(n):
                    if row[j]:
                        total[i][j] += row[j]
                        seen = True
        if seen:
            out[mu] = total
    return out


def _coeff_factor(mu: tuple[int, ...], d: int, k: int) -> Fraction:
    """Converts a coefficient of [M^k] into the symmetrized-leg value."""
    K = k * (d - 1)
    return Fraction(
        factorial(d - 1) ** k * multiplicity_factor(mu), factorial(K)
    )


def _monomial_of(mu: tuple[int, ...], n: int) -> tuple[int, ...]:
    exps = [0] * n
    for j in mu:
        exps[j] += 1
    return tuple(exps)


def symmetrized_chain_tensor(
    pmap: PolyMap, k: int, budget: int = LEG_BUDGET
) -> ChainTensor:
    """Open chain of k vertices from i to j, legs symmetrized by averaging.

    Keys are (i, j, sorted leg multiset); zero values are omitted, so an
    identically vanishing chain is the empty dict.  Vanishing of this
    tensor is equivalent to M(x)^k = 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, d = pmap.n, pmap.d
    K = k * (d - 1)
    _check_leg_budget(n, K, budget)

    result: ChainTensor = {}
    over_arrangements = Fraction(1, factorial(K))
    for mu, prod in _chain_products(pmap, k, K).items():
        weight = over_arrangements * multiplicity_factor(mu)
        for i in range(n):
            for j in range(n):
                if prod[i][j]:
                    result[(i, j, mu)] = prod[i][j] * weight

    # independent route: coefficients of the matrix power
    Mk = jacobian_power(pmap, k)
    check: ChainTensor = {}
    for mu in combinations_with_replacement(range(n), K):
        mono = _monomial_of(mu, n)
        factor = _coeff_factor(mu, d, k)
        for i in range(n):
            for j in range(n):
                c = Mk.entries[i][j].coefficient(mono)
                if c:
                    check[(i, j, mu)] = c * factor
    if result != check:
        raise AssertionError(f"chain tensor paths disagree for k={k} on {pmap!r}")
    return result


def symmetrized_loop_tensor(
    pmap: PolyMap, k: int, budget: int = LEG_BUDGET
) -> LoopTensor:
    """Chain closed into a trace; keys are leg multisets, zeros omitted.

    Vanishing is equivalent to tr M(x)^k = 0.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    n, d = pmap.n, pmap.d
    K = k * (d - 1)
    _check_leg_budget(n, K, budget)

    result: LoopTensor = {}
    over_arrangements = Fraction(1, factorial(K))
    for mu, prod in _chain_products(pmap, k, K).items():
        tr = sum((prod[i][i] for i in range(n)), Fraction(0))
        if tr:
            result[mu] = tr * over_arrangements * multiplicity_factor(mu)

    tr_poly = jacobian_power(pmap, k).trace()
    check: LoopTensor = {}
    for mu in combinations_with_replacement(range(n), K):
        c = tr_poly.coefficient(_monomial_of(mu, n))
        if c:
            check[mu] = c * _coeff_factor(mu, d, k)
    if result != check:
        raise AssertionError(f"loop tensor paths disagree for k={k} on {pmap!r}")
    return result


NEWTON_DIM_GUARD = 6


def newton_cayley_hamilton_check(m: list[list], guard: int = NEWTON_DIM_GUARD) -> bool:
    """Verify sum of (-1)^k e_k m^(n-k) = 0 with e_k from Newton's identities.

    m is a square matrix of rationals.  The elementary symmetric
    functions of the eigenvalues are recovered from power sums
    p_k = tr(m^k) without ever computing eigenvalues.
    """
    dim = len(m)
    if dim > guard:
        raise GuardExceededError(f"matrix dim {dim} exceeds guard {guard}")
    rows = [[Fraction(v) for v in row] for row in m]
    if any(len(row) != dim for row in rows):
        raise ValueError("matrix is not square")

    def mul(A, B):
        return [
            [
                sum((A[i][t] * B[t][j] for t in range(dim)), Fraction(0))
                for j in range(dim)
            ]
            for i in range(dim)
        ]

    powers = [[[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]]
    for _ in range(dim):
        powers.append(mul(powers[-1], rows))
    p = [Fraction(0)] + [
        sum((powers[k][i][i] for i in range(dim)), Fraction(0))
        for k in range(1, dim + 1)
    ]
    e = [Fraction(1)] + [Fraction(0)] * dim
    for k in range(1, dim + 1):
        acc = Fraction(0)
        for i in range(1, k + 1):
            acc += (-1) ** (i - 1) * e[k - i] * p[i]
        e[k] = acc / k

    total = [[Fraction(0)] * dim for _ in range(dim)]
    for k in range(dim + 1):
        sign = -1 if k % 2 else 1
        Pk = powers[dim - k]
        for i in range(dim):
            for j in range(dim):
                total[i][j] += sign * e[k] * Pk[i][j]
    return all(v == 0 for row in total for v in row)
