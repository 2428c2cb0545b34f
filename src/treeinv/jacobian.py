"""Equivalent forms of the unit-Jacobian condition.

For F = x - H with H homogeneous of degree d, write M(x) for the matrix
of partials of H.  det(I - M(x)) = 1 identically, nilpotency of M(x),
and vanishing of all tr M(x)^k are equivalent over characteristic zero;
analyze() computes all three and refuses to return a verdict in which
they disagree.  The determinant is a cofactor expansion of its own copy
of I - M, packed from the tensor's ints, and shares nothing with the
powers of M; nilpotency and traces read the same per-map powers, since
they are the same matrices.  The powers and their traces are packed
int numerators over denominators fixed by structure (see polymatrix.py)
and the determinant is the map's memoized Series (tensormap.py); only
trace_powers unpacks to Poly.  Only what a reading needs is formed: a
zero test of M^k is answered by M's values at a fixed integer point
when they prove M^k != 0, and otherwise on the symbolic M^k, so a zero
is always proven exactly, and analyze forms a matrix product only for
a power that is zero at that point (on a non-unit map, none).  tr M^k
comes from the two halves M^ceil(k/2), M^floor(k/2) unless M^k is
already held.

The diagrammatic forms contract chains (open) or loops (closed) of k
tensor vertices and symmetrize over the k(d-1) free legs.  No
normalization is applied per vertex, so the k = 1 chain is w itself;
symmetrization over legs is an average, and the result is proportional
to the coefficients of [M(x)^k]_{ij} (resp. tr M(x)^k) monomial by
monomial.  Both the contraction and the coefficient-extraction routes
are computed and their agreement is asserted on every call, so a zero
tensor is never an artifact of one code path.  The contraction reads
only the tensor, never the memoized powers or the packed kernel: it
takes the tensor's int form over the lcm L of its denominators
(SymTensor._scaled) and multiplies int vertex matrices, so its sums
are exact over L^k; the coefficient route reads packed keys of M^k,
whose numerators are over (L (d-1)!)^k.  A sum and a numerator of the
same leg multiset are then equal as ints, and are compared so.  The
chain and the loop of one length share one contraction walk, kept in
the map's memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from math import factorial

from treeinv._combinat import distinct_permutations, exponents, multiplicity_factor
from treeinv.errors import BudgetExceededError, GuardExceededError
from treeinv.poly import Poly, Series, _from_nums, _pack
from treeinv.polymatrix import DET_DIM_GUARD, _mat_mul
from treeinv.tensormap import PolyMap, _det_series, jacobian_powers

ChainTensor = dict[tuple[int, int, tuple[int, ...]], Fraction]
LoopTensor = dict[tuple[int, ...], Fraction]
# (L^k, {leg multiset: int matrix}), a chain walk's sums over one denominator
ChainSums = tuple[int, dict[tuple[int, ...], list[list[int]]]]

LEG_BUDGET = 10**6


def is_unit_jacobian(pmap: PolyMap, guard: int = DET_DIM_GUARD) -> bool:
    """True iff det(I - M(x)) is the constant polynomial 1."""
    det = _det_series(pmap, guard)
    return det == Series.one(det.n, det.cap)


def nilpotency_order(pmap: PolyMap) -> int | None:
    """Least k <= n with M(x)^k = 0, if any.

    The search stops at n: an n x n matrix nilpotent at any order is
    nilpotent at order n, so larger exponents add nothing.
    """
    powers = jacobian_powers(pmap, pmap.n)
    for k in range(1, pmap.n + 1):
        if powers.is_zero(k):
            return k
    return None


def trace_powers(pmap: PolyMap, k_max: int | None = None) -> list[Poly]:
    """tr M(x)^k for k = 1..k_max (default n); entries homogeneous or zero."""
    if k_max is None:
        k_max = pmap.n
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    powers = jacobian_powers(pmap, k_max)
    return [
        _from_nums(pmap.n, powers.base, powers.den**k, powers.trace(k)) for k in range(1, k_max + 1)
    ]


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
    powers = jacobian_powers(pmap, pmap.n)
    # a trace holds no zero numerator (polymatrix.py), so an empty dict is tr M^k = 0
    traces = not any(powers.trace(k) for k in range(1, pmap.n + 1))
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


def _chain_products(pmap: PolyMap, k: int, K: int) -> ChainSums:
    """Sum over leg arrangements of the k-vertex chain product, per multiset.

    Walked once per map and k (memoized): the chain tensor reads these
    sums and the loop tensor their traces.
    """
    return pmap._memoized(("chain", k), lambda: _walk_chains(pmap, k, K))


def _walk_chains(pmap: PolyMap, k: int, K: int) -> ChainSums:
    """L^k and, per leg multiset mu, L^k times the sum of W_1 ... W_k over arrangements of mu.

    The tensor is read in its int form over the lcm L of its denominators
    (SymTensor._scaled), so each vertex matrix W(chunk)[a][b] =
    L w_{a, b + chunk} is an int matrix, built once per distinct chunk,
    and the products run on ints.
    Multisets whose sum is zero are left out.  Reads only the tensor.
    """
    n, per = pmap.n, pmap.d - 1
    L, scaled = pmap.tensor._scaled
    vertex = {}
    for chunk in combinations_with_replacement(range(n), per):
        W = [[scaled.get((a, tuple(sorted((b,) + chunk))), 0) for b in range(n)] for a in range(n)]
        if any(any(row) for row in W):
            vertex[chunk] = W
    sums = {}
    for mu in combinations_with_replacement(range(n), K):
        total = [[0] * n for _ in range(n)]
        for legs in distinct_permutations(mu):
            prod = None
            for v in range(k):
                W = vertex.get(tuple(sorted(legs[v * per : (v + 1) * per])))
                if W is None:
                    break
                prod = W if prod is None else _mat_mul(prod, W)
            else:
                for trow, prow in zip(total, prod):
                    for j, x in enumerate(prow):
                        trow[j] += x
        if any(any(row) for row in total):
            sums[mu] = total
    return L**k, sums


def _routes(pmap: PolyMap, k: int, budget: int):
    """The walk for k, the powers of M, and the denominator of the tensor values.

    A contraction sum x over L^k and a numerator c of M^k over
    (L (d-1)!)^k are the same leg-symmetrized value, m(mu) / K! times
    each, iff x == c; the tensor value is x m(mu) / over with
    over = L^k K!.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    K = k * (pmap.d - 1)
    _check_leg_budget(pmap.n, K, budget)
    Lk, sums = _chain_products(pmap, k, K)
    return K, sums, jacobian_powers(pmap, k), Lk * factorial(K)


def symmetrized_chain_tensor(
    pmap: PolyMap, k: int, budget: int = LEG_BUDGET
) -> ChainTensor:
    """Open chain of k vertices from i to j, legs symmetrized by averaging.

    Keys are (i, j, sorted leg multiset); zero values are omitted, so an
    identically vanishing chain is the empty dict.  Vanishing of this
    tensor is equivalent to M(x)^k = 0.
    """
    n = pmap.n
    K, sums, powers, over = _routes(pmap, k, budget)
    # independent route: coefficients of the matrix power, read on its packed numerators
    Mk = powers.power(k)
    zero = [[0] * n] * n
    result: ChainTensor = {}
    for mu in combinations_with_replacement(range(n), K):
        key = _pack(exponents(mu, n), powers.base)
        total = sums.get(mu, zero)
        m = multiplicity_factor(mu)
        for i in range(n):
            for j in range(n):
                x = total[i][j]
                if x != Mk[i][j].get(key, 0):
                    raise AssertionError(f"chain tensor paths disagree for k={k} on {pmap!r}")
                if x:
                    result[(i, j, mu)] = Fraction(x * m, over)
    return result


def symmetrized_loop_tensor(
    pmap: PolyMap, k: int, budget: int = LEG_BUDGET
) -> LoopTensor:
    """Chain closed into a trace; keys are leg multisets, zeros omitted.

    Vanishing is equivalent to tr M(x)^k = 0.
    """
    n = pmap.n
    K, sums, powers, over = _routes(pmap, k, budget)
    nums = powers.trace(k)
    result: LoopTensor = {}
    for mu in combinations_with_replacement(range(n), K):
        total = sums.get(mu)
        tr = sum(total[i][i] for i in range(n)) if total else 0
        if tr != nums.get(_pack(exponents(mu, n), powers.base), 0):
            raise AssertionError(f"loop tensor paths disagree for k={k} on {pmap!r}")
        if tr:
            result[mu] = Fraction(tr * multiplicity_factor(mu), over)
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

    powers = [[[Fraction(1 if i == j else 0) for j in range(dim)] for i in range(dim)]]
    for _ in range(dim):
        powers.append(_mat_mul(powers[-1], rows))
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
