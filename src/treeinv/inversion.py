"""Graded inversion, oracles, and inverse-structure checks.

The production inverse solves G = y + H(G) one homogeneous degree at a
time.  In the tree expansion the degree-m part G_m is the sum over trees
with (m-1)/(d-1) internal vertices, and each of the root's d subtrees
has lower degree; so [H(G)]_m involves only G_1..G_{m-1}, and computing
G_2, G_3, ... in order gives the exact truncated inverse with each
homogeneous part built once.  This is the recursive form of the tree
formula for the formal inverse (Bass, Connell and Wright 1982).  The
tree expansion must reproduce it
coefficient for coefficient; substitution (verify_inverse) and the
univariate reversion formula give independent checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from treeinv.errors import PreconditionError
from treeinv.poly import (
    _UNIT,
    _ZERO_PART,
    Poly,
    Series,
    _graded_dot,
    _indices,
    _lincomb,
    series_compose_many,
)
from treeinv.tensormap import PolyMap, build_H, jacobian_powers


def default_degree_cap(pmap: PolyMap) -> int:
    """max(10, d^(n-1) + d): shows saturation of the degree bound plus margin."""
    return max(10, pmap.gabber_bound() + pmap.d)


def fixed_point_inverse(pmap: PolyMap, D: int) -> list[Series]:
    """The solution G of G = y + H(G), truncated at total degree D.

    Graded recursion: G_1 = y and G_m = [H(G)]_m for m = 2..D, where the
    degree-m part of H(G) needs only G_1..G_{m-1} (each of the d factors
    of a monomial of H has degree at least 1).  Every monomial of H is a
    product of G-components taken in a fixed variable order; its prefix
    products are shared between monomials, and the degree-k part of each
    prefix is computed once, from the prefix one factor shorter.

    Only live degrees are computed.  A tree with V vertices has
    (d-1)V + 1 leaves, so G_m = 0 unless (m-1) % (d-1) == 0; the other
    degrees get the zero part without any work.  A prefix of j factors
    then has nonzero parts only in degrees congruent to j mod (d-1), and
    the recursion reaches no other degree, because it skips zero parts
    of G.
    """
    if D < 1:
        raise ValueError(f"degree cap must be >= 1, got {D}")
    n = pmap.n
    # parts[j][k] is the degree-k part of G_j: (den, numerators) on poly.py's kernel.
    parts = [[_ZERO_PART, Series.variable(n, j, D)._part(1)] for j in range(n)]
    prefix_parts: dict[tuple[tuple[int, ...], int], tuple[int, dict[int, int]]] = {}

    def prefix_part(prefix: tuple[int, ...], k: int) -> tuple[int, dict[int, int]]:
        """Degree-k part of the product of G_j over j in prefix (needs G_{<=k-len+1})."""
        key = (prefix, k)
        if key not in prefix_parts:
            head, last = prefix[:-1], parts[prefix[-1]]
            if not head:
                part = last[k]
            else:
                part = _graded_dot(
                    (1, prefix_part(head, k - j), last[j])
                    for j in range(1, k - len(head) + 1)
                    if last[j][1]
                )
            prefix_parts[key] = part
        return prefix_parts[key]

    # Each monomial c * x^a of H_i as (c, the variable indices it multiplies).
    monomials = [[(c, _indices(a)) for a, c in h.terms.items()] for h in build_H(pmap)]
    step = pmap.d - 1
    for m in range(2, D + 1):
        for i in range(n):
            parts[i].append(
                _graded_dot((c, prefix_part(prefix, m), _UNIT) for c, prefix in monomials[i])
                if (m - 1) % step == 0
                else _ZERO_PART
            )
    return [Series._from_parts(n, p) for p in parts]


def inverse_series(pmap: PolyMap, D: int) -> list[Series]:
    """G truncated at D, from the per-map memo.

    fixed_point_inverse runs once, at the largest cap asked for so far;
    smaller caps are truncations of it (G_m does not depend on the cap).
    """
    G = pmap._memo.get("G")
    if D < 1 or G is None or G[0].cap < D:
        G = pmap._memo["G"] = fixed_point_inverse(pmap, D)
    return [g.truncate(D) for g in G]


def lagrange_oracle_1d(d: int, a, D: int) -> Series:
    """Reversion of y = x - a*x^d by the classical coefficient formula.

    Sum over k with (d-1)k + 1 <= D of
    binom(dk, k) / ((d-1)k + 1) * a^k * y^((d-1)k+1).
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    a = Fraction(a)
    terms = {}
    k = 0
    while (d - 1) * k + 1 <= D:
        deg = (d - 1) * k + 1
        c = Fraction(comb(d * k, k), deg) * a**k
        if c != 0:
            terms[(deg,)] = c
        k += 1
    return Series(Poly(1, terms), D)


def verify_inverse(pmap: PolyMap, G: list[Series], D: int) -> bool:
    """True iff F(G(y)) = y holds exactly through degree D."""
    n = pmap.n
    if len(G) != n:
        raise ValueError(f"expected {n} components, got {len(G)}")
    if any(g.cap < D for g in G):
        raise ValueError(f"series caps {[g.cap for g in G]} below {D}")
    Gt = [g.truncate(D) for g in G]
    HG = series_compose_many(build_H(pmap), Gt)
    for i, (g, hg) in enumerate(zip(Gt, HG)):
        y = Series.variable(n, i, D)
        terms = [(1, g.den, g.comps), (-1, hg.den, hg.comps), (-1, y.den, y.comps)]
        if not _lincomb(n, D, terms).is_zero():
            return False
    return True


def correlation_tensor(pmap: PolyMap, i: int, leaf_indices, D: int | None = None):
    """Mixed partial d^N G_i / dy_{j1}..dy_{jN} at y = 0 (indices 0-based).

    Equals the coefficient of the matching monomial times the product of
    leaf-index multiplicities factorial; symmetric in the leaf multiset
    by construction.
    """
    leaves = tuple(sorted(leaf_indices))
    N = len(leaves)
    if N < 1:
        raise ValueError("need at least one leaf index")
    if not 0 <= i < pmap.n or any(not 0 <= j < pmap.n for j in leaves):
        raise ValueError(f"indices outside [0, {pmap.n})")
    if D is None:
        D = N
    elif D < N:
        raise ValueError(f"multiset size {N} exceeds series cap {D}")
    G = inverse_series(pmap, D)
    exps = [0] * pmap.n
    for j in leaves:
        exps[j] += 1
    value = G[i].coefficient(tuple(exps))
    for e in exps:
        if e > 1:
            for t in range(2, e + 1):
                value *= t
    return value


def polynomial_inverse_degree(pmap: PolyMap, D_cap: int) -> int | None:
    """Largest nonzero degree of G up to D_cap, if within d^(n-1).

    Vanishing of all components above d^(n-1) out to D_cap is evidence
    of a polynomial inverse, not proof; callers get the observed degree
    or None, never a stronger claim.
    """
    bound = pmap.gabber_bound()
    if D_cap <= bound:
        raise ValueError(f"cap {D_cap} must exceed the degree bound {bound}")
    return _top_degree(inverse_series(pmap, D_cap), D_cap, bound)


def _top_degree(G: list[Series], D_cap: int, bound: int) -> int | None:
    """Largest nonzero degree of G up to D_cap if it is at most bound, else None."""
    top = 1
    for g in G:
        for deg in range(D_cap, 0, -1):
            if not g.homogeneous_component(deg).is_zero():
                top = max(top, deg)
                break
    return top if top <= bound else None


def check_quadratic_nilpotent_theorem(pmap: PolyMap, D: int) -> bool:
    """With M(x)^2 = 0, the inverse must close after one step: G = y + H(y).

    Raises unless M(x)^2 vanishes identically; under the precondition,
    returns whether fixed_point_inverse(map, D) equals y + H(y) exactly.
    """
    if not jacobian_powers(pmap, 2).is_zero(2):
        raise PreconditionError(
            "Jacobian matrix does not square to zero; the one-step inverse "
            "form only applies to order-2 nilpotent maps"
        )
    n = pmap.n
    H = build_H(pmap)
    G = inverse_series(pmap, D)
    expected = [Series(Poly.variable(n, i) + H[i], D) for i in range(n)]
    return G == expected


@dataclass
class InverseReport:
    """Summary of one inversion run."""

    series: list[Series]
    verified_to: int
    polynomial_degree: int | None
    gabber_bound: int


def invert_report(pmap: PolyMap, D: int | None = None) -> InverseReport:
    """Inverse series plus verification and degree diagnostics."""
    if D is None:
        D = default_degree_cap(pmap)
    G = inverse_series(pmap, D)
    if not verify_inverse(pmap, G, D):
        raise AssertionError("fixed point failed inverse verification")
    bound = pmap.gabber_bound()
    poly_deg = _top_degree(G, D, bound) if D > bound else None
    return InverseReport(
        series=G, verified_to=D, polynomial_degree=poly_deg, gabber_bound=bound
    )
