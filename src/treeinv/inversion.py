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
from math import comb, lcm

from treeinv._combinat import exponents, multiplicity_factor
from treeinv.errors import DimensionMismatchError, PreconditionError
from treeinv.plan import PLANS, Plan, Recorder
from treeinv.poly import Poly, Series, _addmul, _composed_sums, _indices, _prefixes, _variables
from treeinv.tensormap import PolyMap, _h_series, build_H, jacobian_powers


def default_degree_cap(pmap: PolyMap) -> int:
    """max(10, d^(n-1) + d): shows saturation of the degree bound plus margin."""
    return max(10, pmap.gabber_bound() + pmap.d)


def fixed_point_inverse(pmap: PolyMap, D: int) -> list[Series]:
    """The solution G of G = y + H(G), truncated at total degree D.

    Graded recursion: G_1 = y and G_m = [H(G)]_m for m = 2..D, where the
    degree-m part of H(G) needs only G_1..G_{m-1} (each of the d factors
    of a monomial of H has degree at least 1).  Every monomial of H is a
    product of G-components taken in a fixed variable order; its prefix
    products are shared between monomials, and each prefix keeps one
    list of its parts by degree (see _graded_parts).

    Each part is a bare dict of int numerators: H is read off its
    memoized Series as ints over K, the lcm of their denominators, so G_m
    is over K^V with V = (m-1)/(d-1), and a prefix part of l factors at
    degree k over K^((k-l)/(d-1)).  Each K^V is applied once, when the
    Series is made.

    Which keys the recursion pairs depends only on (n, d, D) and the keys
    of each H_i, so the plan cache (plan.py) compiles that structure into
    a flat plan on its second sighting, and later maps of it run the
    plan on H_i's numerators over K, keyed as in H_i.  A first sighting,
    or a structure whose plan would pass plan.LIMIT triples, runs the
    recursion on dicts; the plans held stay within plan.BUDGET triples.
    Both routes give the same numerators.
    """
    if D < 1:
        raise ValueError(f"degree cap must be >= 1, got {D}")
    n, d = pmap.n, pmap.d
    H = _h_series(pmap)
    K = lcm(*[h.den for h in H])
    # H_i's keys in their own order, which a map's tensor fixes, so the
    # plan's outputs keep the dict route's order
    keys = tuple([tuple(h.comps[d]) for h in H])
    plan = PLANS.get(("G", n, d, D, keys), lambda limit: _fixed_point_plan(n, d, D, keys, limit))
    # each H_i's numerators over K
    nums = [[(k, c * (K // h.den)) for k, c in h.comps[d].items()] for h in H]
    if plan is None:
        monomials = [[(c, _indices(k, n, d + 1)) for k, c in row] for row in nums]
        parts = _graded_parts(n, d, D, monomials, _variables(n, D + 1), _addmul)
    else:
        parts = plan.run(nums)
    dens = [K ** (max(k - 1, 0) // (d - 1)) for k in range(D + 1)]
    return [Series._from_parts(n, list(zip(dens, p))) for p in parts]


def _fixed_point_plan(n: int, d: int, D: int, keys, limit: int) -> Plan:
    """The fixed point's recursion recorded as a plan whose inputs are the H_i, keyed by keys[i]."""
    rec = Recorder(limit)
    monomials = [[(s, _indices(k, n, d + 1)) for k, s in rec.input(ks).items()] for ks in keys]
    # slot 0 holds the 1 of each variable
    variables = [{k: 0 for k in x} for x in _variables(n, D + 1)]
    return Plan(rec, _graded_parts(n, d, D, monomials, variables, rec.addmul))


def _graded_parts(n: int, d: int, D: int, monomials, variables, addmul) -> list[list[dict]]:
    """For each i, the parts of G_i by degree, from H's monomials as (c, variable indices).

    Only live degrees are computed.  A tree with V vertices has
    (d-1)V + 1 leaves, so G_m = 0 unless (m-1) % (d-1) == 0; the other
    degrees keep the zero part without any work.  At each live m the
    prefixes are visited in order of length, and a prefix of l factors
    gets its degree m - d + l part from its head's parts (the top one
    made just before it at the same m) and G's parts below m.  Its
    nonzero parts lie in degrees congruent to l mod (d-1), the only ones
    the loop reads, because j steps over the live degrees of G only.

    The dicts hold whatever addmul multiplies: numerators with
    poly._addmul, slots with a plan's Recorder.addmul.
    """
    # parts[j][k] is the degree-k part of G_j, packed in base D + 1.
    parts = [[{}, x] + [{}] * (D - 1) for x in variables]
    # prefix_parts[p][k] is the degree-k part of the product of G_j over j in p.
    prefix_parts = {(j,): parts[j] for j in range(n)}
    steps = []
    for p in _prefixes(p for row in monomials for _, p in row):
        prefix_parts[p] = [{}] * (D + 1)
        steps.append((len(p), prefix_parts[p[:-1]], parts[p[-1]], prefix_parts[p]))
    for m in range(d, D + 1, d - 1):
        for l, head, last, own in steps:
            k = m - d + l
            own[k] = acc = {}
            for j in range(1, k - l + 2, d - 1):
                addmul(acc, head[k - j], last[j])
        for i in range(n):
            parts[i][m] = acc = {}
            for c, p in monomials[i]:
                addmul(acc, {0: c}, prefix_parts[p][m])
    return parts


def inverse_series(pmap: PolyMap, D: int) -> list[Series]:
    """G truncated at D, from the per-map memo.

    fixed_point_inverse runs once, at the largest cap asked for so far;
    smaller caps are truncations of it (G_m does not depend on the cap).
    """
    G = pmap._memoized(
        "G", lambda: fixed_point_inverse(pmap, D), lambda got: 1 <= D <= got[0].cap
    )
    return [g.truncate(D) for g in G]


def lagrange_oracle_1d(d: int, a, D: int) -> Series:
    """Reversion of y = x - a*x^d by the classical coefficient formula.

    Sum over k with (d-1)k + 1 <= D of
    binom(dk, k) / ((d-1)k + 1) * a^k * y^((d-1)k+1).
    """
    if d < 2:
        raise ValueError(f"need d >= 2, got {d}")
    if D < 0:
        raise ValueError(f"cap must be non-negative, got {D}")
    a = Fraction(a)
    parts = [(1, {})] * (D + 1)
    for k in range((D - 1) // (d - 1) + 1):
        deg = (d - 1) * k + 1
        c = Fraction(comb(d * k, k), deg) * a**k
        parts[deg] = (c.denominator, {deg: c.numerator})
    return Series._from_parts(1, parts)


def _truncated(pmap: PolyMap, G: list[Series], D: int) -> list[Series]:
    """A caller's G truncated to degree D: n components in the map's n variables, each reaching D.

    Anything else raises ValueError (DimensionMismatchError for a
    component in another number of variables).
    """
    n = pmap.n
    if len(G) != n:
        raise ValueError(f"expected {n} components, got {len(G)}")
    if any(g.n != n for g in G):
        raise DimensionMismatchError(f"components in {[g.n for g in G]} variables, map has n={n}")
    if any(g.cap < D for g in G):
        raise ValueError(f"series caps {[g.cap for g in G]} below {D}")
    return [g.truncate(D) for g in G]


def verify_inverse(pmap: PolyMap, G: list[Series], D: int) -> bool:
    """True iff F(G(y)) = y holds exactly through degree D.

    The residual is never reduced: the numerators of H_i(G) - G_i over
    the lcm L of its terms' denominators must be -L at y_i's key and
    zero at every other key.  They come from one composition
    (poly._composed_sums), which from a structure's second sighting on
    runs a plan compiled over a dense shadow of G's parts; a numerator
    that G lacks there reads as 0.  Its plans are recorded from the
    composition's own recursion, never the fixed point's, so it stays
    the fixed point's oracle.
    """
    G = _truncated(pmap, G, D)
    for i, (L, comps) in enumerate(_composed_sums(_h_series(pmap), G, subtract=True)):
        # keys of different degrees are different monomials, so the merge loses none
        residual = {k: v for c in comps for k, v in c.items() if v}
        if residual != ({(D + 1) ** i: -L} if D >= 1 else {}):
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
    return G[i].coefficient(exponents(leaves, pmap.n)) * multiplicity_factor(leaves)


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
            if g.comps[deg]:
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
    expected = [Series(Poly.variable(pmap.n, i) + h, D) for i, h in enumerate(build_H(pmap))]
    return inverse_series(pmap, D) == expected


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
