"""Symmetric coefficient tensors and the polynomial maps they define.

A map F(x) = x - H(x) is stored through its coefficient tensor w: the
component H_i is (1/d!) times the sum of w_{i,j1..jd} x_{j1}..x_{jd} over
all ordered index tuples.  The tensor is fully symmetric in the lower
indices, so one canonical entry (lower indices sorted) represents a whole
orbit of ordered tuples; orbit sizes are multinomial coefficients.

Indices are 0-based internally; file formats and printed reports use
1-based indices.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from types import MappingProxyType

from treeinv._combinat import multiset_orbit_size
from treeinv.poly import Poly
from treeinv.polymatrix import DET_DIM_GUARD, PackedPowers, PolyMatrix, check_det_guard

TensorKey = tuple[int, tuple[int, ...]]


class SymTensor:
    """Coefficient tensor with one upper index and d symmetric lower indices.

    ``entries`` maps (i, sorted lower tuple) to a nonzero Fraction.
    Construction sorts lower indices, sums duplicate keys, prunes zeros,
    and validates index ranges.  A tensor is read-only afterwards (no
    attribute can be set, ``entries`` is a read-only view), so nothing
    derived from it can go stale.
    """

    __slots__ = ("n", "d", "entries")

    def __init__(self, n: int, d: int, entries=None):
        if n < 1:
            raise ValueError(f"dimension must be positive, got {n}")
        if d < 2:
            raise ValueError(f"lower-index arity must be at least 2, got {d}")
        clean: dict[TensorKey, Fraction] = {}
        if entries:
            items = entries.items() if hasattr(entries, "items") else entries
            for (i, lower), value in items:
                lower = tuple(sorted(lower))
                if len(lower) != d:
                    raise ValueError(
                        f"entry ({i}, {lower}) has {len(lower)} lower indices, expected {d}"
                    )
                if not 0 <= i < n or any(not 0 <= j < n for j in lower):
                    raise ValueError(f"entry ({i}, {lower}) has indices outside [0, {n})")
                if not isinstance(value, Fraction):
                    value = Fraction(value)
                key = (i, lower)
                if key in clean:
                    value += clean[key]
                clean[key] = value
            clean = {key: value for key, value in clean.items() if value}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", MappingProxyType(clean))

    def __setattr__(self, name, value):
        raise AttributeError(f"SymTensor is read-only; cannot set {name!r}")

    def get(self, i: int, lower) -> Fraction:
        """Entry for any ordering of the lower indices."""
        return self.entries.get((i, tuple(sorted(lower))), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymTensor)
            and (self.n, self.d) == (other.n, other.d)
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.n, self.d, frozenset(self.entries.items())))

    def __repr__(self) -> str:
        return f"SymTensor(n={self.n}, d={self.d}, {len(self.entries)} entries)"


class PolyMap:
    """The polynomial map F(x) = x - H(x) defined by a symmetric tensor.

    ``tensor`` is read-only, so the objects derived from it (H, ||w||,
    the powers of M and their traces, det(I - M), the chain
    contractions, G, log Z and Z) are computed once per map and kept in
    a private memo that can never go stale.
    """

    __slots__ = ("_tensor", "name", "_memo")

    def __init__(self, tensor: SymTensor, name: str | None = None):
        self._tensor = tensor
        self.name = name
        self._memo: dict = {}

    @property
    def tensor(self) -> SymTensor:
        return self._tensor

    def _memoized(self, key, build):
        """The value memoized under key, from build() on first use.

        For the package's own modules; memoized values are never mutated.
        """
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    @property
    def n(self) -> int:
        return self.tensor.n

    @property
    def d(self) -> int:
        return self.tensor.d

    def gabber_bound(self) -> int:
        """Degree bound d^(n-1) for a polynomial inverse."""
        return self.d ** (self.n - 1)

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return f"PolyMap({label}, n={self.n}, d={self.d})"


def build_H(pmap: PolyMap) -> list[Poly]:
    """The homogeneous components H_i of degree d (memoized per map).

    Each canonical tensor entry contributes (orbit size / d!) times its
    value to the coefficient of the corresponding monomial.
    """
    return list(pmap._memoized("H", lambda: _build_H(pmap.tensor)))


def _build_H(tensor: SymTensor) -> tuple[Poly, ...]:
    # Canonical keys are distinct, so each (i, monomial) is written once.
    n, d = tensor.n, tensor.d
    d_fact = factorial(d)
    coeffs: list[dict] = [dict() for _ in range(n)]
    for (i, lower), value in tensor.entries.items():
        exps = [0] * n
        for j in lower:
            exps[j] += 1
        coeffs[i][tuple(exps)] = Fraction(
            value.numerator * multiset_orbit_size(lower), value.denominator * d_fact
        )
    return tuple([Poly._trusted(n, c) for c in coeffs])


def build_F(pmap: PolyMap) -> list[Poly]:
    """Components F_i = x_i - H_i."""
    H = build_H(pmap)
    return [Poly.variable(pmap.n, i) - H[i] for i in range(pmap.n)]


def jacobian_matrix(pmap: PolyMap) -> PolyMatrix:
    """M with M[i][j] = dH_i/dx_j, each entry homogeneous of degree d-1.

    Read straight off the tensor: the coefficient of x^mu in M[i][j] is
    w_{i, mu + e_j} / mu!, so each canonical entry (i, lower) with
    exponents m gives the term m_j w / m! at m - e_j to M[i][j] for each
    j in lower.  A fresh matrix on every call; it shares nothing with
    the memo.
    """
    n = pmap.n
    terms: list[list[dict]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, lower), value in pmap.tensor.entries.items():
        exps = [0] * n
        for k in lower:
            exps[k] += 1
        den = value.denominator
        for e in exps:
            den *= factorial(e)
        num = value.numerator
        for j, e in enumerate(exps):
            if e:
                exps[j] = e - 1
                terms[i][j][tuple(exps)] = Fraction(num * e, den)
                exps[j] = e
    return PolyMatrix([[Poly._trusted(n, t) for t in row] for row in terms])


def jacobian_power(pmap: PolyMap, k: int) -> PolyMatrix:
    """M(x)^k, k >= 1, as a fresh matrix unpacked from the per-map packed powers."""
    if k < 1:
        raise ValueError(f"matrix power requires k >= 1, got {k}")
    return jacobian_powers(pmap, k).matrix(k)


def jacobian_powers(pmap: PolyMap, k_max: int) -> PackedPowers:
    """The per-map powers of M as packed parts, in a base that holds M^k_max.

    M^k is homogeneous of degree k(d-1).  The first base holds every power
    up to M^(2 max(k_max, n)), and each power is made once per base.  A
    later request past the base starts the powers over in a base for twice
    that request, so the base changes a logarithmic number of times.
    """
    powers = pmap._memo.get("M^k")
    if powers is None or k_max * (pmap.d - 1) >= powers.base:
        top = 2 * max(k_max, pmap.n)
        powers = pmap._memo["M^k"] = PackedPowers(jacobian_matrix(pmap), top * (pmap.d - 1) + 1)
    return powers


def jacobian_det(pmap: PolyMap, guard: int = DET_DIM_GUARD) -> Poly:
    """det(I - M(x)) by cofactor expansion; its constant term is always 1.

    The guard is checked on every call, before the memo is read.  The
    determinant is expanded from its own copy of M, never from the
    memoized powers, so it stays an independent reading of the map.
    """
    n = pmap.n
    check_det_guard(n, guard)
    return pmap._memoized(
        "det", lambda: (PolyMatrix.identity(n, n) - jacobian_matrix(pmap)).det(guard)
    )


def norm_w(pmap: PolyMap) -> Fraction:
    """max over i of the sum of |w_{i,j1..jd}| over all ordered lower tuples.

    Each canonical entry contributes |value| times its orbit size.  The
    row sums run on int numerators over the lcm of the tensor's
    denominators; the result is memoized per map.
    """
    return pmap._memoized("norm_w", lambda: _norm_w(pmap.tensor))


def _norm_w(tensor: SymTensor) -> Fraction:
    entries = tensor.entries
    L = lcm(*[v.denominator for v in entries.values()])
    totals = [0] * tensor.n
    for (i, lower), value in entries.items():
        totals[i] += abs(value.numerator) * (L // value.denominator) * multiset_orbit_size(lower)
    return Fraction(max(totals), L)
