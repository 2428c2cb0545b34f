"""Symmetric coefficient tensors and the polynomial maps they define.

A map F(x) = x - H(x) is stored through its coefficient tensor w: the
component H_i is (1/d!) times the sum of w_{i,j1..jd} x_{j1}..x_{jd} over
all ordered index tuples.  The tensor is fully symmetric in the lower
indices, so one canonical entry (lower indices sorted) represents a whole
orbit of ordered tuples; orbit sizes are multinomial coefficients.

H and det(I - M) are memoized per map as Series, read off the tensor's
int form; build_H and jacobian_det unpack them to Poly.  Indices are
0-based internally; file formats and printed reports use 1-based ones.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from types import MappingProxyType

from treeinv._combinat import exponents, multiset_orbit_size
from treeinv.poly import Poly, Series, _graded, _pack
from treeinv.polymatrix import (
    DET_DIM_GUARD,
    PackedPowers,
    PolyMatrix,
    Rows,
    _det_cofactor,
    check_det_guard,
)

TensorKey = tuple[int, tuple[int, ...]]


class SymTensor:
    """Coefficient tensor with one upper index and d symmetric lower indices.

    ``entries`` maps (i, sorted lower tuple) to a nonzero Fraction.
    Construction sorts lower indices, sums duplicate keys, prunes zeros,
    and refuses an index that is not an int in [0, n).  A tensor is
    read-only afterwards (no attribute can be set, ``entries`` is a
    read-only view), so nothing derived from it can go stale.  Its int
    form ``_scaled`` = (L, {key: L * entry}), L the lcm of the entries'
    denominators, is made here once and never mutated by its readers.
    """

    __slots__ = ("n", "d", "entries", "_scaled")

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
                if not all(type(j) is int and 0 <= j < n for j in (i, *lower)):
                    raise ValueError(f"entry ({i}, {lower}) has indices that are not integers in [0, {n})")
                if not isinstance(value, Fraction):
                    value = Fraction(value)
                key = (i, lower)
                if key in clean:
                    value += clean[key]
                clean[key] = value
        self._fill(n, d, clean)

    @classmethod
    def _checked(cls, n: int, d: int, clean: dict[TensorKey, Fraction]) -> SymTensor:
        """The tensor of entries already checked as __init__ checks them, and summed.

        clean maps (i, sorted lower tuple of length d), every index an
        int in [0, n), to a Fraction; n >= 1 and d >= 2.  Zeros are
        pruned here.
        """
        tensor = object.__new__(cls)
        tensor._fill(n, d, clean)
        return tensor

    def _fill(self, n: int, d: int, clean: dict[TensorKey, Fraction]) -> None:
        clean = {key: value for key, value in clean.items() if value}
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "entries", MappingProxyType(clean))
        L = lcm(*[v.denominator for v in clean.values()])
        scaled = {key: v.numerator * (L // v.denominator) for key, v in clean.items()}
        object.__setattr__(self, "_scaled", (L, scaled))

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
    contractions, G, the tree amplitudes, log Z and Z) are computed once
    per map and kept in a private memo that can never go stale.  Every
    entry is written by ``_memoized``: an entry that cannot serve a
    request (G at a smaller cap, powers of M in a base too small) is
    named by its ``serves`` predicate and rebuilt in place.
    """

    __slots__ = ("_tensor", "name", "_memo")

    def __init__(self, tensor: SymTensor, name: str | None = None):
        self._tensor = tensor
        self.name = name
        self._memo: dict = {}

    @property
    def tensor(self) -> SymTensor:
        return self._tensor

    def _memoized(self, key, build, serves=None):
        """The value memoized under key, from build() on first use.

        With serves, a memoized value for which serves(value) is false is
        replaced by a fresh build().  For the package's own modules.  No
        part of a memoized value ever changes, though the packed powers
        of M gain entries as they are read.  The tree sums' memo is
        complete when built: every shape's Vector, on either route.
        """
        memo = self._memo
        if key not in memo or (serves is not None and not serves(memo[key])):
            memo[key] = build()
        return memo[key]

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
    """The homogeneous components H_i of degree d, unpacked from the memoized series."""
    return [h.body for h in _h_series(pmap)]


def _h_series(pmap: PolyMap) -> tuple[Series, ...]:
    """H_1, ..., H_n as Series at cap d (memoized per map).

    Each canonical tensor entry, written once, contributes (orbit size /
    d!) times its value to the coefficient of the corresponding monomial,
    so over L d! (L from SymTensor._scaled) every numerator is an int.
    """

    def build() -> tuple[Series, ...]:
        n, d = pmap.n, pmap.d
        L, scaled = pmap.tensor._scaled
        nums: list[dict[int, int]] = [{} for _ in range(n)]
        for (i, lower), w in scaled.items():
            key, orbit = _monomial_of(lower, n, d)
            nums[i][key] = w * orbit
        return tuple([Series._reduced(n, d, L * factorial(d), [{}] * d + [c]) for c in nums])

    return pmap._memoized("H", build)


@lru_cache(maxsize=1 << 12)
def _monomial_of(lower: tuple[int, ...], n: int, d: int) -> tuple[int, int]:
    """The packed key (base d + 1) of the monomial a sorted lower-index tuple names, and its orbit size."""
    return _pack(exponents(lower, n), d + 1), multiset_orbit_size(lower)


def build_F(pmap: PolyMap) -> list[Poly]:
    """Components F_i = x_i - H_i."""
    H = build_H(pmap)
    return [Poly.variable(pmap.n, i) - H[i] for i in range(pmap.n)]


def jacobian_matrix(pmap: PolyMap) -> PolyMatrix:
    """M with M[i][j] = dH_i/dx_j, each entry homogeneous of degree d-1.

    The derivatives of the memoized H, as a fresh matrix on every call.
    The kernels pack M and I - M from the tensor's ints instead
    (_jacobian_parts); this Fraction form is their test oracle.
    """
    return PolyMatrix([[h.diff(j) for j in range(pmap.n)] for h in build_H(pmap)])


def jacobian_powers(pmap: PolyMap, k_max: int) -> PackedPowers:
    """The per-map powers of M as packed numerators, in a base that holds M^k_max.

    M^k is homogeneous of degree k(d-1).  The first base holds every power
    up to M^(2 max(k_max, n)), and each power is made once per base.  A
    later request past the base starts the powers over in a base for twice
    that request, so the base changes a logarithmic number of times.
    """
    step = pmap.d - 1
    base = 2 * max(k_max, pmap.n) * step + 1
    return pmap._memoized(
        "M^k",
        lambda: PackedPowers(pmap.n, base, *_jacobian_parts(pmap.tensor, base)),
        lambda powers: k_max * step < powers.base,
    )


def jacobian_det(pmap: PolyMap, guard: int = DET_DIM_GUARD) -> Poly:
    """det(I - M(x)) by cofactor expansion; its constant term is always 1."""
    return _det_series(pmap, guard).body


def _det_series(pmap: PolyMap, guard: int = DET_DIM_GUARD) -> Series:
    """det(I - M(x)) as a Series at cap n(d-1), its degree (memoized per map).

    The guard is checked on every call, before the memo is read.  The
    determinant is expanded from its own copy of M, never from the
    memoized powers, so it stays an independent reading of the map.
    """
    n = pmap.n
    check_det_guard(n, guard)
    cap = n * (pmap.d - 1)

    def build() -> Series:
        den, nums = _det_cofactor(*_one_minus_m_parts(pmap.tensor, cap + 1))
        return Series._reduced(n, cap, den, _graded(n, cap, nums))

    return pmap._memoized("det", build)


def _one_minus_m_parts(tensor: SymTensor, base: int) -> tuple[int, Rows]:
    """I - M as a packed matrix in base, over M's denominator, from a fresh copy of M."""
    den, rows = _jacobian_parts(tensor, base)
    rows = [[{key: -v for key, v in nums.items()} for nums in row] for row in rows]
    for i, row in enumerate(rows):
        # M has no constant term, so key 0 (the monomial 1) is free on the diagonal
        row[i] = {0: den, **row[i]}
    return den, rows


def _jacobian_parts(tensor: SymTensor, base: int) -> tuple[int, Rows]:
    """M as a packed matrix in base, read off the tensor's int form.

    The coefficient of x^mu in M[i][j] is w_{i, mu + e_j} / mu!, and
    (d-1)! / mu! is the orbit size of mu, so over the one denominator
    L (d-1)! (L from SymTensor._scaled) each numerator is an int.  A
    fresh copy on every call; the numerators are not reduced.
    """
    n = tensor.n
    L, scaled = tensor._scaled
    nums: Rows = [[{} for _ in range(n)] for _ in range(n)]
    for (i, lower), w in scaled.items():
        for pos, j in enumerate(lower):
            if pos and lower[pos - 1] == j:
                continue
            mu = lower[:pos] + lower[pos + 1 :]
            nums[i][j][_pack(exponents(mu, n), base)] = w * multiset_orbit_size(mu)
    return L * factorial(tensor.d - 1), nums


def norm_w(pmap: PolyMap) -> Fraction:
    """max over i of the sum of |w_{i,j1..jd}| over all ordered lower tuples.

    Each canonical entry contributes |value| times its orbit size.  The
    row sums run on the tensor's int form (SymTensor._scaled), over the
    lcm of its denominators; the result is memoized per map.
    """
    return pmap._memoized("norm_w", lambda: _norm_w(pmap.tensor))


def _norm_w(tensor: SymTensor) -> Fraction:
    L, scaled = tensor._scaled
    totals = [0] * tensor.n
    for (i, lower), value in scaled.items():
        totals[i] += abs(value) * multiset_orbit_size(lower)
    return Fraction(max(totals), L)
