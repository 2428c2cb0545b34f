"""Square matrices of polynomials: products, powers, traces, determinants.

Houses the derivative matrix of a polynomial map and I - M.  Entries are
``Poly`` at the boundary, but every product runs on packed ints
(poly.py): a packed matrix is (den, rows), one int denominator and rows
of dicts from packed keys to int numerators, in a base above every
exponent the result can reach.  The denominator is fixed by structure:
a product of matrices over a and b is over a b, each entry one ``_dot``
of ``_addmul`` pair products with no lcm or gcd, so P^k and tr P^k are
over den^k and a dim x dim determinant over den^dim.  An entry of a
product, a trace and a determinant holds no zero numerator, so a zero
test reads dict emptiness.  ``PackedPowers``
keeps the powers of P in one base, made only when a reading needs them,
and nothing is unpacked until a caller asks for a ``PolyMatrix``;
``power`` and the per-map powers of M (tensormap.py) both run on it.
P^k is the product P^ceil(k/2) P^floor(k/2), so a power is one product
of two held ones.  tr P^k is the diagonal of P^k when that power is
held, and otherwise the sum of (P^ceil(k/2))_ij (P^floor(k/2))_ji, which
does not form P^k.  A zero test of P^k first raises the int matrix of
P's numerators at a fixed integer point (the first n primes) to the k-th
power: a nonzero value proves P^k != 0 (the one-sided half of Schwartz's
identity test), and a zero value is always settled on the symbolic P^k,
so a zero is proven exactly.  The determinant is a cofactor expansion
along the first column, its minors built by size from the ones a row
smaller, behind a dimension guard.  Entries need not be homogeneous.
"""

from __future__ import annotations

from itertools import combinations
from math import lcm, prod

from treeinv.errors import DimensionMismatchError, GuardExceededError
from treeinv.poly import Poly, _dot, _from_nums, _pack, _unpack

DET_DIM_GUARD = 8

# The numerators of a packed matrix, one dict per entry; the denominator travels beside them.
Rows = list[list[dict[int, int]]]


class PolyMatrix:
    """dim x dim matrix of polynomials sharing one ambient dimension."""

    __slots__ = ("dim", "n", "entries")

    def __init__(self, entries: list[list[Poly]]):
        dim = len(entries)
        if dim == 0 or any(len(row) != dim for row in entries):
            raise DimensionMismatchError("matrix must be square and non-empty")
        n = entries[0][0].n
        for row in entries:
            for p in row:
                if p.n != n:
                    raise DimensionMismatchError("entries have mixed ambient dimensions")
        self.dim = dim
        self.n = n
        self.entries = [list(row) for row in entries]

    @classmethod
    def identity(cls, dim: int, n: int) -> PolyMatrix:
        return cls(
            [
                [Poly.const(n, 1) if i == j else Poly.zero(n) for j in range(dim)]
                for i in range(dim)
            ]
        )

    @classmethod
    def zero(cls, dim: int, n: int) -> PolyMatrix:
        return cls([[Poly.zero(n) for _ in range(dim)] for _ in range(dim)])

    def _check(self, other: PolyMatrix) -> None:
        if self.dim != other.dim or self.n != other.n:
            raise DimensionMismatchError("matrix shapes or ambient dimensions differ")

    def __add__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        return PolyMatrix(
            [
                [self.entries[i][j] + other.entries[i][j] for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )

    def __sub__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        return PolyMatrix(
            [
                [self.entries[i][j] - other.entries[i][j] for j in range(self.dim)]
                for i in range(self.dim)
            ]
        )

    def __mul__(self, other: PolyMatrix) -> PolyMatrix:
        self._check(other)
        base = self._degree() + other._degree() + 1
        (da, A), (db, B) = self._packed(base), other._packed(base)
        return _from_parts(self.n, base, da * db, _mul_rows(A, B))

    def _degree(self) -> int:
        """Largest total degree of an entry, 0 for the zero matrix."""
        return max(0, max(p.total_degree() for row in self.entries for p in row))

    def _packed(self, base: int) -> tuple[int, Rows]:
        """The entries as numerators over the lcm of their denominators, keys packed in base."""
        den = lcm(*[c.denominator for row in self.entries for p in row for c in p.terms.values()])
        return den, [
            [{_pack(m, base): c.numerator * (den // c.denominator) for m, c in p.terms.items()} for p in row]
            for row in self.entries
        ]

    def power(self, k: int) -> PolyMatrix:
        """self^k, k >= 1: packed once, multiplied packed, unpacked once."""
        if k < 1:
            raise ValueError(f"matrix power requires k >= 1, got {k}")
        base = k * self._degree() + 1
        return PackedPowers(self.n, base, *self._packed(base)).matrix(k)

    def trace(self) -> Poly:
        base = self._degree() + 1
        den, rows = self._packed(base)
        return _from_nums(self.n, base, den, _trace_nums(rows))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def det(self, guard: int = DET_DIM_GUARD) -> Poly:
        """Determinant by cofactor expansion along the first column."""
        check_det_guard(self.dim, guard)
        # every product of at most dim entries has degree <= dim * (entry degree)
        base = self.dim * self._degree() + 1
        return _from_nums(self.n, base, *_det_cofactor(*self._packed(base)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolyMatrix)
            and self.dim == other.dim
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash((self.dim, tuple(tuple(row) for row in self.entries)))

    def __repr__(self) -> str:
        rows = "; ".join(
            ", ".join(p.to_string() for p in row) for row in self.entries
        )
        return f"PolyMatrix[{rows}]"


def check_det_guard(dim: int, guard: int) -> None:
    """Refuse a cofactor determinant above the dimension guard."""
    if dim > guard:
        raise GuardExceededError(f"determinant guard: dim {dim} exceeds {guard}")


class PackedPowers:
    """Powers of one square matrix P as packed numerators in one base, made on demand.

    ``rows`` is P's numerators over ``den`` in ``base``; every exponent of
    every power asked for must be below ``base``, which the caller picks
    from its degree bound.  ``power(k)`` and ``trace(k)`` are numerators
    over den^k, computed once each and shared, never mutated.
    """

    __slots__ = ("n", "base", "den", "_powers", "_traces", "_at_point")

    def __init__(self, n: int, base: int, den: int, rows: Rows):
        self.n = n
        self.base = base
        self.den = den
        self._powers = {1: rows}
        self._traces: dict[int, dict[int, int]] = {}
        self._at_point: list[list[list[int]]] = []

    def power(self, k: int) -> Rows:
        """P^k = P^ceil(k/2) P^floor(k/2), k >= 1."""
        powers = self._powers
        if k not in powers:
            powers[k] = _mul_rows(self.power((k + 1) // 2), self.power(k // 2))
        return powers[k]

    def is_zero(self, k: int) -> bool:
        """Whether P^k = 0: False if P^k is nonzero at the witness point, else read off P^k."""
        values = self._at_point
        if not values:
            values.append(_at_witness(self.n, self.base, self._powers[1]))
        while len(values) < k:
            values.append(_mat_mul(values[-1], values[0]))
        if any(any(row) for row in values[k - 1]):
            return False
        return not any(any(row) for row in self.power(k))

    def trace(self, k: int) -> dict[int, int]:
        """tr P^k: the diagonal of P^k if held, else sum (P^ceil(k/2))_ij (P^floor(k/2))_ji."""
        traces = self._traces
        if k not in traces:
            if k in self._powers:
                traces[k] = _trace_nums(self._powers[k])
            else:
                A, B = self.power((k + 1) // 2), self.power(k // 2)
                traces[k] = _dot((a, B[j][i]) for i, row in enumerate(A) for j, a in enumerate(row))
        return traces[k]

    def matrix(self, k: int) -> PolyMatrix:
        """P^k as a fresh PolyMatrix."""
        return _from_parts(self.n, self.base, self.den**k, self.power(k))


def _witness(n: int) -> list[int]:
    """The first n primes: the point where is_zero first evaluates a power.

    Distinct monomials take distinct values there, so a polynomial
    vanishes at it only through a cancellation among its coefficients.
    """
    primes: list[int] = []
    c = 2
    while len(primes) < n:
        if all(c % p for p in primes):
            primes.append(c)
        c += 1
    return primes


def _at_witness(n: int, base: int, rows: Rows) -> list[list[int]]:
    """The values of a packed matrix's numerators at the witness point."""
    point = _witness(n)
    return [
        [sum([v * prod(map(pow, point, _unpack(k, n, base))) for k, v in nums.items()]) for nums in row]
        for row in rows
    ]


def _mat_mul(A: list[list], B: list[list]) -> list[list]:
    """The product of two plain matrices of ints or Fractions, summed exactly."""
    cols = list(zip(*B))
    return [[sum([a * b for a, b in zip(row, col)]) for col in cols] for row in A]


def _mul_rows(A: Rows, B: Rows) -> Rows:
    """The numerators of a matrix product, over the product of the factors' denominators."""
    cols = list(zip(*B))
    return [[_dot(zip(row, col)) for col in cols] for row in A]


def _trace_nums(rows: Rows) -> dict[int, int]:
    acc: dict[int, int] = {}
    for i, row in enumerate(rows):
        get = acc.get
        for k, v in row[i].items():
            acc[k] = get(k, 0) + v
    return {k: v for k, v in acc.items() if v}


def _from_parts(n: int, base: int, den: int, rows: Rows) -> PolyMatrix:
    return PolyMatrix([[_from_nums(n, base, den, nums) for nums in row] for row in rows])


def _det_cofactor(den: int, rows: Rows) -> tuple[int, dict[int, int]]:
    """The determinant of a packed matrix by cofactor expansion along the first column.

    A minor is keyed by the rows it keeps and uses the last as many
    columns; it is expanded along its first column from the minors a
    row smaller, made in the pass before, so each minor is made once.
    A minor of size s is over den^s, and odd positions read a negated
    copy of the rows, made once.
    """
    dim = len(rows)
    negated = [[{k: -v for k, v in nums.items()} for nums in row] for row in rows]
    minors = {(i,): row[-1] for i, row in enumerate(rows)}
    for size in range(2, dim + 1):
        c = dim - size
        for kept in combinations(range(dim), size):
            minors[kept] = _dot(
                ((negated if pos % 2 else rows)[i][c], minors[kept[:pos] + kept[pos + 1 :]])
                for pos, i in enumerate(kept)
            )
    return den**dim, minors[tuple(range(dim))]
