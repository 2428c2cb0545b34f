"""Square matrices of polynomials: products, powers, traces, determinants.

Houses the derivative matrix of a polynomial map and I - M.  Entries are
``Poly`` at the boundary, but every product runs on the packed integer
parts of ``poly.py``: an entry becomes one part (one int denominator,
packed keys mapped to int numerators) in a base above every exponent the
result can reach, so keys add without carrying.  A matrix product forms
each entry with one ``_graded_dot``.  ``PackedPowers`` keeps P, P^2, ...
as parts in one base, so each power is one product of parts and nothing
is unpacked until a caller asks for a ``PolyMatrix``; ``power`` and the
per-map powers of M (tensormap.py) both run on it, and traces are summed
on its parts.  The determinant is a cofactor expansion along the first
column, on parts throughout, behind a dimension guard.  Entries need not
be homogeneous.
"""

from __future__ import annotations

from treeinv.errors import DimensionMismatchError, GuardExceededError
from treeinv.poly import _UNIT, Part, Poly, _from_part, _graded_dot, _to_part

DET_DIM_GUARD = 8


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
        return _from_parts(self.n, base, _mul_parts(self._parts(base), other._parts(base)))

    def _degree(self) -> int:
        """Largest total degree of an entry, 0 for the zero matrix."""
        return max(0, max(p.total_degree() for row in self.entries for p in row))

    def _parts(self, base: int) -> list[list[Part]]:
        return [[_to_part(p, base) for p in row] for row in self.entries]

    def power(self, k: int) -> PolyMatrix:
        """self^k, k >= 1: packed once, multiplied on parts, unpacked once."""
        if k < 1:
            raise ValueError(f"matrix power requires k >= 1, got {k}")
        return PackedPowers(self, k * self._degree() + 1).matrix(k)

    def trace(self) -> Poly:
        base = self._degree() + 1
        return _from_part(self.n, base, _trace_part(self._parts(base)))

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def det(self, guard: int = DET_DIM_GUARD) -> Poly:
        """Determinant by cofactor expansion along the first column."""
        check_det_guard(self.dim, guard)
        # every product of at most dim entries has degree <= dim * (entry degree)
        base = self.dim * self._degree() + 1
        return _from_part(self.n, base, _det_cofactor(self._parts(base)))

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
    """P, P^2, ... of one square matrix as packed parts in one base, made on demand.

    Every exponent of every power asked for must be below ``base``; the
    caller picks the base from its degree bound.  ``power(k)`` and
    ``trace(k)`` are parts, computed once each and shared, never mutated.
    """

    __slots__ = ("n", "base", "_powers", "_traces")

    def __init__(self, m: PolyMatrix, base: int):
        self.n = m.n
        self.base = base
        self._powers = [m._parts(base)]
        self._traces: dict[int, Part] = {}

    def power(self, k: int) -> list[list[Part]]:
        powers = self._powers
        while len(powers) < k:
            powers.append(_mul_parts(powers[-1], powers[0]))
        return powers[k - 1]

    def is_zero(self, k: int) -> bool:
        return not any(e[1] for row in self.power(k) for e in row)

    def trace(self, k: int) -> Part:
        if k not in self._traces:
            self._traces[k] = _trace_part(self.power(k))
        return self._traces[k]

    def matrix(self, k: int) -> PolyMatrix:
        """P^k as a fresh PolyMatrix."""
        return _from_parts(self.n, self.base, self.power(k))


def _mul_parts(A: list[list[Part]], B: list[list[Part]]) -> list[list[Part]]:
    cols = list(zip(*B))
    return [
        [_graded_dot((1, a, b) for a, b in zip(row, col) if a[1] and b[1]) for col in cols]
        for row in A
    ]


def _trace_part(rows: list[list[Part]]) -> Part:
    return _graded_dot((1, row[i], _UNIT) for i, row in enumerate(rows) if row[i][1])


def _from_parts(n: int, base: int, rows: list[list[Part]]) -> PolyMatrix:
    return PolyMatrix([[_from_part(n, base, e) for e in row] for row in rows])


def _det_cofactor(rows: list[list[Part]]) -> Part:
    if len(rows) == 1:
        return rows[0][0]
    return _graded_dot(
        (-1 if i % 2 else 1, row[0], _det_cofactor([r[1:] for k, r in enumerate(rows) if k != i]))
        for i, row in enumerate(rows)
        if row[0][1]
    )
