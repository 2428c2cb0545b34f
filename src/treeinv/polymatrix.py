"""Square matrices of polynomials: products, powers, traces, determinants.

Houses the derivative matrix of a polynomial map and I - M.  Determinants
use cofactor expansion behind a dimension guard; every fixture here is
small, and exact rational arithmetic keeps cofactors cheap at that scale.
"""

from __future__ import annotations

from treeinv.errors import DimensionMismatchError, GuardExceededError
from treeinv.poly import Poly

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
        out = []
        for i in range(self.dim):
            row = []
            for j in range(self.dim):
                acc = Poly.zero(self.n)
                for k in range(self.dim):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return PolyMatrix(out)

    def power(self, k: int) -> PolyMatrix:
        if k < 1:
            raise ValueError(f"matrix power requires k >= 1, got {k}")
        result = self
        for _ in range(k - 1):
            result = result * self
        return result

    def trace(self) -> Poly:
        acc = Poly.zero(self.n)
        for i in range(self.dim):
            acc = acc + self.entries[i][i]
        return acc

    def is_zero(self) -> bool:
        return all(p.is_zero() for row in self.entries for p in row)

    def det(self, guard: int = DET_DIM_GUARD) -> Poly:
        """Determinant by cofactor expansion along the first column."""
        check_det_guard(self.dim, guard)
        return _det_cofactor(self.entries, self.n)

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


def _det_cofactor(rows: list[list[Poly]], n: int) -> Poly:
    dim = len(rows)
    if dim == 1:
        return rows[0][0]
    acc = Poly.zero(n)
    for i in range(dim):
        lead = rows[i][0]
        if lead.is_zero():
            continue
        minor = [row[1:] for k, row in enumerate(rows) if k != i]
        sub = _det_cofactor(minor, n)
        term = lead * sub
        acc = acc + (term if i % 2 == 0 else -term)
    return acc
