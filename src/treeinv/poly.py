"""Sparse multivariate polynomials and degree-truncated series over Q.

A monomial is a tuple of non-negative integer exponents, one per variable;
a polynomial maps monomials to nonzero ``Fraction`` coefficients.  All
arithmetic is exact.  Values are never mutated after construction, so they
are safe to share and to reduce in any order.

``Series`` is a polynomial together with a total-degree cap: every
operation discards monomials above the cap, which makes truncated
composition and fixed-point iteration well defined.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from treeinv.errors import DimensionMismatchError

Monomial = tuple[int, ...]

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def monomial_degree(m: Monomial) -> int:
    return sum(m)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class Poly:
    """Polynomial in ``n`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples to coefficients; zero coefficients are
    pruned on construction, so the zero polynomial has no terms.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Monomial, Fraction] | None = None):
        if n < 0:
            raise ValueError(f"ambient dimension must be non-negative, got {n}")
        clean: dict[Monomial, Fraction] = {}
        if terms:
            for mono, coeff in terms.items():
                if len(mono) != n:
                    raise DimensionMismatchError(
                        f"monomial {mono} has {len(mono)} exponents, expected {n}"
                    )
                coeff = _as_fraction(coeff)
                if coeff != 0:
                    clean[tuple(mono)] = coeff
        self.n = n
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> Poly:
        return cls(n)

    @classmethod
    def const(cls, n: int, value) -> Poly:
        return cls(n, {(0,) * n: _as_fraction(value)})

    @classmethod
    def variable(cls, n: int, i: int) -> Poly:
        """The polynomial x_i (0-based index)."""
        if not 0 <= i < n:
            raise IndexError(f"variable index {i} out of range for dimension {n}")
        exps = [0] * n
        exps[i] = 1
        return cls(n, {tuple(exps): Fraction(1)})

    @classmethod
    def monomial(cls, exps: Iterable[int], coeff=1) -> Poly:
        exps = tuple(exps)
        return cls(len(exps), {exps: _as_fraction(coeff)})

    # -- queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.terms.get(tuple(mono), _ZERO)

    def constant_term(self) -> Fraction:
        return self.terms.get((0,) * self.n, _ZERO)

    def total_degree(self) -> int:
        """Maximum total degree of any term; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        """True if all terms share one total degree (zero counts as homogeneous)."""
        degrees = {sum(m) for m in self.terms}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def homogeneous_component(self, degree: int) -> Poly:
        return Poly(self.n, {m: c for m, c in self.terms.items() if sum(m) == degree})

    def truncate(self, cap: int) -> Poly:
        return Poly(self.n, {m: c for m, c in self.terms.items() if sum(m) <= cap})

    # -- arithmetic --------------------------------------------------

    def _check_dim(self, other: Poly) -> None:
        if self.n != other.n:
            raise DimensionMismatchError(
                f"ambient dimensions differ: {self.n} vs {other.n}"
            )

    def __add__(self, other: Poly) -> Poly:
        self._check_dim(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            acc = out.get(mono, _ZERO) + coeff
            if acc == 0:
                out.pop(mono, None)
            else:
                out[mono] = acc
        return Poly(self.n, out)

    def __neg__(self) -> Poly:
        return Poly(self.n, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: Poly) -> Poly:
        return self + (-other)

    def __mul__(self, other: Poly) -> Poly:
        self._check_dim(other)
        out: dict[Monomial, Fraction] = {}
        for ma, ca in self.terms.items():
            for mb, cb in other.terms.items():
                mono = monomial_mul(ma, mb)
                acc = out.get(mono, _ZERO) + ca * cb
                if acc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return Poly(self.n, out)

    def scale(self, value) -> Poly:
        value = _as_fraction(value)
        if value == 0:
            return Poly.zero(self.n)
        return Poly(self.n, {m: c * value for m, c in self.terms.items()})

    def __pow__(self, k: int) -> Poly:
        if k < 0:
            raise ValueError("negative polynomial power")
        result = Poly.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def diff(self, i: int) -> Poly:
        """Partial derivative with respect to x_i (0-based)."""
        if not 0 <= i < self.n:
            raise IndexError(f"variable index {i} out of range for dimension {self.n}")
        out: dict[Monomial, Fraction] = {}
        for mono, coeff in self.terms.items():
            e = mono[i]
            if e == 0:
                continue
            lowered = list(mono)
            lowered[i] = e - 1
            out[tuple(lowered)] = coeff * e
        return Poly(self.n, out)

    def eval_fraction(self, point: list[Fraction] | tuple[Fraction, ...]) -> Fraction:
        """Exact evaluation at a rational point."""
        if len(point) != self.n:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.n}"
            )
        total = _ZERO
        for mono, coeff in sorted(self.terms.items(), key=_grlex_key):
            term = coeff
            for x, e in zip(point, mono):
                if e:
                    term *= _as_fraction(x) ** e
            total += term
        return total

    # -- comparison / display -----------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly) and self.n == other.n and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        return f"Poly({self.n}, {self.to_string()!r})"

    def to_string(self, var: str = "x") -> str:
        """Human-readable form, graded-lex term order, coefficients as p/q."""
        if not self.terms:
            return "0"
        parts = []
        for mono, coeff in sorted(self.terms.items(), key=_grlex_key):
            factors = [
                f"{var}{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e
            ]
            body = " ".join(factors)
            if not body:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(body)
            elif coeff == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{coeff} {body}")
        out = parts[0]
        for part in parts[1:]:
            out += f" - {part[1:]}" if part.startswith("-") else f" + {part}"
        return out


def _grlex_key(item):
    mono = item[0]
    return (sum(mono), mono)


def poly_compose(f: Poly, gs: list[Poly]) -> Poly:
    """Full polynomial composition f(g_1, ..., g_n), exact and untruncated."""
    if len(gs) != f.n:
        raise DimensionMismatchError(f"expected {f.n} substituents, got {len(gs)}")
    if not gs:
        return f
    n_out = gs[0].n
    for g in gs:
        if g.n != n_out:
            raise DimensionMismatchError("substituents have mixed ambient dimensions")
    result = Poly.zero(n_out)
    for mono, coeff in f.terms.items():
        term = Poly.const(n_out, coeff)
        for g, e in zip(gs, mono):
            if e:
                term = term * g**e
        result = result + term
    return result


class Series:
    """Polynomial truncated at a total-degree cap.

    Invariant: every stored monomial has total degree <= cap.  Binary
    operations require equal caps so that truncation is unambiguous.
    """

    __slots__ = ("body", "cap")

    def __init__(self, body: Poly, cap: int):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        self.body = body.truncate(cap)
        self.cap = cap

    @classmethod
    def zero(cls, n: int, cap: int) -> Series:
        return cls(Poly.zero(n), cap)

    @classmethod
    def one(cls, n: int, cap: int) -> Series:
        return cls(Poly.const(n, 1), cap)

    @classmethod
    def variable(cls, n: int, i: int, cap: int) -> Series:
        return cls(Poly.variable(n, i), cap)

    @property
    def n(self) -> int:
        return self.body.n

    def _check_compat(self, other: Series) -> None:
        if self.n != other.n or self.cap != other.cap:
            raise DimensionMismatchError(
                f"series mismatch: dim {self.n}/{other.n}, cap {self.cap}/{other.cap}"
            )

    def __add__(self, other: Series) -> Series:
        self._check_compat(other)
        return Series(self.body + other.body, self.cap)

    def __neg__(self) -> Series:
        return Series(-self.body, self.cap)

    def __sub__(self, other: Series) -> Series:
        self._check_compat(other)
        return Series(self.body - other.body, self.cap)

    def __mul__(self, other: Series) -> Series:
        self._check_compat(other)
        # Truncated product: skip term pairs whose degrees already overflow.
        out: dict[Monomial, Fraction] = {}
        cap = self.cap
        right = [(mb, cb, sum(mb)) for mb, cb in other.body.terms.items()]
        for ma, ca in self.body.terms.items():
            room = cap - sum(ma)
            for mb, cb, db in right:
                if db > room:
                    continue
                mono = monomial_mul(ma, mb)
                acc = out.get(mono, _ZERO) + ca * cb
                if acc == 0:
                    out.pop(mono, None)
                else:
                    out[mono] = acc
        return Series(Poly(self.n, out), cap)

    def scale(self, value) -> Series:
        return Series(self.body.scale(value), self.cap)

    def coefficient(self, mono: Monomial) -> Fraction:
        return self.body.coefficient(mono)

    def is_zero(self) -> bool:
        return self.body.is_zero()

    def truncate(self, cap: int) -> Series:
        return Series(self.body, min(cap, self.cap))

    def homogeneous_component(self, degree: int) -> Poly:
        return self.body.homogeneous_component(degree)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.cap == other.cap
            and self.body == other.body
        )

    def __hash__(self):
        return hash((self.cap, self.body))

    def __repr__(self) -> str:
        return f"Series({self.to_string()!r}, cap={self.cap})"

    def to_string(self, var: str = "y") -> str:
        return self.body.to_string(var)


def series_compose(f: Poly, gs: list[Series]) -> Series:
    """Substitute series into a polynomial: f(g_1, ..., g_n) mod degree cap.

    All substituents must share one ambient dimension and one cap; the
    result carries that cap.  Exact: equals full composition followed by
    truncation.
    """
    if len(gs) != f.n:
        raise DimensionMismatchError(f"expected {f.n} substituents, got {len(gs)}")
    if not gs:
        raise DimensionMismatchError("series composition needs at least one substituent")
    cap = gs[0].cap
    n_out = gs[0].n
    for g in gs:
        if g.cap != cap or g.n != n_out:
            raise DimensionMismatchError("substituents have mixed dimension or cap")
    result = Series.zero(n_out, cap)
    # Memoize truncated powers of each substituent across terms of f.
    powers: dict[tuple[int, int], Series] = {}

    def power(j: int, e: int) -> Series:
        key = (j, e)
        if key not in powers:
            if e == 1:
                powers[key] = gs[j]
            else:
                powers[key] = power(j, e - 1) * gs[j]
        return powers[key]

    for mono, coeff in f.terms.items():
        term = Series.one(n_out, cap).scale(coeff)
        for j, e in enumerate(mono):
            if e:
                term = term * power(j, e)
        result = result + term
    return result
