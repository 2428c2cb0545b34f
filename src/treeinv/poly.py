"""Sparse multivariate polynomials and degree-truncated series over Q.

``Poly`` is an untruncated polynomial: a monomial is a tuple of
non-negative integer exponents, one per variable, mapped to a nonzero
``Fraction`` coefficient.  The public constructor validates and converts
its input; the results of ``Poly`` arithmetic are already clean and go
through a trusted constructor that skips that check.

``Series`` is a polynomial truncated at a total-degree cap, held in a
graded, packed, integer form: a positive int denominator ``den`` shared
by the whole series and, for each degree k from 0 to the cap, a dict
``comps[k]`` from packed monomial keys to int numerators.  The key of
x^a is ``sum a_i * B**i`` with base ``B = cap + 1``.  Every exponent of a
stored monomial is at most the cap, below ``B``, so packing never
carries and the key of a product is the sum of its factors' keys.  The
form is always reduced (no zero numerators, ``gcd(den, numerators) ==
1``), so equal series have equal fields.  A truncated product pairs only
degrees that sum to at most the cap, and sums run over the lcm of the
denominators: no ``Fraction`` is made inside the loops.

The boundary to the rest of the package is ``Poly``: ``Series(body,
cap)`` packs a polynomial, and ``.body`` unpacks one (built on first read
and kept).  Values are never mutated after construction, so they are
safe to share and to reduce in any order.

The same parts carry the untruncated products elsewhere: the matrix
products and the determinant of polymatrix.py and the tree contractions
of trees.py pack their operands in a base above every exponent the
result can reach, so no product is truncated and the ``Poly`` product
here is their test oracle.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
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

    @classmethod
    def _trusted(cls, n: int, terms: dict[Monomial, Fraction]) -> Poly:
        """A Poly over terms that are already n-tuples mapped to nonzero Fractions."""
        p = object.__new__(cls)
        p.n = n
        p.terms = terms
        return p

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
        return Poly._trusted(self.n, {m: c for m, c in self.terms.items() if sum(m) == degree})

    def truncate(self, cap: int) -> Poly:
        return Poly._trusted(self.n, {m: c for m, c in self.terms.items() if sum(m) <= cap})

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
        return Poly._trusted(self.n, out)

    def __neg__(self) -> Poly:
        return Poly._trusted(self.n, {m: -c for m, c in self.terms.items()})

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
        return Poly._trusted(self.n, out)

    def scale(self, value) -> Poly:
        value = _as_fraction(value)
        if value == 0:
            return Poly.zero(self.n)
        return Poly._trusted(self.n, {m: c * value for m, c in self.terms.items()})

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
        return Poly._trusted(self.n, out)

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




# -- the series kernel ------------------------------------------------
#
# A homogeneous part is a pair (den, dict) of a positive int denominator
# and packed keys mapped to int numerators; a Series holds one
# denominator for all its degrees.  The graded recursions (the fixed
# point in inversion.py, series_exp and series_log below) work on parts.

Part = tuple[int, dict[int, int]]


def _pack(mono: Monomial, base: int) -> int:
    key = 0
    for e in reversed(mono):
        key = key * base + e
    return key


@lru_cache(maxsize=1 << 12)
def _unpack(key: int, n: int, base: int) -> Monomial:
    exps = []
    for _ in range(n):
        key, e = divmod(key, base)
        exps.append(e)
    return tuple(exps)


def _addmul(acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
    """acc += a * b on packed keys and int numerators."""
    get = acc.get
    for ka, va in a.items():
        for kb, vb in b.items():
            k = ka + kb
            acc[k] = get(k, 0) + va * vb


def _graded_dot(terms) -> tuple[int, dict[int, int]]:
    """The reduced part sum of c * a * b over (c, a, b) in terms.

    c is an int or Fraction and a, b are parts.  The products are summed
    over the lcm of their denominators; each term's scale factor enters
    once per numerator of its smaller factor, in the outer loop, so no
    scaled copy of a factor is made.  A one-term factor (the constant
    part ``_UNIT``, a degree-1 part of ``y``) is a single pass over the
    other factor.
    """
    terms = list(terms)
    dens = [c.denominator * a[0] * b[0] for c, a, b in terms]
    L = lcm(*dens)
    acc: dict[int, int] = {}
    get = acc.get
    for (c, (_, a), (_, b)), den in zip(terms, dens):
        f = c.numerator * (L // den)
        if len(a) > len(b):
            a, b = b, a
        for ka, va in a.items():
            va *= f
            for kb, vb in b.items():
                k = ka + kb
                acc[k] = get(k, 0) + va * vb
    acc = {k: v for k, v in acc.items() if v}
    g = gcd(L, *acc.values())
    if g > 1:
        return L // g, {k: v // g for k, v in acc.items()}
    return L, acc


def _reduce(den: int, comps: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Several dicts of numerators over one den, without zeros and with the common factor out."""
    comps = [{k: v for k, v in c.items() if v} for c in comps]
    # Star-arguments come from lists here, not generators: a generator is
    # packed into a tuple of guessed length and then resized, and the
    # resized tuples pile up in CPython's per-length tuple free lists.
    g = gcd(den, *[v for c in comps for v in c.values()])
    if g > 1:
        den //= g
        comps = [{k: v // g for k, v in c.items()} for c in comps]
    return den, comps


def _to_part(p: Poly, base: int) -> Part:
    """p as one part, keys packed in base; every exponent of p must be below it."""
    den = lcm(*[c.denominator for c in p.terms.values()])
    return den, {_pack(m, base): c.numerator * (den // c.denominator) for m, c in p.terms.items()}


def _from_part(n: int, base: int, part: Part) -> Poly:
    """The Poly of a part whose keys are packed in base; zero numerators must be absent."""
    den, nums = part
    return Poly._trusted(n, {_unpack(k, n, base): Fraction(v, den) for k, v in nums.items()})


# The constant part 1, so that a sum of c * a is _graded_dot over (c, a, _UNIT).
_UNIT = (1, {0: 1})
_ZERO_PART = (1, {})


class Series:
    """Polynomial truncated at a total-degree cap, on the packed integer kernel.

    Invariant: every stored monomial has total degree <= cap, and the
    form is reduced (see the module docstring).  Binary operations
    require equal dimensions and caps so that truncation is unambiguous.
    ``body`` is the same series as a ``Poly``.
    """

    __slots__ = ("n", "cap", "den", "comps", "_body")

    def __init__(self, body: Poly, cap: int):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        base = cap + 1
        kept = [(m, c, deg) for m, c in body.terms.items() if (deg := sum(m)) <= cap]
        # over the lcm of reduced Fractions, the numerators share no factor with it
        den = lcm(*[c.denominator for _, c, _ in kept])
        comps: list[dict[int, int]] = [{} for _ in range(base)]
        for m, c, deg in kept:
            comps[deg][_pack(m, base)] = c.numerator * (den // c.denominator)
        self.n = body.n
        self.cap = cap
        self.den = den
        self.comps = comps
        self._body = None

    @classmethod
    def _reduced(cls, n: int, cap: int, den: int, comps: list[dict[int, int]]) -> Series:
        """Trusted constructor: drops zero numerators and divides out the common factor.

        comps must hold, for each degree 0..cap, keys packed in base cap + 1.
        """
        den, comps = _reduce(den, comps)
        s = object.__new__(cls)
        s.n, s.cap, s.den, s.comps, s._body = n, cap, den, comps, None
        return s

    @classmethod
    def _from_parts(cls, n: int, parts: list[tuple[int, dict[int, int]]]) -> Series:
        """The series whose degree-k part is parts[k]: cap len(parts) - 1, keys in that base."""
        den = lcm(*[p[0] for p in parts])
        comps = [c if d == den else {k: v * (den // d) for k, v in c.items()} for d, c in parts]
        return cls._reduced(n, len(parts) - 1, den, comps)

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
    def body(self) -> Poly:
        if self._body is None:
            self._body = self._poly(self.comps)
        return self._body

    def _poly(self, comps: list[dict[int, int]]) -> Poly:
        n, den, base = self.n, self.den, self.cap + 1
        return Poly._trusted(
            n, {_unpack(k, n, base): Fraction(v, den) for c in comps for k, v in c.items()}
        )

    def _part(self, degree: int) -> tuple[int, dict[int, int]]:
        return self.den, self.comps[degree]

    def _check_compat(self, other: Series) -> None:
        if self.n != other.n or self.cap != other.cap:
            raise DimensionMismatchError(
                f"series mismatch: dim {self.n}/{other.n}, cap {self.cap}/{other.cap}"
            )

    def __add__(self, other: Series) -> Series:
        self._check_compat(other)
        return _lincomb(self.n, self.cap, [(1, self.den, self.comps), (1, other.den, other.comps)])

    def __neg__(self) -> Series:
        return _lincomb(self.n, self.cap, [(-1, self.den, self.comps)])

    def __sub__(self, other: Series) -> Series:
        self._check_compat(other)
        return _lincomb(self.n, self.cap, [(1, self.den, self.comps), (-1, other.den, other.comps)])

    def __mul__(self, other: Series) -> Series:
        self._check_compat(other)
        out = _mul_comps(self.cap, self.comps, other.comps)
        return Series._reduced(self.n, self.cap, self.den * other.den, out)

    def scale(self, value) -> Series:
        return _lincomb(self.n, self.cap, [(_as_fraction(value), self.den, self.comps)])

    def coefficient(self, mono: Monomial) -> Fraction:
        mono = tuple(mono)
        if len(mono) != self.n or any(e < 0 for e in mono) or sum(mono) > self.cap:
            return _ZERO
        v = self.comps[sum(mono)].get(_pack(mono, self.cap + 1))
        return _ZERO if v is None else Fraction(v, self.den)

    def is_zero(self) -> bool:
        return not any(self.comps)

    def truncate(self, cap: int) -> Series:
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        if cap >= self.cap:
            return self
        n, old, new = self.n, self.cap + 1, cap + 1
        comps = [
            {_pack(_unpack(k, n, old), new): v for k, v in c.items()}
            for c in self.comps[:new]
        ]
        return Series._reduced(n, cap, self.den, comps)

    def homogeneous_component(self, degree: int) -> Poly:
        return self._poly([self.comps[degree]] if 0 <= degree <= self.cap else [])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Series)
            and self.n == other.n
            and self.cap == other.cap
            and self.den == other.den
            and self.comps == other.comps
        )

    def __hash__(self):
        return hash(
            (self.n, self.cap, self.den, tuple(frozenset(c.items()) for c in self.comps))
        )

    def __repr__(self) -> str:
        return f"Series({self.to_string()!r}, cap={self.cap})"

    def to_string(self, var: str = "y") -> str:
        return self.body.to_string(var)


def _mul_comps(cap: int, left: list[dict[int, int]], right: list[dict[int, int]]) -> list[dict]:
    """The numerators of a truncated product over the product of the denominators, unreduced.

    Degree da of left pairs only with degrees <= cap - da of right.
    """
    out: list[dict[int, int]] = [{} for _ in range(cap + 1)]
    for da, a in enumerate(left):
        if a:
            for db in range(cap - da + 1):
                if right[db]:
                    _addmul(out[da + db], a, right[db])
    return out


def _lincomb(n: int, cap: int, terms) -> Series:
    """The reduced series sum of c * comps / den over (c, den, comps) in terms.

    c is an int or Fraction; the sum runs over the lcm of the denominators.
    """
    dens = [c.denominator * den for c, den, _ in terms]
    L = lcm(*dens)
    out: list[dict[int, int]] = [{} for _ in range(cap + 1)]
    for (c, _, comps), den in zip(terms, dens):
        f = c.numerator * (L // den)
        if not f:
            continue
        for acc, comp in zip(out, comps):
            get = acc.get
            for k, v in comp.items():
                acc[k] = get(k, 0) + v * f
    return Series._reduced(n, cap, L, out)


def _indices(mono: Monomial) -> tuple[int, ...]:
    """The variable index of each factor of x^mono, in increasing order."""
    return tuple([j for j, e in enumerate(mono) for _ in range(e)])


def series_compose_many(fs: list[Poly], gs: list[Series]) -> list[Series]:
    """[f(g_1, ..., g_n) mod degree cap for f in fs], sharing products.

    Each monomial of an f is the product of its factors in increasing
    variable order; every prefix of such a product is computed once for
    all the polynomials, and kept as unreduced numerators over the
    product of its factors' denominators.  Only the final sums are
    reduced.  All substituents must share one ambient dimension and one
    cap, which the results carry.  Exact: equals full composition
    followed by truncation.
    """
    if not gs:
        raise DimensionMismatchError("series composition needs at least one substituent")
    for f in fs:
        if len(gs) != f.n:
            raise DimensionMismatchError(f"expected {f.n} substituents, got {len(gs)}")
    cap = gs[0].cap
    n_out = gs[0].n
    for g in gs:
        if g.cap != cap or g.n != n_out:
            raise DimensionMismatchError("substituents have mixed dimension or cap")
    one = Series.one(n_out, cap)
    products: dict[tuple[int, ...], tuple[int, list[dict[int, int]]]] = {(): (1, one.comps)}
    products.update(((j,), (g.den, g.comps)) for j, g in enumerate(gs))

    def product(prefix: tuple[int, ...]) -> tuple[int, list[dict[int, int]]]:
        got = products.get(prefix)
        if got is None:
            den, comps = product(prefix[:-1])
            g = gs[prefix[-1]]
            got = products[prefix] = (den * g.den, _mul_comps(cap, comps, g.comps))
        return got

    return [
        _lincomb(n_out, cap, [(c, *product(_indices(m))) for m, c in f.terms.items()])
        for f in fs
    ]


def series_compose(f: Poly, gs: list[Series]) -> Series:
    """Substitute series into a polynomial: f(g_1, ..., g_n) mod degree cap.

    All substituents must share one ambient dimension and one cap; the
    result carries that cap.  Exact: equals full composition followed by
    truncation.
    """
    return series_compose_many([f], gs)[0]


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term.

    Through the scaling operator: with S the sum of its homogeneous parts
    S_j, E = exp(S) satisfies m E_m = sum_{j=1..m} j S_j E_{m-j}; series_log
    runs the reverse recursion.  Both are exact over the rationals.
    """
    if s.comps[0]:
        raise ValueError("series_exp needs zero constant term")
    cap = s.cap
    E = [_UNIT]
    for m in range(1, cap + 1):
        E.append(
            _graded_dot(
                (Fraction(j, m), s._part(j), E[m - j]) for j in range(1, m + 1) if s.comps[j]
            )
        )
    return Series._from_parts(s.n, E)


def series_log(s: Series) -> Series:
    """log of a series with constant term one."""
    if s.coefficient((0,) * s.n) != 1:
        raise ValueError("series_log needs constant term 1")
    cap = s.cap
    L = [_ZERO_PART]
    for m in range(1, cap + 1):
        terms = [(1, s._part(m), _UNIT)]
        terms += [
            (Fraction(-j, m), L[j], s._part(m - j))
            for j in range(1, m)
            if L[j][1] and s.comps[m - j]
        ]
        L.append(_graded_dot(terms))
    return Series._from_parts(s.n, L)
