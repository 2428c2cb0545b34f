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

``Series`` is the package's one internal form (H, log Z's loop
polynomial and det(I - M) included); a ``Poly`` is made only where a
public function returns one.  ``Series(body, cap)`` packs a polynomial
and ``.body`` unpacks one afresh on every read.  Values are never
mutated after construction, so they are safe to share and to reduce in
any order.

The same packed numerators carry the untruncated products elsewhere:
the matrix products and the determinant of polymatrix.py and the tree
contractions of trees.py pack their operands in a base above every
exponent the result can reach, so no product is truncated and the
``Poly`` product here is their test oracle.  Every pair product is one
``_addmul`` over a denominator fixed by structure, so none takes an lcm
or a gcd.  The composition, like the fixed point of inversion.py, is
also recorded once per structure as a flat plan of those products
(plan.py), which later calls of that structure run.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, lcm, perm, prod
from typing import Iterable, Mapping

from treeinv.errors import DimensionMismatchError
from treeinv.plan import PLANS, Plan, Recorder

Monomial = tuple[int, ...]

_ZERO = Fraction(0)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def monomial_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x + y for x, y in zip(a, b))


class Poly:
    """Polynomial in ``n`` variables with exact rational coefficients.

    ``terms`` maps exponent tuples to coefficients; zero coefficients are
    pruned on construction, so the zero polynomial has no terms.  Every
    exponent must be a non-negative int.
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
                if not all(type(e) is int and e >= 0 for e in mono):
                    raise ValueError(f"monomial {mono} needs non-negative integer exponents")
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
# A homogeneous part is a dict of packed keys mapped to int numerators
# over a denominator fixed by where it comes from: a Series holds one for
# all its degrees, and series_exp, series_log and the packed matrices of
# polymatrix.py know theirs from structure, so no product takes an lcm.


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


def _dot(pairs) -> dict[int, int]:
    """The numerators of the sum of a * b over pairs of numerator dicts, without zeros."""
    acc: dict[int, int] = {}
    for a, b in pairs:
        if a and b:
            # the outer loop over the smaller factor starts fewer inner loops
            if len(a) > len(b):
                a, b = b, a
            _addmul(acc, a, b)
    return {k: v for k, v in acc.items() if v}


def _reduce(den: int, comps: list[dict[int, int]]) -> tuple[int, list[dict[int, int]]]:
    """Several dicts of numerators over one den, without zeros and with the common factor out.

    A dict without zeros is kept as it is, not copied.
    """
    comps = [c if all(c.values()) else {k: v for k, v in c.items() if v} for c in comps]
    # Star-arguments come from lists here, not generators: a generator is
    # packed into a tuple of guessed length and then resized, and the
    # resized tuples pile up in CPython's per-length tuple free lists.
    g = gcd(den, *[v for c in comps for v in c.values()])
    if g > 1:
        den //= g
        comps = [{k: v // g for k, v in c.items()} for c in comps]
    return den, comps


def _from_nums(n: int, base: int, den: int, nums: dict[int, int]) -> Poly:
    """The Poly of numerators over den whose keys are packed in base; zeros are skipped."""
    return Poly._trusted(n, {_unpack(k, n, base): Fraction(v, den) for k, v in nums.items() if v})


def _graded(n: int, cap: int, nums: dict[int, int]) -> list[dict[int, int]]:
    """Numerators keyed in base cap + 1, of degrees up to cap, split by degree."""
    comps: list[dict[int, int]] = [{} for _ in range(cap + 1)]
    for k, v in nums.items():
        comps[sum(_unpack(k, n, cap + 1))][k] = v
    return comps


def _variables(n: int, base: int) -> list[dict[int, int]]:
    """The numerators of x_0, ..., x_{n-1} over denominator 1, keys packed in base."""
    return [{base**j: 1} for j in range(n)]


class Series:
    """Polynomial truncated at a total-degree cap, on the packed integer kernel.

    Invariant: every stored monomial has total degree <= cap, and the
    form is reduced (see the module docstring).  Binary operations
    require equal dimensions and caps so that truncation is unambiguous.
    ``body`` is the same series as a ``Poly``.
    """

    __slots__ = ("n", "cap", "den", "comps")

    def __init__(self, body: Poly, cap: int):
        if cap < 0:
            raise ValueError(f"cap must be non-negative, got {cap}")
        kept = [(m, c) for m, c in body.terms.items() if sum(m) <= cap]
        # over the lcm of reduced Fractions, the numerators share no factor with it
        den = lcm(*[c.denominator for _, c in kept])
        nums = {_pack(m, cap + 1): c.numerator * (den // c.denominator) for m, c in kept}
        self.n, self.cap, self.den, self.comps = body.n, cap, den, _graded(body.n, cap, nums)

    @classmethod
    def _reduced(cls, n: int, cap: int, den: int, comps: list[dict[int, int]]) -> Series:
        """Trusted constructor: drops zero numerators and divides out the common factor.

        comps must hold, for each degree 0..cap, keys packed in base cap + 1.
        """
        den, comps = _reduce(den, comps)
        s = object.__new__(cls)
        s.n, s.cap, s.den, s.comps = n, cap, den, comps
        return s

    @classmethod
    def _from_parts(cls, n: int, parts: list[tuple[int, dict[int, int]]]) -> Series:
        """The series whose degree-k part is parts[k] = (den, numerators): cap len(parts) - 1, keys in that base.

        Each part is rescaled to the lcm of the dens and loses its zeros in
        one pass, so _reduced copies none of them again.
        """
        den = lcm(*[p[0] for p in parts])
        comps = [{k: v * f for k, v in c.items() if v} if f > 1 else {k: v for k, v in c.items() if v}
                 for f, c in [(den // d, c) for d, c in parts]]
        return cls._reduced(n, len(parts) - 1, den, comps)

    @classmethod
    def zero(cls, n: int, cap: int) -> Series:
        return cls(Poly.zero(n), cap)

    @classmethod
    def one(cls, n: int, cap: int) -> Series:
        return cls._reduced(n, cap, 1, [{0: 1}] + [{} for _ in range(cap)])

    @classmethod
    def variable(cls, n: int, i: int, cap: int) -> Series:
        return cls(Poly.variable(n, i), cap)

    @property
    def body(self) -> Poly:
        # keys of different degrees are different monomials, so the merge loses none
        nums = {k: v for c in self.comps for k, v in c.items()}
        return _from_nums(self.n, self.cap + 1, self.den, nums)

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
        value = _as_fraction(value)
        return _lincomb(self.n, self.cap, [(value.numerator, self.den * value.denominator, self.comps)])

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
        nums = self.comps[degree] if 0 <= degree <= self.cap else {}
        return _from_nums(self.n, self.cap + 1, self.den, nums)

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


def _mul_comps(cap: int, left: list[dict[int, int]], right: list[dict[int, int]], addmul=_addmul) -> list[dict]:
    """The numerators of a truncated product over the product of the denominators, unreduced.

    Degree da of left pairs only with degrees <= cap - da of right.
    """
    out: list[dict[int, int]] = [{} for _ in range(cap + 1)]
    for da, a in enumerate(left):
        if a:
            for db in range(cap - da + 1):
                if right[db]:
                    addmul(out[da + db], a, right[db])
    return out


def _sum_nums(cap: int, terms) -> tuple[int, list[dict[int, int]]]:
    """(L, numerators) of the sum of c * comps / den over (c, den, comps) in terms.

    c is an int (a rational factor folds its denominator into den) and L
    the lcm of the dens; the numerators are not reduced and may hold zeros.
    """
    L = lcm(*[den for _, den, _ in terms])
    out: list[dict[int, int]] = [{} for _ in range(cap + 1)]
    for c, den, comps in terms:
        f = c * (L // den)
        for acc, comp in zip(out, comps):
            get = acc.get
            for k, v in comp.items():
                acc[k] = get(k, 0) + v * f
    return L, out


def _lincomb(n: int, cap: int, terms) -> Series:
    """The reduced series sum of c * comps / den over (c, den, comps) in terms (see _sum_nums)."""
    return Series._reduced(n, cap, *_sum_nums(cap, terms))


@lru_cache(maxsize=1 << 10)
def _indices(key: int, n: int, base: int) -> tuple[int, ...]:
    """The variable index of each factor of the monomial of a packed key, in increasing order."""
    return tuple([j for j, e in enumerate(_unpack(key, n, base)) for _ in range(e)])


def _prefixes(ps) -> list[tuple[int, ...]]:
    """The prefixes of two or more factors of the variable-index tuples in ps, by length.

    Each p is a tuple of variable indices (see _indices).  A prefix
    comes after its head, so a walk in this order finds each head built.
    """
    return sorted({p[:l] for p in ps for l in range(2, len(p) + 1)}, key=len)


def _composed_sums(fs: list[Series], gs: list[Series], subtract: bool = False) -> list[tuple[int, list[dict]]]:
    """For each f in fs, (L, numerators) of f(g_1, ..., g_n) mod the cap of gs; with subtract, of f_i(gs) - g_i.

    Each monomial of an f is the product of its factors in increasing
    variable order, over f's den times its factors' denominators, and L
    is the lcm of those; the numerators by degree are not reduced and may
    hold zeros (see _sum_nums).  The caps of fs are their own: an f only
    lists monomials.  Each f gives a row of (variable indices, numerator
    over L), one per monomial, with -g_i folded into the numerator of
    y_i; _products forms the products, and each row is summed over them.

    Which keys meet depends only on the dimension and cap of gs and on
    the shadow (see _shadow) of each f and each g, so the plan cache
    (plan.py) compiles that structure into a flat plan on its second
    sighting, and later calls hand the plan the items of each g's parts
    and of each row, matched by key.  A series drops its zero numerators,
    so its key set varies from call to call where a numerator cancels,
    and a dense shadow takes that in: a key that a series lacks enters
    as 0.  A first sighting, or a structure whose plan would pass
    plan.LIMIT triples, runs on dicts.  Both give the same numerators;
    the plan may add keys whose numerator is 0.
    """
    if not gs:
        raise DimensionMismatchError("series composition needs at least one substituent")
    for f in fs:
        if len(gs) != f.n:
            raise DimensionMismatchError(f"expected {f.n} substituents, got {len(gs)}")
    n_out, cap = gs[0].n, gs[0].cap
    for g in gs:
        if g.cap != cap or g.n != n_out:
            raise DimensionMismatchError("substituents have mixed dimension or cap")
    # with no constant term in any g, a monomial above the cap composes to
    # degrees above the cap only, so every product it would form is cut
    top = None if any(g.comps[0] for g in gs) else cap + 1
    live = tuple(_shadow(n_out, g.comps) for g in gs)
    outer = tuple((f.cap, _shadow(f.n, f.comps[:top])) for f in fs)
    dens = [g.den for g in gs]
    sums, rows = [], []
    for i, f in enumerate(fs):
        # (variable indices, numerator over den, den) of each kept monomial, degree by degree
        terms = [(_indices(key, f.n, f.cap + 1), c, f.den) for comp in f.comps[:top] for key, c in comp.items()]
        if subtract:
            # -g_i is the monomial y_i with numerator -1 over 1
            terms.append(((i,), -1, 1))
        term_dens = [den * prod(map(dens.__getitem__, p)) for p, _, den in terms]
        L = lcm(*term_dens)
        sums.append(L)
        # a y_i of f and -g_i share one numerator, so a row lists each p once
        row: dict[tuple[int, ...], int] = {}
        for (p, c, _), t in zip(terms, term_dens):
            row[p] = row.get(p, 0) + c * (L // t)
        rows.append(row)
    key = ("compose", n_out, cap, subtract, live, outer)
    plan = PLANS.get(key, lambda limit: _composition_plan(n_out, cap, subtract, live, outer, limit))
    if plan is None:
        products = _products(cap, Series.one(n_out, cap).comps, [g.comps for g in gs], rows, _addmul)
        parts = [_sum_nums(cap, [(c, 1, products[p]) for p, c in row.items()])[1] for row in rows]
    else:
        parts = plan.run([c.items() for g in gs for c in g.comps] + [row.items() for row in rows])
    return list(zip(sums, parts))


def _products(cap: int, one: list[dict], gcomps: list[list[dict]], shape, addmul) -> dict:
    """The parts by degree of the product of the g_j over p, for p = (), each (j,) and each prefix in shape.

    Each prefix is built once for all the rows, from its head and one
    substituent, in order of length (see _prefixes), and truncated at
    the cap.  The dicts hold whatever addmul multiplies: numerators with
    _addmul, slots with a plan's Recorder.addmul.
    """
    products = {(): one}
    products.update(((j,), comps) for j, comps in enumerate(gcomps))
    for p in _prefixes(p for ps in shape for p in ps):
        products[p] = _mul_comps(cap, products[p[:-1]], gcomps[p[-1]], addmul)
    return products


def _composition_plan(n_out: int, cap: int, subtract: bool, live, outer, limit: int) -> Plan:
    """_composed_sums recorded as a plan over the shadows.

    Its inputs are each part of each g, keyed by packed key, then each
    row, keyed by variable indices.
    """
    rec = Recorder(limit)
    gcomps = []
    for shadow in live:
        keys = _spelled(n_out, cap + 1, shadow)
        gcomps.append([rec.input(keys.get(k, ())) for k in range(cap + 1)])
    n, rows = len(live), []
    for i, (fcap, shadow) in enumerate(outer):
        shape = [_indices(key, n, fcap + 1) for keys in _spelled(n, fcap + 1, shadow).values() for key in keys]
        if subtract and (i,) not in shape:
            shape.append((i,))
        rows.append(rec.input(shape))
    # slot 0 holds 1
    products = _products(cap, [{0: 0}] + [{}] * cap, gcomps, rows, rec.addmul)
    outputs = []
    for row in rows:
        out: list[dict[int, int]] = [{} for _ in range(cap + 1)]
        for p, s in row.items():
            for acc, comp in zip(out, products[p]):
                rec.addmul(acc, {0: s}, comp)
        outputs.append(out)
    return Plan(rec, outputs)


def _shadow(n: int, comps: list[dict[int, int]]) -> tuple:
    """The shadow of a series: (k, keys) for each nonzero degree k, keys None where it is dense, else its own keys.

    A part holding at least half of the monomials of its degree stands for
    all of them; a sparser one, such as the y_i of a G, for its own keys,
    in its own order.
    """
    return tuple([(k, None if 2 * len(c) >= comb(k + n - 1, n - 1) else tuple(c))
                  for k, c in enumerate(comps) if c])


def _spelled(n: int, base: int, shadow) -> dict[int, list[int]]:
    """The keys of each degree k of a shadow, a dense degree's being every key of degree k in a fixed order."""
    return {k: [sum([base**j for j in c]) for c in combinations_with_replacement(range(n), k)] if keys is None else keys
            for k, keys in shadow}


def _compose(f: Series, gs: list[Series]) -> Series:
    """f(g_1, ..., g_n) mod the cap of gs, for f packed at any cap (see _composed_sums)."""
    ((L, comps),) = _composed_sums([f], gs)
    return Series._reduced(gs[0].n, gs[0].cap, L, comps)


def series_compose(f: Poly, gs: list[Series]) -> Series:
    """Substitute series into a polynomial: f(g_1, ..., g_n) mod degree cap.

    f is packed once, at a cap of its total degree.  All substituents
    must share one ambient dimension and one cap; the result carries
    that cap.  Exact: equals full composition followed by truncation.
    """
    return _compose(Series(f, max(0, f.total_degree())), gs)


def series_exp(s: Series) -> Series:
    """exp of a series with zero constant term.

    Through the scaling operator: with S the sum of its homogeneous parts
    S_j, E = exp(S) satisfies m E_m = sum_{j=1..m} j S_j E_{m-j}; series_log
    runs the reverse recursion.  With S_j = sigma_j / s, E_m is an int
    numerator e_m over m! s^m, and
    e_m = sum_j j perm(m-1, j-1) s^(j-1) sigma_j e_{m-j}.  Both are exact
    over the rationals.
    """
    if s.comps[0]:
        raise ValueError("series_exp needs zero constant term")
    sigma, den = s.comps, s.den
    E = [{0: 1}]
    for m in range(1, s.cap + 1):
        acc: dict[int, int] = {}
        for j in range(1, m + 1):
            if sigma[j] and E[m - j]:
                c = j * perm(m - 1, j - 1) * den ** (j - 1)
                _addmul(acc, {k: c * v for k, v in sigma[j].items()}, E[m - j])
        E.append(acc)
    return Series._from_parts(s.n, [(factorial(m) * den**m, e) for m, e in enumerate(E)])


def series_log(s: Series) -> Series:
    """log of a series with constant term one.

    L_m = S_m - sum_{j<m} (j/m) L_j S_{m-j}, with L_m an int numerator
    l_m over m! s^m as in series_exp:
    l_m = m! s^(m-1) sigma_m - sum_j j perm(m-1, m-1-j) s^(m-j-1) l_j sigma_{m-j}.
    """
    if s.coefficient((0,) * s.n) != 1:
        raise ValueError("series_log needs constant term 1")
    sigma, den = s.comps, s.den
    ell: list[dict[int, int]] = [{}]
    for m in range(1, s.cap + 1):
        c = factorial(m) * den ** (m - 1)
        acc = {k: c * v for k, v in sigma[m].items()}
        for j in range(1, m):
            if ell[j] and sigma[m - j]:
                c = -j * perm(m - 1, m - 1 - j) * den ** (m - j - 1)
                _addmul(acc, {k: c * v for k, v in sigma[m - j].items()}, ell[j])
        ell.append(acc)
    return Series._from_parts(s.n, [(factorial(m) * den**m, e) for m, e in enumerate(ell)])
