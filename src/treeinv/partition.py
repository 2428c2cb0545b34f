"""Partition-function series and the determinant identity.

With G the formal inverse of F = x - H, the series
log Z = sum over k >= 1 of (1/k) tr[M(G(y))^k] satisfies
Z(y) * det(I - M(x))|_{x=G(y)} = 1 identically, and the unit-Jacobian
condition forces Z = 1 (self-normalization).

Since M(G(y))^k = (M^k)(G(y)) and composition is linear in the outer
polynomial, log Z is one composition P(G) of the exact polynomial
P = sum over k of (1/k) tr M(x)^k with G.  tr M^k is numerators over
den^k with den = L (d-1)! (tensormap.py) and has degree k(d-1), so P is
the traces' terms over k den^k, merged with no lcm.  The sum stops at
the first M^k = 0; each zero test reads M's values at a fixed integer
point first and confirms a zero on the symbolic M^k, and each trace is
taken from the two halves of k (see polymatrix.py), so a non-unit map
forms no power of M above the halves it needs.  G has no constant
term, so composing det(I - M) with G in verify_z_identity skips the
monomials above the cap.  Each object a map derives (H, the powers of
M, det(I - M), G, log Z and Z) is computed once per map and cap and
then read from the map's memo; G at a smaller cap is a truncation of
the largest one computed.  Z = exp(log Z) uses
series_exp from poly.py (series_log is re-exported from there too).
"""

from __future__ import annotations

from dataclasses import dataclass

from treeinv.errors import PreconditionError
from treeinv.inversion import inverse_series
from treeinv.jacobian import is_unit_jacobian
from treeinv.poly import Poly, Series, _from_nums, series_compose, series_exp
from treeinv.poly import series_log  # noqa: F401 - public as treeinv.partition.series_log
from treeinv.tensormap import PolyMap, jacobian_det, jacobian_powers


def log_z_series(pmap: PolyMap, D: int) -> Series:
    """sum over k of (1/k) tr[M(G(y))^k], truncated at degree D (memoized per map).

    M(G(y))^k = (M^k)(G(y)) and composition is linear in the outer
    polynomial, so this is the one composition P(G) with the exact
    polynomial P = sum of (1/k) tr M(x)^k.  M(G(y)) has lowest degree
    d - 1, so only k <= D // (d - 1) contribute below the cap, and the
    sum stops early once M^k = 0.
    """
    if D < 1:
        raise ValueError(f"degree cap must be >= 1, got {D}")
    return pmap._memoized(("log_z", D), lambda: _log_z(pmap, D))


def _log_z(pmap: PolyMap, D: int) -> Series:
    k_max = D // (pmap.d - 1)
    powers = jacobian_powers(pmap, k_max)
    terms = {}
    for k in range(1, k_max + 1):
        if powers.is_zero(k):
            break
        terms.update(_from_nums(pmap.n, powers.base, k * powers.den**k, powers.trace(k)).terms)
    return series_compose(Poly._trusted(pmap.n, terms), inverse_series(pmap, D))


def z_series(pmap: PolyMap, D: int) -> Series:
    """exp of log_z_series; constant term 1 (memoized per map)."""
    return pmap._memoized(("z", D), lambda: series_exp(log_z_series(pmap, D)))


def verify_z_identity(pmap: PolyMap, D: int) -> bool:
    """True iff z_series(map, D) * det(I - M(x))|_{x=G(y)} = 1 through degree D."""
    G = inverse_series(pmap, D)
    jf_at_g = series_compose(jacobian_det(pmap), G)
    product = z_series(pmap, D) * jf_at_g
    return product == Series.one(pmap.n, D)


def check_self_normalization(pmap: PolyMap, D: int) -> bool:
    """Under a unit Jacobian, Z must be identically 1 up to the cap.

    Raises unless the map passes is_unit_jacobian; the statement is
    empty otherwise.
    """
    if not is_unit_jacobian(pmap):
        raise PreconditionError(
            "map does not satisfy the unit-Jacobian condition; "
            "self-normalization is only asserted under it"
        )
    return z_series(pmap, D) == Series.one(pmap.n, D)


@dataclass
class PartitionReport:
    """Partition series at one cap."""

    log_z: Series
    z: Series
    self_normalized: bool


def partition_report(pmap: PolyMap, D: int) -> PartitionReport:
    lz = log_z_series(pmap, D)
    z = z_series(pmap, D)
    return PartitionReport(log_z=lz, z=z, self_normalized=z == Series.one(pmap.n, D))
