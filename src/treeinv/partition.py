"""Partition-function series and the determinant identity.

With G the formal inverse of F = x - H, the series
log Z = sum over k >= 1 of (1/k) tr[M(G(y))^k] satisfies
Z(y) * det(I - M(x))|_{x=G(y)} = 1 identically, and the unit-Jacobian
condition forces Z = 1 (self-normalization).

Since M(G(y))^k = (M^k)(G(y)), log Z is one composition P(G) of the
loop polynomial P = sum over k of (1/k) tr M(x)^k.  tr M^k is numerators
over den^k (den = L (d-1)!, tensormap.py) of degree k(d-1), so P is a
Series with those parts over k den^k, keyed in the base of the powers
of M; no Poly is made.  The sum stops at the first M^k = 0, which
polymatrix.py tests at an integer point before the symbolic M^k, and
each trace comes from the two halves of k.  det(I - M) is the map's
memoized Series; G has no constant term, so composing it with G skips
the monomials above the cap.  Every object a map derives is computed
once per map and cap and read from its memo; G at a smaller cap is a
truncation of the largest computed.  Z = exp(log Z) uses series_exp
from poly.py (series_log is re-exported from there too).
"""

from __future__ import annotations

from dataclasses import dataclass

from treeinv.errors import PreconditionError
from treeinv.inversion import inverse_series
from treeinv.jacobian import is_unit_jacobian
from treeinv.poly import Series, _compose, series_exp
from treeinv.poly import series_log  # noqa: F401 - public as treeinv.partition.series_log
from treeinv.tensormap import PolyMap, _det_series, jacobian_powers


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
    # P at cap base - 1, so the traces' keys serve as they are
    parts = [(1, {})] * powers.base
    for k in range(1, k_max + 1):
        if powers.is_zero(k):
            break
        parts[k * (pmap.d - 1)] = (k * powers.den**k, powers.trace(k))
    return _compose(Series._from_parts(pmap.n, parts), inverse_series(pmap, D))


def z_series(pmap: PolyMap, D: int) -> Series:
    """exp of log_z_series; constant term 1 (memoized per map)."""
    return pmap._memoized(("z", D), lambda: series_exp(log_z_series(pmap, D)))


def verify_z_identity(pmap: PolyMap, D: int) -> bool:
    """True iff z_series(map, D) * det(I - M(x))|_{x=G(y)} = 1 through degree D."""
    G = inverse_series(pmap, D)
    jf_at_g = _compose(_det_series(pmap), G)
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
