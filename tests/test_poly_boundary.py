"""Poly only at the API: no call below builds a Poly on the way to its answer.

H, log Z's loop polynomial and det(I - M) stay Series between the
kernels, so a Poly is made only when a public function returns one.
Each call runs on a fresh copy of its map, so nothing it needs comes
from an earlier call's memo.
"""

from __future__ import annotations

import pytest

from treeinv.catalog import catalog, random_map
from treeinv.inversion import fixed_point_inverse, polynomial_inverse_degree, verify_inverse
from treeinv.jacobian import analyze
from treeinv.numeric import default_sample_points, theorem1_check
from treeinv.partition import (
    check_self_normalization,
    partition_report,
    verify_z_identity,
)
from treeinv.poly import Poly
from treeinv.tensormap import PolyMap
from treeinv.trees import tree_sum_inverse

MAPS = catalog() + [
    random_map(n, d, seed=81, name=f"random-{n}-{d}-seed81") for n, d in ((2, 2), (3, 2), (4, 2), (4, 3))
]

# Every tree stratum up to this cap fits the default budget for d = 2 and 3.
D = 5

# The degree probe needs a cap above d^(n-1): on the dense n = 4, d = 3 map
# that is a fixed point at cap 28 (about a minute), whose Poly-free path the
# fixed_point_inverse row already covers at D.
NO_PROBE = {"random-4-3-seed81"}


@pytest.fixture
def poly_count(monkeypatch):
    """The number of Poly objects built so far, through either constructor."""
    count = [0]
    init, trusted = Poly.__init__, Poly._trusted

    def counted_init(self, *args, **kwargs):
        count[0] += 1
        init(self, *args, **kwargs)

    def counted_trusted(cls, *args, **kwargs):
        count[0] += 1
        return trusted(*args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counted_init)
    monkeypatch.setattr(Poly, "_trusted", classmethod(counted_trusted))
    return lambda: count[0]


def _calls(pmap: PolyMap):
    """(label, call) for every checked public call; each call takes a fresh map."""
    G = fixed_point_inverse(pmap, D)
    points = default_sample_points(pmap)
    bound = pmap.gabber_bound()
    calls = [
        ("fixed_point_inverse", lambda m: fixed_point_inverse(m, D)),
        ("verify_inverse", lambda m: verify_inverse(m, G, D)),
        ("theorem1_check", lambda m: theorem1_check(m, D, points)),
        ("theorem1_check G=", lambda m: theorem1_check(m, D, points, G=G)),
        ("tree_sum_inverse labeled", lambda m: tree_sum_inverse(m, D, method="labeled")),
        ("tree_sum_inverse grouped", lambda m: tree_sum_inverse(m, D, method="grouped")),
        ("analyze", analyze),
        ("partition_report", lambda m: partition_report(m, D)),
        ("verify_z_identity", lambda m: verify_z_identity(m, D)),
    ]
    if pmap.name not in NO_PROBE:
        calls.append(("polynomial_inverse_degree", lambda m: polynomial_inverse_degree(m, bound + 1)))
    if analyze(pmap).unit_jacobian:
        calls.append(("check_self_normalization", lambda m: check_self_normalization(m, D)))
    return calls


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name)
def test_no_poly_is_built_below_the_api(pmap, poly_count):
    built = {}
    for label, call in _calls(pmap):
        before = poly_count()
        call(PolyMap(pmap.tensor, pmap.name))
        built[label] = poly_count() - before
    assert built == dict.fromkeys(built, 0)
