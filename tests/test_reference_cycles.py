"""The per-call memos of the kernels leave no reference cycles behind.

The fixed point, the composition, the cofactor determinant and the
nested tree shape each keep a memo for the length of one call.  Built
as loops over that memo, a call frees everything it made when it
returns, so a request leaves nothing for the cyclic collector.
"""

from __future__ import annotations

import gc

from treeinv.catalog import random_map, triangular_map, univariate_map
from treeinv.inversion import fixed_point_inverse, verify_inverse
from treeinv.poly import series_compose
from treeinv.polymatrix import PolyMatrix
from treeinv.tensormap import build_H, jacobian_det, jacobian_matrix
from treeinv.trees import amplitude_vector, enumerate_trees


def _requests(seed: int) -> None:
    """The kernels' public calls on fresh maps, as the invert and identities requests make them."""
    maps = [
        (random_map(4, 3, seed=seed), 7),
        (random_map(3, 2, seed=seed + 1), 8),
        (triangular_map(4, 3), 10),
        (univariate_map(2, 1), 12),
    ]
    for pmap, D in maps:
        G = fixed_point_inverse(pmap, D)
        assert verify_inverse(pmap, G, D)
        series_compose(build_H(pmap)[0], G)
        jacobian_det(pmap)
        (PolyMatrix.identity(pmap.n, pmap.n) - jacobian_matrix(pmap)).det()
        for tree in list(enumerate_trees(2, pmap.d))[:3]:
            amplitude_vector(tree, pmap)


def test_calls_leave_no_cyclic_garbage():
    _requests(51)  # first calls fill the process-wide caches
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        _requests(61)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
