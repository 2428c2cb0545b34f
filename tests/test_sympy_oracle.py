"""det(I - M), nilpotency, tr M^k, F(G) = y, log Z and Z against sympy.

sympy is an implementation that shares no code with treeinv.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb, prod
from random import Random

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from treeinv import polymatrix  # noqa: E402
from treeinv.catalog import catalog, random_map  # noqa: E402
from treeinv.inversion import fixed_point_inverse, polynomial_inverse_degree  # noqa: E402
from treeinv.jacobian import JacobianVerdict, analyze, nilpotency_order, trace_powers  # noqa: E402
from treeinv.partition import log_z_series, z_series  # noqa: E402
from treeinv.poly import Poly  # noqa: E402
from treeinv.tensormap import (  # noqa: E402
    PolyMap,
    SymTensor,
    jacobian_det,
    jacobian_matrix,
    jacobian_powers,
)


def _conjugated_map(n: int, d: int, seed: int) -> PolyMap:
    """x - A^-1 H(A x) for H_i = c_i x_{i+1}^d (i < n), A integer unimodular.

    A = P L U with every off-diagonal entry of L and U equal to +-1, redrawn
    until every tensor entry is nonzero: a dense map with unit Jacobian and
    M of order exactly n.
    """
    rng = Random(seed)
    xs = sympy.symbols(f"x1:{n + 1}")
    while True:
        L = sympy.Matrix(n, n, lambda i, j: 1 if i == j else rng.choice((-1, 1)) if j < i else 0)
        U = sympy.Matrix(n, n, lambda i, j: 1 if i == j else rng.choice((-1, 1)) if j > i else 0)
        perm = list(range(n))
        rng.shuffle(perm)
        A = (L * U).extract(perm, list(range(n)))
        Ax = A * sympy.Matrix(xs)
        c = [rng.choice((-2, -1, 1, 2)) for _ in range(n - 1)]
        H = A.inv() * sympy.Matrix([c[i] * Ax[i + 1] ** d for i in range(n - 1)] + [0])
        entries = {}
        for i in range(n):
            coeffs = sympy.Poly(sympy.expand(H[i]), *xs).as_dict()
            for lower in combinations_with_replacement(range(n), d):
                exps = tuple(lower.count(j) for j in range(n))
                value = sympy.Rational(coeffs.get(exps, 0) * prod(sympy.factorial(e) for e in exps))
                if value:
                    entries[(i, lower)] = Fraction(int(value.p), int(value.q))
        if len(entries) == n * comb(n + d - 1, d):
            return PolyMap(SymTensor(n, d, entries), name=f"conjugated-{n}-{d}-{seed}")


def _maps() -> list[PolyMap]:
    maps = [p for p in catalog() if 2 <= p.n <= 4]
    for n in (2, 3, 4):
        for d in (2, 3):
            seed = 100 + 10 * n + d
            maps.append(random_map(n, d, seed=seed, name=f"seeded-{n}-{d}-{seed}"))
    for n in (3, 4):
        for d in (2, 3):
            maps.append(_conjugated_map(n, d, seed=200 + 10 * n + d))
    return maps


# built once per module: the conjugated maps take sympy matrix inverses
MAPS = _maps()


@pytest.fixture
def pmap(request) -> PolyMap:
    """A fresh PolyMap on the parametrized map's tensor, so no test reads another's memo."""
    return PolyMap(request.param.tensor, request.param.name)


def _sympy_H(pmap: PolyMap):
    """H built by sympy from the tensor: H_i = (1/d!) sum over ordered index tuples."""
    n, d = pmap.n, pmap.d
    xs = sympy.symbols(f"x1:{n + 1}")
    H = [sympy.Integer(0)] * n
    for i in range(n):
        for lower in product(range(n), repeat=d):
            value = pmap.tensor.get(i, lower)
            if value:
                term = sympy.Rational(value.numerator, value.denominator)
                for j in lower:
                    term *= xs[j]
                H[i] += term
        H[i] /= sympy.factorial(d)
    return xs, H


def _sympy_jacobian(pmap: PolyMap):
    """M = dH/dx built by sympy from the tensor."""
    n = pmap.n
    xs, H = _sympy_H(pmap)
    M = sympy.Matrix(n, n, lambda i, j: sympy.diff(H[i], xs[j]))
    # entries in QQ[x], where products and powers stay polynomial
    return xs, DomainMatrix.from_Matrix(M).convert_to(sympy.QQ[xs])


def _to_poly(expr, xs) -> Poly:
    terms = sympy.Poly(sympy.expand(expr), *xs).terms()
    return Poly(len(xs), {m: Fraction(int(c.p), int(c.q)) for m, c in terms})


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name, indirect=True)
def test_det_against_berkowitz(pmap):
    xs, M = _sympy_jacobian(pmap)
    want = (sympy.eye(pmap.n) - M.to_Matrix()).det(method="berkowitz")
    assert jacobian_det(pmap) == _to_poly(want, xs)


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name, indirect=True)
def test_nilpotency_order_against_sympy_powers(pmap):
    _, M = _sympy_jacobian(pmap)
    want = None
    power = M
    for k in range(1, pmap.n + 1):
        if power.is_zero_matrix:
            want = k
            break
        power = power * M
    assert nilpotency_order(pmap) == want


@pytest.mark.parametrize(
    "pmap",
    [p for p in MAPS if p.name.startswith("conjugated")],
    ids=lambda p: p.name,
    indirect=True,
)
def test_conjugated_maps_are_unit_of_order_n(pmap):
    assert jacobian_det(pmap) == Poly.const(pmap.n, 1)
    assert nilpotency_order(pmap) == pmap.n


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name, indirect=True)
def test_jacobian_matrix_against_sympy_derivatives(pmap):
    xs, M = _sympy_jacobian(pmap)
    want = M.to_Matrix()
    got = jacobian_matrix(pmap)
    for i in range(pmap.n):
        for j in range(pmap.n):
            assert got.entries[i][j] == _to_poly(want[i, j], xs), (i, j)


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name, indirect=True)
def test_jacobian_power_entries_against_sympy_powers(pmap):
    xs, M = _sympy_jacobian(pmap)
    power = M
    for k in range(1, pmap.n + 1):
        want = power.to_Matrix()
        got = jacobian_powers(pmap, k).matrix(k)
        for i in range(pmap.n):
            for j in range(pmap.n):
                assert got.entries[i][j] == _to_poly(want[i, j], xs), (k, i, j)
        power = power * M


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name, indirect=True)
def test_trace_powers_against_sympy_traces(pmap):
    xs, M = _sympy_jacobian(pmap)
    k_max = pmap.n + 1
    want = [_to_poly((M**k).to_Matrix().trace(), xs) for k in range(1, k_max + 1)]
    assert trace_powers(pmap, k_max) == want


def _inverse_cases() -> list[tuple[PolyMap, int]]:
    cases = [(p, 6 if p.d == 2 else 7) for p in catalog() if 2 <= p.n <= 4]
    for n, d, D in ((2, 2, 6), (3, 2, 5), (2, 3, 7)):
        for seed in (1, 2):
            cases.append((random_map(n, d, seed=seed, name=f"seeded-{n}-{d}-{seed}"), D))
    return cases


@pytest.mark.parametrize(
    "pmap,D",
    _inverse_cases(),
    ids=lambda c: c.name if isinstance(c, PolyMap) else f"D{c}",
    indirect=["pmap"],
)
def test_inverse_satisfies_F_of_G_expanded_by_sympy(pmap, D):
    """sympy expands G - H(G) with H from the tensor; truncated at D it is y."""
    n = pmap.n
    xs, H = _sympy_H(pmap)
    ys = sympy.symbols(f"y1:{n + 1}")
    G = [
        sympy.Poly.from_dict(
            {m: sympy.Rational(c.numerator, c.denominator) for m, c in g.body.terms.items()},
            *ys,
            domain=sympy.QQ,
        )
        for g in fixed_point_inverse(pmap, D)
    ]
    for i in range(n):
        H_of_G = sympy.Poly(0, *ys, domain=sympy.QQ)
        for m, c in sympy.Poly(H[i], *xs).terms():
            term = sympy.Poly(c, *ys, domain=sympy.QQ)
            for g, e in zip(G, m):
                term *= g**e
            H_of_G += term
        low = {m: c for m, c in (G[i] - H_of_G).terms() if sum(m) <= D}
        assert low == {tuple(int(j == i) for j in range(n)): 1}, (pmap.name, i)


def _zero_test_maps() -> list[PolyMap]:
    """The whole catalog, then the seeded and conjugated maps of MAPS."""
    return list(catalog()) + [p for p in MAPS if p.name.startswith(("seeded", "conjugated"))]


@pytest.mark.parametrize("pmap", _zero_test_maps(), ids=lambda p: p.name, indirect=True)
def test_traces_vanish_against_unpacked_traces(pmap):
    assert analyze(pmap).traces_vanish == all(t.is_zero() for t in trace_powers(pmap))


# the dense n = 4, d = 3 maps need G to degree 29, about a minute each
@pytest.mark.parametrize(
    "pmap",
    [p for p in _zero_test_maps() if p.gabber_bound() < 27 or p.name == "triangular-4-3"],
    ids=lambda p: p.name,
    indirect=True,
)
def test_inverse_degree_against_homogeneous_components(pmap):
    bound = pmap.gabber_bound()
    cap = bound + pmap.d - 1
    G = fixed_point_inverse(pmap, cap)
    top = max(
        [1]
        + [
            deg
            for g in G
            for deg in range(1, cap + 1)
            if not g.homogeneous_component(deg).is_zero()
        ]
    )
    assert polynomial_inverse_degree(pmap, cap) == (top if top <= bound else None)


# -- log Z and Z from sympy's determinant at G(t y) ---------------------------


def _sympy_log_z_and_z(pmap: PolyMap, D: int) -> tuple[list[dict], list[dict]]:
    """log Z and Z per degree, expanded by hand from J(t) = det(I - M)(G(t y)).

    det(I - M) = det(lambda I - M) at lambda = 1, the sum of the
    coefficients of the characteristic polynomial that sympy's Berkowitz
    algorithm computes from its own Jacobian.  G comes from treeinv,
    whose F(G) = y is checked above.  A degree-m part of G(t y) carries
    t^m, so a term of x-degree above D contributes nothing, and every
    product is trimmed at t-degree D.  With q = 1 - J, log Z = -log J =
    sum q^k / k and Z = 1 / J = sum q^k over k >= 0; q has no constant
    term, so both sums are finite.
    """
    n = pmap.n
    _, M = _sympy_jacobian(pmap)
    det = sum(M.charpoly_berk(), M.domain.zero)
    R, *_ = ring(["t"] + [f"y{j}" for j in range(1, n + 1)], sympy.QQ)

    def trim(p):
        return R({m: c for m, c in p.items() if m[0] <= D})

    G = [
        R({(sum(m), *m): sympy.QQ(c.numerator, c.denominator) for m, c in g.body.terms.items()})
        for g in fixed_point_inverse(pmap, D)
    ]
    powers = [[R.one] for _ in range(n)]
    J = R.zero
    for exps, c in det.items():
        if sum(exps) > D:
            continue
        term = R(c)
        for j, e in enumerate(exps):
            while len(powers[j]) <= e:
                powers[j].append(trim(powers[j][-1] * G[j]))
            term = trim(term * powers[j][e])
        J += term
    q = R.one - J
    log_z, z, qk, k = R.zero, R.one, R.one, 0
    while True:
        qk, k = trim(qk * q), k + 1
        if not qk:
            break
        log_z += qk * sympy.QQ(1, k)
        z += qk
    return _by_degree(log_z, D), _by_degree(z, D)


def _by_degree(p, D: int) -> list[dict]:
    """{y-monomial: Fraction} for each t-degree 0..D; the t-degree is the y-degree."""
    out: list[dict] = [{} for _ in range(D + 1)]
    for (deg, *mono), c in p.items():
        assert sum(mono) == deg
        out[deg][tuple(mono)] = Fraction(int(c.numerator), int(c.denominator))
    return out


def _z_cases() -> list[tuple[PolyMap, int]]:
    return [(p, {2: 5, 3: 6}[p.d]) for p in MAPS]


@pytest.mark.parametrize(
    "pmap,D",
    _z_cases(),
    ids=lambda c: c.name if isinstance(c, PolyMap) else f"D{c}",
    indirect=["pmap"],
)
def test_log_z_and_z_against_sympy_determinant_at_G(pmap, D):
    want_log_z, want_z = _sympy_log_z_and_z(pmap, D)
    log_z, z = log_z_series(pmap, D), z_series(pmap, D)
    for m in range(D + 1):
        assert log_z.homogeneous_component(m).terms == want_log_z[m], (pmap.name, m)
        assert z.homogeneous_component(m).terms == want_z[m], (pmap.name, m)


# -- zero tests: the witness point, and the symbolic powers behind it ---------


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name, indirect=True)
def test_zero_at_the_witness_point_falls_back_to_symbolic_powers(pmap, monkeypatch):
    """With M zero at the witness point, every zero test is settled on M^k itself."""
    evaluated = []

    def zero_at_point(n, base, rows):
        evaluated.append(n)
        return [[0] * n for _ in range(n)]

    monkeypatch.setattr(polymatrix, "_at_witness", zero_at_point)
    n = pmap.n
    xs, M = _sympy_jacobian(pmap)
    powers = [M]
    for _ in range(n):
        powers.append(powers[-1] * M)
    order = next((k for k, P in enumerate(powers[:n], start=1) if P.is_zero_matrix), None)
    traces = [_to_poly(P.to_Matrix().trace(), xs) for P in powers]
    # det(I - M) = det(lambda I - M) at lambda = 1, as in _sympy_log_z_and_z
    unit = sum(M.charpoly_berk(), M.domain.zero) == M.domain.one
    assert nilpotency_order(pmap) == order
    assert analyze(pmap) == JacobianVerdict(unit, order, all(t.is_zero() for t in traces[:n]))
    assert trace_powers(pmap, n + 1) == traces
    D = 4
    want_log_z, _ = _sympy_log_z_and_z(pmap, D)
    log_z = log_z_series(pmap, D)
    for m in range(D + 1):
        assert log_z.homogeneous_component(m).terms == want_log_z[m], (pmap.name, m)
    assert evaluated


def test_analyze_multiplies_matrices_only_where_the_point_gives_zero(monkeypatch):
    products = []
    real = polymatrix._mul_rows

    def counted(A, B):
        products.append(len(A))
        return real(A, B)

    monkeypatch.setattr(polymatrix, "_mul_rows", counted)
    # a dense non-unit map: M^k is nonzero at the point for every k <= n
    dense = random_map(4, 2, seed=6)
    assert analyze(dense) == JacobianVerdict(False, None, False)
    assert products == []
    # a unit map of order 4: M^4 = M^2 M^2 is formed and found zero, M^3 never
    for pmap in [p for p in MAPS if p.name.startswith("conjugated-4")]:
        fresh = PolyMap(pmap.tensor, pmap.name)
        products.clear()
        assert analyze(fresh) == JacobianVerdict(True, 4, True)
        assert sorted(fresh._memo["M^k"]._powers) == [1, 2, 4]
        assert products == [4, 4]
