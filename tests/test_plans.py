"""Compiled plans: the same numerators as the dict route, and the cache's policy.

The fixed point, the series composition and the tree sums run on dicts
the first time a structure is seen and on flat plans (treeinv.plan)
from its second sighting on.  Each route is the other's oracle: every
Series below is compared field for field.  Each call takes a fresh
copy of its map, so nothing comes from an earlier call's memo.
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction

import pytest

from treeinv import inversion, plan, poly, trees
from treeinv.catalog import catalog, random_map
from treeinv.errors import BudgetExceededError
from treeinv.inversion import fixed_point_inverse, verify_inverse
from treeinv.partition import log_z_series, verify_z_identity, z_series
from treeinv.plan import PLANS, PlanCache
from treeinv.poly import Poly, Series
from treeinv.tensormap import PolyMap
from treeinv.trees import tree_sum_inverse


def _conjugated_maps() -> list[PolyMap]:
    """The conjugated unit maps of test_sympy_oracle.py, which needs sympy to build them."""
    try:
        import sympy  # noqa: F401
    except ImportError:
        return []
    from test_sympy_oracle import MAPS

    return [p for p in MAPS if p.name.startswith("conjugated")]


SEEDED = [random_map(n, d, seed=7, name=f"random-{n}-{d}-seed7") for n, d in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 2), (4, 3))]
MAPS = catalog() + SEEDED + _conjugated_maps()


def _cap(pmap: PolyMap) -> int:
    """A cap with two or more live degrees above 1 that keeps n = 4, d = 3 quick."""
    return 5 if pmap.n * pmap.d >= 12 else 7


def _fields(value):
    """A Series as its fields, a list or tuple of them element by element, anything else as itself."""
    if isinstance(value, Series):
        return (value.n, value.cap, value.den, value.comps)
    if isinstance(value, (list, tuple)):
        return [_fields(v) for v in value]
    return value


@pytest.fixture
def counts(monkeypatch):
    """Plans run and compiled since the last reset, through the module-level cache.

    A run is a call of Plan.run, the tree sums' runs of their contraction
    included.
    """
    seen = {"run": 0, "compiled": 0}
    run, get = plan.Plan.run, PLANS.get

    def counted_run(self, *args):
        seen["run"] += 1
        return run(self, *args)

    def counted_get(key, compile):
        def counted_compile(limit):
            seen["compiled"] += 1
            return compile(limit)

        return get(key, counted_compile)

    monkeypatch.setattr(plan.Plan, "run", counted_run)
    monkeypatch.setattr(PLANS, "get", counted_get)
    PLANS.clear()
    yield seen
    PLANS.clear()


def _routes(counts, call):
    """call() on dicts, on its second sighting (compiled) and warm; each plan run must match the dicts."""
    PLANS.clear()
    counts.update(run=0, compiled=0)
    by_dicts = call()
    assert counts == {"run": 0, "compiled": 0}
    compiled = call()
    assert counts["run"] > 0 and counts["compiled"] > 0
    counts.update(run=0, compiled=0)
    warm = call()
    assert counts["run"] > 0 and counts["compiled"] == 0
    assert _fields(compiled) == _fields(by_dicts)
    assert _fields(warm) == _fields(by_dicts)
    return by_dicts


def _fresh(pmap: PolyMap) -> PolyMap:
    return PolyMap(pmap.tensor, pmap.name)


# -- plan route == dict route -------------------------------------------


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name)
def test_fixed_point_and_verify_agree_on_both_routes(pmap, counts):
    D = _cap(pmap)
    G = _routes(counts, lambda: fixed_point_inverse(_fresh(pmap), D))
    assert _routes(counts, lambda: verify_inverse(_fresh(pmap), G, D)) is True


@pytest.mark.parametrize("pmap", MAPS, ids=lambda p: p.name)
def test_partition_series_agree_on_both_routes(pmap, counts):
    D = 5 if pmap.n * pmap.d < 12 else 4
    _routes(counts, lambda: log_z_series(_fresh(pmap), D))
    _routes(counts, lambda: z_series(_fresh(pmap), D))
    assert _routes(counts, lambda: verify_z_identity(_fresh(pmap), D)) is True


@pytest.mark.parametrize("pmap", catalog() + SEEDED[:4], ids=lambda p: p.name)
def test_one_coefficient_off_is_refused_with_the_plans_warm(pmap, counts):
    D = 7
    G = fixed_point_inverse(pmap, D)
    for _ in range(2):
        assert verify_inverse(pmap, G, D)
    for i in range(pmap.n):
        for m in range(D + 1):
            mono = tuple(m if j == i else 0 for j in range(pmap.n))
            off = G[:i] + [Series(G[i].body + Poly.monomial(mono, Fraction(1, 3)), D)] + G[i + 1 :]
            # a new degree is a new structure: its first sighting is on dicts
            results = [verify_inverse(pmap, off, D) for _ in range(3)]
            assert results == [False] * 3, (i, m)
    assert counts["run"] > 0


def test_a_plan_serves_a_G_missing_numerators_its_dense_shadow_holds(counts):
    full, sparse = random_map(4, 3, seed=2), random_map(4, 3, seed=1)
    D = 5
    G_full, G_sparse = fixed_point_inverse(full, D), fixed_point_inverse(sparse, D)
    # seed 1 has a zero numerator at degree 5 of G_1; seed 2 has none
    assert len(G_sparse[0].comps[5]) < len(G_full[0].comps[5]) == 56
    assert verify_inverse(full, G_full, D) and verify_inverse(full, G_full, D)
    counts.update(run=0, compiled=0)
    assert verify_inverse(sparse, G_sparse, D)
    assert counts == {"run": 1, "compiled": 0}
    # dropping a numerator that is not zero is caught on the same plan
    wrong = [Series._reduced(4, D, g.den, [dict(c) for c in g.comps]) for g in G_full]
    del wrong[2].comps[5][next(iter(wrong[2].comps[5]))]
    assert not verify_inverse(full, wrong, D)
    assert counts == {"run": 2, "compiled": 0}
    # the outer series has a shadow too: a cubic part that lacks a monomial shares the full one's plan
    cubes = {m: Fraction(k + 1, 3) for k, m in enumerate(_monomials(4, 3))}
    f_full = Series(Poly(4, {**cubes, (0, 0, 0, 1): 5}), 3)
    del cubes[(1, 1, 1, 0)]
    f_sparse = Series(Poly(4, {**cubes, (0, 0, 0, 1): 5}), 3)
    PLANS.clear()
    by_dicts = poly._compose(f_sparse, G_sparse)
    for _ in range(2):
        poly._compose(f_full, G_full)
    counts.update(run=0, compiled=0)
    assert _fields(poly._compose(f_sparse, G_sparse)) == _fields(by_dicts)
    assert counts == {"run": 1, "compiled": 0}


# the six kinds of the benchmark's treesum workload, as (n, d, cap)
TREESUM_KINDS = [(1, 2, 6), (2, 4, 10), (3, 2, 5), (2, 2, 6), (1, 3, 7), (2, 3, 7)]
TREE_MAPS = [(p, 6 if p.d == 2 else 7) for p in catalog()] + [
    (random_map(n, d, seed=7, name=f"random-{n}-{d}-seed7"), D) for n, d, D in TREESUM_KINDS
]


@pytest.mark.parametrize("pmap,D", TREE_MAPS, ids=lambda x: x.name if isinstance(x, PolyMap) else str(x))
def test_tree_sums_agree_on_both_routes(pmap, D, counts):
    want = fixed_point_inverse(pmap, D)
    labeled = _routes(counts, lambda: tree_sum_inverse(_fresh(pmap), D, method="labeled"))
    grouped = _routes(counts, lambda: tree_sum_inverse(_fresh(pmap), D, method="grouped"))
    assert labeled == grouped == want
    # with the entry warm, the grouped call reads the Vectors the labeled call memoized
    tree_sum_inverse(_fresh(pmap), D, method="labeled")
    tree_sum_inverse(_fresh(pmap), D, method="labeled")
    fresh = _fresh(pmap)
    counts.update(run=0, compiled=0)
    both = [tree_sum_inverse(fresh, D, method=m) for m in ("labeled", "grouped")]
    assert counts == {"run": 1, "compiled": 0}
    assert _fields(both) == _fields([labeled, grouped])


def test_a_tree_structure_over_the_limit_is_recorded_once_and_stays_on_dicts(monkeypatch):
    compiled = []
    record = trees._contraction_plan
    monkeypatch.setattr(trees, "_contraction_plan", lambda *args: compiled.append(args[-1]) or record(*args))
    monkeypatch.setattr(PLANS, "limit", 500)
    pmap, D = random_map(2, 2, seed=1), 6
    want = fixed_point_inverse(pmap, D)
    PLANS.clear()
    for _ in range(4):
        fresh = _fresh(pmap)
        assert tree_sum_inverse(fresh, D) == tree_sum_inverse(fresh, D, method="grouped") == want
    # the structure was tried once, on its second sighting, for both methods
    assert compiled == [500]
    assert not PLANS.plans
    assert list(PLANS.marks.values()) == [True]
    PLANS.clear()


def test_a_tree_structure_records_its_contraction_once_while_both_methods_compile(monkeypatch, counts):
    walks = []
    walk = trees._amplitudes

    def counted(groups, leaf, d, D, addmul):
        walks.append("numerators" if addmul is poly._addmul else "slots")
        return walk(groups, leaf, d, D, addmul)

    monkeypatch.setattr(trees, "_amplitudes", counted)
    pmap, D = random_map(2, 3, seed=7), 7
    PLANS.clear()
    for _ in range(3):
        fresh = _fresh(pmap)
        want = tree_sum_inverse(fresh, D)
        assert want == tree_sum_inverse(fresh, D, method="grouped")
    # one walk on the first sighting's dicts and one recording on the second;
    # the structure compiled once, and the memo holds one run's output rows by shape
    assert walks == ["numerators", "slots"]
    assert counts["compiled"] == 1
    (entry,) = PLANS.plans.values()
    amps = fresh._memo[("amplitudes", D)]
    assert list(amps) == trees._shapes_upto(3, D)
    assert list(amps.values()) == entry.run([fresh.tensor._scaled[1].items()])
    # with the cache cleared, a map whose memo holds the contraction's Vectors
    # runs both methods on them, and runs and records no plan
    PLANS.clear()
    counts.update(run=0, compiled=0)

    def refuse(*args):
        raise AssertionError("recorded a plan for a map whose memo holds its contraction")

    monkeypatch.setattr(trees, "Recorder", refuse)
    for method in ("labeled", "grouped"):
        assert _fields(tree_sum_inverse(fresh, D, method=method)) == _fields(want)
    assert counts == {"run": 0, "compiled": 0}
    assert walks == ["numerators", "slots"] and not PLANS.plans and not PLANS.marks


@pytest.mark.parametrize("method", ["labeled", "grouped"])
def test_tree_sum_budget_refused_before_any_plan(monkeypatch, method, counts):
    # random-2-2 at D = 6 is over a budget of 10^5 only at V = 5, the last stratum
    pmap = random_map(2, 2, seed=7)
    for _ in range(2):
        tree_sum_inverse(_fresh(pmap), 6, method=method)
    warm = _fresh(pmap)
    tree_sum_inverse(warm, 6, method=method)

    def refuse(*args):
        raise AssertionError("contracted a stratum of an over-budget call")

    monkeypatch.setattr(trees, "_contract_children", refuse)
    counts.update(run=0, compiled=0)
    runs = []
    monkeypatch.setattr(plan.Plan, "run", lambda *args: runs.append(args))
    for p in (_fresh(pmap), warm):
        with pytest.raises(BudgetExceededError, match="V=5"):
            tree_sum_inverse(p, 6, budget=10**5, method=method)
    assert counts == {"run": 0, "compiled": 0} and not runs


@pytest.mark.parametrize("method", ["labeled", "grouped"])
def test_a_sum_plan_never_drops_a_shape_its_contraction_lacks(monkeypatch, method):
    PLANS.clear()
    pmap, D = random_map(2, 2, seed=1), 6
    tree_sum_inverse(_fresh(pmap), D, method=method)
    walk = trees._amplitudes

    def without_a_shape(*args):
        amps = walk(*args)
        del amps[trees._shapes_cached(5, 2)[-1]]
        return amps

    monkeypatch.setattr(trees, "_amplitudes", without_a_shape)
    # on the plan route, where the entry is built
    with pytest.raises(KeyError):
        tree_sum_inverse(_fresh(pmap), D, method=method)
    # and on the dict route
    PLANS.clear()
    with pytest.raises(KeyError):
        tree_sum_inverse(_fresh(pmap), D, method=method)
    PLANS.clear()


def _ordered(memo: dict) -> list:
    """A tree memo as a list: each shape with its Vector's items, in the memo's order at both levels."""
    return [(s, [list(c.items()) for c in vec]) for s, vec in memo.items()]


@pytest.mark.parametrize(
    "pmap,D",
    TREE_MAPS + [(random_map(5, 3, seed=1, name="random-5-3-seed1"), 7)],
    ids=lambda x: x.name if isinstance(x, PolyMap) else str(x),
)
def test_the_tree_memo_is_the_same_shape_to_vector_dict_on_both_routes(pmap, D, counts):
    n, d = pmap.n, pmap.d
    PLANS.clear()
    memos = []
    for sighting in range(3):
        counts.update(run=0, compiled=0)
        fresh = _fresh(pmap)
        tree_sum_inverse(fresh, D, method=("labeled", "grouped")[sighting % 2])
        memo = fresh._memo[("amplitudes", D)]
        assert type(memo) is dict and list(memo) == trees._shapes_upto(d, D)
        assert all(type(vec) is list and len(vec) == n for vec in memo.values())
        memos.append(_ordered(memo))
        if not PLANS.plans:
            # past plan.LIMIT: refused on the second sighting, on dicts throughout
            assert counts["run"] == 0 and list(PLANS.marks.values()) == [sighting > 0]
        else:
            assert sighting > 0 and counts == {"run": 1, "compiled": int(sighting == 1)}
    assert (len(PLANS.plans) == 1) == (pmap.name != "random-5-3-seed1")
    assert memos[0] == memos[1] == memos[2]
    PLANS.clear()


def _internal(shape) -> int:
    """The internal vertices of a rooted shape; a leaf has none."""
    return 0 if shape == () else 1 + sum(map(_internal, shape))


@pytest.mark.parametrize("d,top", [(2, 4), (3, 3)])
def test_the_shape_order_puts_subtrees_first_and_each_stratum_is_the_census(d, top):
    shapes = trees._shapes_upto(d, (d - 1) * top + 1)
    position = {s: i for i, s in enumerate(shapes)}
    assert len(position) == len(shapes) and shapes[0] == ()
    # the plan route zips this order with its output rows, which the
    # contraction walk stores as it reaches each shape
    for i, s in enumerate(shapes):
        assert all(position[c] < i for c in s), s
    strata = [_internal(s) for s in shapes]
    assert strata == sorted(strata) and strata[-1] == top
    for V in range(top + 1):
        census = [s for _, s in trees.labeled_shape_census(V, d)]
        stratum = [s for s in shapes if _internal(s) == V]
        assert len(census) == len(set(census)) == len(stratum)
        assert set(census) == set(stratum), V


def test_the_cache_counts_every_plan_of_a_tree_entry():
    PLANS.clear()
    for pmap, D in TREE_MAPS:
        for method in ("labeled", "labeled", "grouped"):
            tree_sum_inverse(_fresh(pmap), D, method=method)
            assert PLANS.nbytes == sum(e.nbytes for e in PLANS.plans.values())
    assert len(PLANS.plans) == len({(p.n, p.d, D, tuple(p.tensor._scaled[1])) for p, D in TREE_MAPS})
    for (_, n, d, D, _), entry in PLANS.plans.items():
        # the entry is the contraction plan alone, one output row per shape
        assert type(entry) is plan.Plan
        assert len(entry.outputs) == len(trees._shapes_upto(d, D))
        assert all(len(row) == n for row in entry.outputs)
        assert entry.nbytes == entry._held()
    PLANS.clear()


def _snapshot(entry) -> tuple:
    """A tree entry's nbytes, the bytes it holds now, and its triples and output rows as lists."""
    rows = [[(keys, slots.tolist()) for keys, slots in row] for row in entry.outputs]
    triples = (entry.size, entry.out.tolist(), entry.a.tolist(), entry.b.tolist())
    return entry.nbytes, entry._held(), triples, rows


def test_a_tree_entry_never_changes_after_it_is_stored(monkeypatch):
    stored = []
    build = trees._contraction_plan

    def recorded(*args):
        entry = build(*args)
        stored.append((entry, _snapshot(entry)))
        return entry

    def refuse(*args):
        raise AssertionError("a tree entry grew after it was stored")

    monkeypatch.setattr(trees, "_contraction_plan", recorded)
    monkeypatch.setattr(PLANS, "grew", refuse)
    PLANS.clear()
    # three sightings: on dicts, compiled and warm, each with both methods
    for pmap, D in TREE_MAPS:
        for _ in range(3):
            fresh = _fresh(pmap)
            for method in ("labeled", "grouped"):
                tree_sum_inverse(fresh, D, method=method)
    assert len(stored) == len(PLANS.plans)
    assert PLANS.nbytes == sum(e.nbytes for e in PLANS.plans.values())
    for entry, snapshot in stored:
        assert snapshot[0] == snapshot[1]
        assert _snapshot(entry) == snapshot
    PLANS.clear()


def _monomials(n: int, k: int) -> list[tuple[int, ...]]:
    """The exponent vectors of degree k in n variables."""
    if n == 1:
        return [(k,)]
    return [(e, *rest) for e in range(k + 1) for rest in _monomials(n - 1, k - e)]


# -- the cache -------------------------------------------------------------


def test_a_structure_compiles_once_on_its_second_sighting(monkeypatch):
    compiled = []
    record = inversion._fixed_point_plan

    def counted(*args):
        compiled.append(args[:3])
        return record(*args)

    monkeypatch.setattr(inversion, "_fixed_point_plan", counted)
    dict_products = [0]
    monkeypatch.setattr(inversion, "_addmul", _counted_addmul(dict_products))
    PLANS.clear()
    maps = [random_map(3, 2, seed=s) for s in (1, 2, 3)]
    fixed_point_inverse(maps[0], 6)
    assert compiled == [] and dict_products[0] > 0
    dict_products[0] = 0
    fixed_point_inverse(maps[1], 6)
    assert compiled == [(3, 2, 6)] and dict_products[0] == 0
    fixed_point_inverse(maps[2], 6)
    assert compiled == [(3, 2, 6)] and dict_products[0] == 0
    PLANS.clear()


def _counted_addmul(count):
    def counted(acc, a, b):
        count[0] += 1
        poly._addmul(acc, a, b)

    return counted


def test_a_structure_over_the_limit_is_recorded_once_and_stays_on_dicts(monkeypatch):
    compiled = []
    record = inversion._fixed_point_plan

    def counted(*args):
        compiled.append(args[-1])
        return record(*args)

    monkeypatch.setattr(inversion, "_fixed_point_plan", counted)
    monkeypatch.setattr(PLANS, "limit", 1000)
    PLANS.clear()
    pmap = random_map(4, 3, seed=1)
    want = fixed_point_inverse(pmap, 5)
    for _ in range(4):
        assert fixed_point_inverse(pmap, 5) == want
    assert compiled == [1000]
    assert not [k for k in PLANS.plans if k[0] == "G"]
    assert list(PLANS.marks.values()) == [True]
    PLANS.clear()


def test_stored_plans_stay_within_the_budget():
    # the 27 plans below hold about 424 KB in all
    cache = PlanCache(limit=5_000, budget=300_000)
    structures = [(n, d, D) for n, d in ((1, 2), (2, 2), (2, 3), (3, 2)) for D in range(4, 12)]
    for n, d, D in structures:
        keys = [sorted(h.comps[d]) for h in inversion._h_series(random_map(n, d, seed=3))]
        for _ in range(2):
            cache.get((n, d, D), lambda limit: inversion._fixed_point_plan(n, d, D, keys, limit))
        assert cache.nbytes == sum(p.nbytes for p in cache.plans.values()) <= cache.budget
    too_large = [s for s in structures if cache.marks.get(hash(s))]
    assert too_large and 0 < len(cache.plans) < len(structures) - len(too_large)
    # the plans kept are the most recently used
    fits = [s for s in structures if s not in too_large]
    assert list(cache.plans) == fits[-len(cache.plans) :]


def test_first_sightings_and_refusals_are_remembered_within_bounds():
    cache = PlanCache(limit=10, budget=100)
    keys = [sorted(h.comps[2]) for h in inversion._h_series(random_map(2, 2, seed=1))]
    for key in range(3 * plan.MARKS):
        assert cache.get(key, lambda limit: inversion._fixed_point_plan(2, 2, 9, keys, limit)) is None
        # the second sighting compiles past the limit
        assert cache.get(key, lambda limit: inversion._fixed_point_plan(2, 2, 9, keys, limit)) is None
    assert len(cache.marks) == plan.MARKS and all(cache.marks.values())
    assert not cache.plans and cache.nbytes == 0


def test_plans_are_stored_as_compact_arrays():
    PLANS.clear()
    pmap = random_map(4, 3, seed=1)
    for _ in range(2):
        G = fixed_point_inverse(pmap, 5)
        verify_inverse(pmap, G, 5)
    assert {k[0] for k in PLANS.plans} == {"G", "compose"}
    for p in PLANS.plans.values():
        arrays = [p.out, p.a, p.b] + [slots for row in p.outputs for _, slots in row]
        assert all(type(x) is array and x.itemsize == 4 for x in arrays)
        # nbytes counts the arrays, the key->slot dicts and the output key tuples
        containers = arrays + p.inputs + [keys for row in p.outputs for keys, _ in row]
        assert p.nbytes >= sum(map(sys.getsizeof, containers)) > sum(len(x) for x in arrays) * 4
    assert PLANS.nbytes == sum(p.nbytes for p in PLANS.plans.values()) < 200_000
    PLANS.clear()


# -- keyed inputs ------------------------------------------------------------


def _nonzero(sums):
    """Composed sums without their zero numerators, which the plan route may add."""
    return [(L, [{k: v for k, v in c.items() if v} for c in comps]) for L, comps in sums]


def test_an_outer_linear_term_and_minus_g_share_one_input(counts):
    # each f_i holds the linear term y_i, so f_i(G) - G_i lists (i,) twice before the fold
    pmap = random_map(2, 2, seed=7)
    D = 5
    G = fixed_point_inverse(pmap, D)
    fs = [
        Series(Poly(2, {(1, 0): Fraction(2, 3), (0, 1): 1, (2, 0): 5, (1, 1): Fraction(-1, 2)}), 2),
        Series(Poly(2, {(0, 1): Fraction(-7, 5), (1, 1): 3, (0, 2): Fraction(1, 4)}), 2),
    ]
    sums = _routes(counts, lambda: _nonzero(poly._composed_sums(fs, G, subtract=True)))
    for i, (L, comps) in enumerate(sums):
        assert Series._reduced(2, D, L, comps) == poly._compose(fs[i], G) - G[i]


def test_an_input_may_not_repeat_a_key():
    rec = plan.Recorder(10)
    assert rec.input([3, 5]) == {3: 1, 5: 2}
    with pytest.raises(ValueError):
        rec.input([(0,), (1,), (0,)])


def test_a_warm_plan_matches_its_inputs_by_key_not_by_position(counts):
    pmap, D = random_map(4, 3, seed=2), 5
    G = fixed_point_inverse(pmap, D)
    cubes = {m: Fraction(k + 1, 3) for k, m in enumerate(_monomials(4, 3))}
    f = Series(Poly(4, {**cubes, (0, 0, 0, 1): 5}), 3)

    def reversed_parts(s: Series) -> Series:
        return Series._reduced(s.n, s.cap, s.den, [dict(reversed(c.items())) for c in s.comps])

    G_rev, f_rev = [reversed_parts(g) for g in G], reversed_parts(f)
    assert list(G_rev[0].comps[3]) == list(G[0].comps[3])[::-1] != list(G[0].comps[3])
    assert list(f_rev.comps[3]) == list(f.comps[3])[::-1]
    PLANS.clear()
    by_dicts = poly._compose(f, G)
    poly._compose(f, G)
    counts.update(run=0, compiled=0)
    assert _fields(poly._compose(f_rev, G_rev)) == _fields(by_dicts)
    assert counts == {"run": 1, "compiled": 0}
