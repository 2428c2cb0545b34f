"""Valence-constrained labeled tree enumeration, amplitudes, and the tree-expansion inverse."""

from __future__ import annotations

import heapq
import itertools
import os
from fractions import Fraction
from math import factorial

import pytest

from treeinv._combinat import distinct_permutations
from treeinv.catalog import catalog, get_fixture, random_map, univariate_map
from treeinv.errors import BudgetExceededError, DimensionMismatchError
from treeinv.inversion import fixed_point_inverse
from treeinv.plan import PLANS, Plan
from treeinv.poly import Poly, Series, _addmul
from treeinv.tensormap import PolyMap, SymTensor
from treeinv.trees import (
    ValencedTree,
    VertexSet,
    amplitude,
    amplitude_vector,
    decode_parents,
    enumerate_trees,
    labeled_shape_census,
    shape_automorphisms,
    tree_count,
    tree_sum_inverse,
)
from treeinv import trees
from treeinv.trees import _shapes_cached

RUN_SLOW = os.environ.get("TREEINV_SLOW") == "1"


def _prufer_decode_oracle(seq: tuple[int, ...], T: int) -> list[tuple[int, int]]:
    """Textbook Prüfer decode with a heap; independent of the package kernels."""
    degree = [1] * T
    for v in seq:
        degree[v] += 1
    heap = [v for v in range(T) if degree[v] == 1]
    heapq.heapify(heap)
    edges = []
    for v in seq:
        leaf = heapq.heappop(heap)
        edges.append(tuple(sorted((leaf, v))))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(heap, v)
    a = heapq.heappop(heap)
    b = heapq.heappop(heap)
    edges.append(tuple(sorted((a, b))))
    return sorted(edges)


def _parents_to_edges(parents: list[int]) -> list[tuple[int, int]]:
    return sorted(tuple(sorted((v, p))) for v, p in enumerate(parents) if p >= 0)


def _brute_amplitude(tree: ValencedTree, pmap: PolyMap, i: int) -> Poly:
    """Sum over all index assignments to edges, root edge pinned at i."""
    n = pmap.n
    vs = tree.vertices
    parents = tree.rooted()
    edges = [(v, parents[v]) for v in range(vs.total) if parents[v] >= 0]
    root_child = next(v for v, p in edges if p == 0)
    free = [v for v, _ in edges if v != root_child]
    total = Poly.zero(n)
    for combo in itertools.product(range(n), repeat=len(free)):
        idx = dict(zip(free, combo))
        idx[root_child] = i
        term = Poly.const(n, 1)
        ok = True
        for v in range(vs.V + 1, vs.total):
            term = term * Poly.variable(n, idx[v])
        for b in range(1, vs.V + 1):
            kids = [v for v, p in edges if p == b]
            w = pmap.tensor.get(idx[b], tuple(sorted(idx[k] for k in kids)))
            if w == 0:
                ok = False
                break
            term = term.scale(w)
        if ok:
            total = total + term
    return total


def test_tree_count_pinned():
    assert tree_count(0, 2) == 1
    assert tree_count(0, 3) == 1
    assert tree_count(1, 2) == 1
    assert tree_count(2, 2) == 6
    assert tree_count(3, 2) == 90
    assert tree_count(4, 2) == 2520
    assert tree_count(5, 2) == 113400
    assert tree_count(6, 2) == 7484400
    assert tree_count(1, 3) == 1
    assert tree_count(2, 3) == 20
    assert tree_count(4, 3) == 369600


@pytest.mark.parametrize("d", [0, 1])
def test_tree_count_refuses_arity_below_two(d):
    with pytest.raises(ValueError, match="arity d"):
        tree_count(3, d)


def test_vertex_set_relation_enforced():
    vs = VertexSet.for_internal(3, 2)
    assert (vs.V, vs.N, vs.total) == (3, 4, 8)
    with pytest.raises(ValueError):
        VertexSet(3, 5, 2)  # (d-1)V = 3 but N-1 = 4
    with pytest.raises(ValueError):
        VertexSet(-1, 1, 2)


def test_tree_validation_rejects_bad_valences():
    vs = VertexSet.for_internal(1, 2)  # root 0, internal 1, leaves 2..3
    good = ValencedTree(vs, [(0, 1), (1, 2), (1, 3)])
    assert good.rooted() == [-1, 0, 1, 1]
    with pytest.raises(ValueError, match="edges"):
        ValencedTree(vs, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match="root valence"):
        ValencedTree(vs, [(0, 1), (0, 2), (1, 3)])
    with pytest.raises(ValueError, match="internal vertex"):
        ValencedTree(vs, [(0, 2), (2, 1), (1, 3)])  # counts but wrong placement
    with pytest.raises(ValueError, match="outside"):
        ValencedTree(vs, [(0, 1), (1, 2), (1, 9)])


def test_tree_validation_rejects_disconnected():
    # valence profile correct, but two components (a 4-cycle among 1,2,3 leaves)
    vs = VertexSet.for_internal(3, 2)
    edges = [(0, 4), (1, 2), (2, 3), (1, 3), (1, 5), (2, 6), (3, 7)]
    with pytest.raises(ValueError, match="connected"):
        ValencedTree(vs, edges)


def test_enumerate_v0_bare_edge():
    trees = list(enumerate_trees(0, 2))
    assert len(trees) == 1
    assert trees[0].edges == frozenset({(0, 1)})


def test_enumerate_v1_d2_unique_tree():
    (tree,) = list(enumerate_trees(1, 2))
    assert tree.edges == frozenset({(0, 1), (1, 2), (1, 3)})


@pytest.mark.parametrize("V,d", [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)])
def test_enumerate_matches_count_and_validates(V, d):
    seen = set()
    for tree in enumerate_trees(V, d):
        tree.validate()
        assert tree not in seen
        seen.add(tree)
    assert len(seen) == tree_count(V, d)


@pytest.mark.skipif(not RUN_SLOW, reason="full 369600-tree sweep; set TREEINV_SLOW=1")
def test_enumerate_full_4_3():
    assert sum(1 for _ in enumerate_trees(4, 3)) == 369600


def test_enumerate_budget_enforced():
    with pytest.raises(BudgetExceededError):
        list(enumerate_trees(6, 2, budget=10**6))


def test_decode_matches_heap_oracle_exhaustively():
    for V, d in [(1, 2), (2, 2), (3, 2), (1, 3), (2, 3)]:
        T = VertexSet.for_internal(V, d).total
        base = []
        for v in range(1, V + 1):
            base.extend([v] * d)
        for seq in distinct_permutations(base):
            got = _parents_to_edges(decode_parents(seq, T))
            assert got == _prufer_decode_oracle(seq, T)


def _shape_code_oracle(parents: list[int], T: int, intern: dict) -> int:
    """Canonical code of the rooted shape, by interning subtrees of a full parent array."""
    children: list[list[int]] = [[] for _ in range(T)]
    for v in range(1, T):
        children[parents[v]].append(v)
    code = [0] * T
    order = [0]
    head = 0
    while head < len(order):
        order.extend(children[order[head]])
        head += 1
    for v in reversed(order):
        kids = children[v]
        if kids and v != 0:
            key = tuple(sorted(code[c] for c in kids))
            code[v] = intern.setdefault(key, len(intern) + 1)
    return code[children[0][0]]


def _census_oracle(V: int, d: int) -> list[tuple[int, tuple[int, ...]]]:
    """The census walk by full decode per tree: decode_parents, then a shape code."""
    T = d * V + 2
    intern: dict = {}
    counts: dict[int, int] = {}
    reps: dict[int, tuple[int, ...]] = {}
    base = [v for v in range(1, V + 1) for _ in range(d)]
    for seq in distinct_permutations(base):
        parents = decode_parents(seq, T)
        key = _shape_code_oracle(parents, T, intern)
        counts[key] = counts.get(key, 0) + 1
        reps.setdefault(key, tuple(parents))
    return [(count, reps[key]) for key, count in counts.items()]


def _nested_shape(parents) -> tuple:
    """The rooted shape below the root's child as sorted nested tuples; () is a leaf."""
    children: list[list[int]] = [[] for _ in parents]
    for v in range(1, len(parents)):
        children[parents[v]].append(v)

    def shape(v: int) -> tuple:
        return tuple(sorted(shape(c) for c in children[v]))

    return shape(children[0][0])


def _census_by_shape(census, V: int, d: int) -> dict[tuple, int]:
    vs = VertexSet.for_internal(V, d)
    out: dict[tuple, int] = {}
    for count, rep in census:
        ValencedTree.from_parents(vs, rep).validate()
        shape = _nested_shape(rep)
        assert shape not in out
        out[shape] = count
    return out


def _census_counts(V: int, d: int) -> dict[tuple, int]:
    """labeled_shape_census(V, d) as {shape: count}; each shape appears once."""
    census = labeled_shape_census(V, d)
    out = {shape: count for count, shape in census}
    assert len(out) == len(census)
    return out


def _canonical(shape) -> tuple:
    """The shape with children sorted at every level."""
    return tuple(sorted(_canonical(s) for s in shape))


def _tree_from_shape(shape, V: int, d: int) -> ValencedTree:
    """One labeled tree of the stratum with this rooted shape below the root's child."""
    vs = VertexSet.for_internal(V, d)
    internal = iter(range(1, V + 1))
    leaves = iter(range(V + 1, vs.total))
    edges = []

    def place(s, parent: int) -> None:
        v = next(internal) if s else next(leaves)
        edges.append((parent, v))
        for child in s:
            place(child, v)

    place(shape, 0)
    return ValencedTree(vs, edges)


@pytest.mark.parametrize(
    "V,d",
    [(V, 2) for V in range(6)] + [(V, 3) for V in range(5)] + [(V, 4) for V in range(4)],
)
def test_incremental_census_matches_full_decode_walk(V, d):
    got = _census_counts(V, d)
    assert got == _census_by_shape(_census_oracle(V, d), V, d)
    assert sum(got.values()) == tree_count(V, d)


def test_census_totals_and_representatives():
    # the census holds shapes, not trees: each must be the canonical shape
    # of a valid tree of its stratum
    for V, d in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        census = labeled_shape_census(V, d)
        assert sum(c for c, _ in census) == tree_count(V, d)
        for _, shape in census:
            assert _nested_shape(_tree_from_shape(shape, V, d).rooted()) == shape


@pytest.mark.parametrize("V,d", [(-1, 2), (2, 1)])
def test_census_refuses_invalid_strata(V, d):
    with pytest.raises(ValueError) as want:
        tree_count(V, d)
    with pytest.raises(ValueError) as got:
        labeled_shape_census(V, d)
    assert str(got.value) == str(want.value)


def test_census_counts_match_automorphism_formula():
    # labeled trees per shape = V! N! / |Aut(shape)|
    for V, d in [(1, 2), (2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        N = (d - 1) * V + 1
        assert _census_counts(V, d) == {
            _canonical(s): factorial(V) * factorial(N) // shape_automorphisms(s)
            for s in _shapes_cached(V, d)
        }


def test_amplitude_bare_edge_is_variable():
    pmap = get_fixture("triangular-2-3")
    vs = VertexSet.for_internal(0, 3)
    tree = ValencedTree(vs, [(0, 1)])
    assert amplitude(tree, pmap, 0) == Poly.variable(2, 0)
    assert amplitude(tree, pmap, 1) == Poly.variable(2, 1)


def test_amplitude_single_vertex_triangular():
    # one internal vertex, all leaf legs forced to index 2: raw amplitude 6 y2^3
    pmap = get_fixture("triangular-2-3")
    (tree,) = list(enumerate_trees(1, 3))
    assert amplitude(tree, pmap, 0) == Poly.monomial((0, 3), Fraction(6))
    assert amplitude(tree, pmap, 1).is_zero()


def test_amplitude_univariate_deep_tree():
    # n=1, d=3, single entry w = c: every V=4 tree contributes c^4 y^9
    c = Fraction(5, 7)
    pmap = PolyMap(SymTensor(1, 3, {(0, (0, 0, 0)): c}))
    tree = next(iter(enumerate_trees(4, 3, budget=400000)))
    assert amplitude(tree, pmap, 0) == Poly.monomial((9,), c**4)


def test_amplitude_matches_brute_force():
    maps = [
        get_fixture("triangular-2-2"),
        get_fixture("random-2-2"),
        univariate_map(2, Fraction(3, 2)),
    ]
    for pmap in maps:
        for V in (0, 1, 2):
            for tree in enumerate_trees(V, pmap.d):
                vec = amplitude_vector(tree, pmap)
                for i in range(pmap.n):
                    assert vec[i] == _brute_amplitude(tree, pmap, i), (pmap.name, V, i)


def test_amplitude_rejects_wrong_valence():
    pmap = get_fixture("triangular-2-3")  # d = 3
    tree = next(iter(enumerate_trees(1, 2)))  # valences for d = 2
    with pytest.raises(DimensionMismatchError):
        amplitude(tree, pmap, 0)


def test_tree_sum_univar2_pinned():
    got = tree_sum_inverse(univariate_map(2, 1), 4)
    want = Series(
        Poly.monomial((1,))
        + Poly.monomial((2,), Fraction(1, 2))
        + Poly.monomial((3,), Fraction(1, 2))
        + Poly.monomial((4,), Fraction(5, 8)),
        4,
    )
    assert got == [want]


def test_tree_sum_zero_tensor_is_identity():
    pmap = PolyMap(SymTensor(2, 2), name="zero")
    got = tree_sum_inverse(pmap, 5)
    assert got == [Series.variable(2, 0, 5), Series.variable(2, 1, 5)]


def test_tree_sum_triangular_2_3_pinned():
    got = tree_sum_inverse(get_fixture("triangular-2-3"), 3)
    y1 = Poly.variable(2, 0)
    y2 = Poly.variable(2, 1)
    assert got[0] == Series(y1 + Poly.monomial((0, 3)), 3)
    assert got[1] == Series(y2, 3)


def test_tree_sum_methods_agree_on_catalog():
    for pmap in catalog():
        D = 6 if pmap.d == 2 else 7
        labeled = tree_sum_inverse(pmap, D, method="labeled")
        grouped = tree_sum_inverse(pmap, D, method="grouped")
        assert labeled == grouped, pmap.name


def test_tree_sum_degrees_one_mod_d_minus_1():
    for pmap in [get_fixture("triangular-4-3"), get_fixture("univar-3")]:
        for comp in tree_sum_inverse(pmap, 7):
            for deg in range(comp.cap + 1):
                if deg % (pmap.d - 1) != 1 % (pmap.d - 1):
                    assert comp.homogeneous_component(deg).is_zero()


@pytest.mark.parametrize("method", ["labeled", "grouped"])
@pytest.mark.parametrize("D", [-1, 0])
def test_tree_sum_refuses_cap_below_one_as_fixed_point_does(D, method):
    pmap = get_fixture("random-2-2")
    with pytest.raises(ValueError) as want:
        fixed_point_inverse(pmap, D)
    with pytest.raises(ValueError) as got:
        tree_sum_inverse(pmap, D, method=method)
    assert str(got.value) == str(want.value) == f"degree cap must be >= 1, got {D}"


def test_tree_sum_equals_naive_per_tree_sum():
    # independent re-derivation: sum raw amplitudes tree by tree with 1/(V! N!)
    pmap = get_fixture("random-2-2")
    D = 4
    naive = [Poly.zero(2), Poly.zero(2)]
    V = 0
    while True:
        N = (pmap.d - 1) * V + 1
        if N > D:
            break
        weight = Fraction(1, factorial(V) * factorial(N))
        for tree in enumerate_trees(V, pmap.d):
            vec = amplitude_vector(tree, pmap)
            for i in range(2):
                naive[i] = naive[i] + vec[i].scale(weight)
        V += 1
    got = tree_sum_inverse(pmap, D)
    assert got == [Series(p, D) for p in naive]


def _count_contractions(monkeypatch) -> list[int]:
    """Contractions of numerators; a plan's recording of the same walk is not counted."""
    calls = [0]
    contract = trees._contract_children

    def counted(child_vecs, rule, addmul):
        calls[0] += addmul is _addmul
        return contract(child_vecs, rule, addmul)

    monkeypatch.setattr(trees, "_contract_children", counted)
    return calls


def _distinct_subtrees(d: int, D: int) -> int:
    """Rooted shapes with 1 <= V internal vertices and (d-1)V + 1 <= D, over every stratum."""
    return sum(len(_shapes_cached(V, d)) for V in range(1, (D - 1) // (d - 1) + 1))


@pytest.mark.parametrize("n,d,D,distinct", [(2, 2, 6, 13), (3, 2, 5, 7)])
def test_tree_sum_contracts_each_distinct_subtree_once(monkeypatch, n, d, D, distinct):
    assert distinct == _distinct_subtrees(d, D)
    calls = _count_contractions(monkeypatch)

    def contractions(pmap, cap, methods):
        # the dict route: a structure's first sighting runs no plan
        PLANS.clear()
        counts = []
        for method in methods:
            calls[0] = 0
            tree_sum_inverse(pmap, cap, method=method)
            counts.append(calls[0])
        return counts

    # on one map and cap the first call contracts every distinct subtree,
    # and later calls of either method contract none
    pmap = random_map(n, d, seed=5)
    methods = ("labeled", "grouped", "labeled", "grouped", "grouped")
    assert contractions(pmap, D, methods) == [distinct, 0, 0, 0, 0]
    # a fresh map contracts them again, grouped first this time
    assert contractions(random_map(n, d, seed=5), D, ("grouped", "labeled")) == [distinct, 0]
    # so does another cap on the same map
    assert contractions(pmap, D - 1, methods[:2]) == [_distinct_subtrees(d, D - 1), 0]


@pytest.mark.parametrize("n,d,D", [(2, 2, 6), (3, 2, 5)])
def test_tree_sum_runs_the_contraction_plan_once_per_map_and_cap(monkeypatch, n, d, D):
    calls = _count_contractions(monkeypatch)
    runs = []
    slots = Plan.slots

    def counted(plan, inputs):
        runs.append(plan)
        return slots(plan, inputs)

    monkeypatch.setattr(Plan, "slots", counted)
    pmap = random_map(n, d, seed=5)

    def contraction_runs(cap, methods):
        entry = PLANS.plans[("trees", n, d, cap, tuple(pmap.tensor._scaled[1]))]
        counts = []
        for method in methods:
            runs.clear()
            tree_sum_inverse(pmap, cap, method=method)
            counts.append(runs.count(entry.contraction))
            # each call runs no other plan, and its sums read the contraction's slots
            assert len(runs) == counts[-1]
            amps, addmul = pmap._memo[("amplitudes", cap)]
            assert amps is entry.amps and addmul.func is trees._addmul_slots
        return counts

    PLANS.clear()
    for cap in (D, D - 1):
        # the second sighting of a structure compiles its plans
        for _ in range(2):
            fresh = PolyMap(pmap.tensor)
            tree_sum_inverse(fresh, cap)
            tree_sum_inverse(fresh, cap, method="grouped")
    calls[0] = 0
    methods = ("labeled", "grouped", "labeled", "grouped", "grouped")
    assert contraction_runs(D, methods) == [1, 0, 0, 0, 0]
    assert contraction_runs(D - 1, ("grouped", "labeled")) == [1, 0]
    pmap = random_map(n, d, seed=6)
    assert contraction_runs(D, ("grouped", "labeled")) == [1, 0]
    assert calls[0] == 0
    PLANS.clear()


def _sorted_shape(shape):
    return tuple(sorted(_sorted_shape(s) for s in shape))


@pytest.mark.parametrize("d,top", [(2, 10), (3, 7)])
def test_generated_shapes_have_children_in_tuple_order(d, top):
    # the order _nested_shape gives census shapes, so a shape has one memo key in both sums
    for V in range(top + 1):
        for shape in _shapes_cached(V, d):
            assert shape == _sorted_shape(shape)


def test_tree_sum_budget_enforced():
    with pytest.raises(BudgetExceededError):
        tree_sum_inverse(univariate_map(2, 1), 7, budget=10**6)
    with pytest.raises(BudgetExceededError):
        tree_sum_inverse(univariate_map(2, 1), 7, budget=10**6, method="grouped")


@pytest.mark.parametrize("method", ["labeled", "grouped"])
def test_tree_sum_budget_refused_before_any_contraction(monkeypatch, method):
    # triangular-4-3 at D = 30 is over budget only at V = 5; nothing below it may run first
    def refuse(child_vecs, rule, addmul):
        raise AssertionError("contracted a stratum of an over-budget call")

    monkeypatch.setattr(trees, "_contract_children", refuse)
    with pytest.raises(BudgetExceededError, match="V=5"):
        tree_sum_inverse(get_fixture("triangular-4-3"), 30, method=method)


def test_tree_sum_method_validated():
    with pytest.raises(ValueError):
        tree_sum_inverse(univariate_map(2, 1), 3, method="nope")
