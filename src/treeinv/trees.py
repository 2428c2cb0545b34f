"""Valence-constrained labeled trees and the tree-expansion inverse.

The inverse of F(x) = x - H(x) expands as a sum over labeled trees: for
each internal count V there are (d*V)!/(d!)^V trees on one root (valence
1), V internal vertices (valence d+1), and N = (d-1)V + 1 leaves
(valence 1).  Each tree contributes its contraction amplitude divided by
V! N!; the degree-N part of G comes entirely from the V-th stratum.

Two sums are provided and must agree.  They differ only in where their
(weight, shape) pairs come from:

* "labeled" walks every tree of a stratum (labeled_shape_census),
  counting equal-amplitude trees by rooted shape on the fly.  The walk
  is an incremental Prüfer decode rooted at the largest label, depth-
  first over sequence positions, so each pruned vertex's shape code is
  interned from its children's codes once per prefix, and each code's
  nested shape is built once, when it is first interned.  The (count,
  shape) pairs are cached per stratum for the life of the process, and
  each count is the shape's int weight over V! N!.
* "grouped" never touches labeled trees: it generates the rooted shapes
  directly and weights each amplitude by V! N! / |Aut|, with |Aut| the
  shape's automorphism count, which is exactly the labeled
  multiplicity.  Its weighted shapes are cached per stratum, separately.

Both contract nested shapes through one walk, on packed int numerators
(poly.py): with L the lcm of the tensor's denominators, a subtree with
V internal vertices has amplitudes over L^V, so a stratum's weighted
sum is over V! N! L^V, fixed by the stratum, and no sum takes an lcm.
Each distinct subtree is contracted once per map and cap, through a
memo keyed by the nested shape (children in tuple order in both
methods) that is kept in the map's memo: it serves every stratum, both
methods and every later call at that cap.  It gains entries but never
changes one.  Sharing amplitudes does not weaken labeled == grouped,
which checks the (weight, shape) pairs: the labeled sum reads its
shapes only from the labeled walk, the grouped sum only from the
generated shapes and their automorphism counts.  amplitude and
amplitude_vector contract the nested shape of the given tree afresh,
outside the memo, and unpack the result to Poly once.

Vertex and tensor indices are 0-based throughout this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import factorial
from typing import Iterator

from treeinv._combinat import distinct_permutations
from treeinv.errors import BudgetExceededError, DimensionMismatchError
from treeinv.poly import Poly, Series, _addmul, _dot, _from_nums, _variables
from treeinv.tensormap import PolyMap

DEFAULT_BUDGET = 10**6

Shape = tuple  # nested tuples; () is a leaf, an internal node has d entries

# Amplitudes for every root index: one dict per index of packed keys to int
# numerators over L^V (see poly.py), in a base above the tree's leaf count.
Vector = list[dict[int, int]]


@dataclass(frozen=True, slots=True)
class VertexSet:
    """Label layout of one stratum: root 0, internal 1..V, leaves V+1..V+N."""

    V: int
    N: int
    d: int

    def __post_init__(self):
        V, N, d = self.V, self.N, self.d
        if V < 0 or d < 2:
            raise ValueError(f"need V >= 0 and d >= 2, got V={V}, d={d}")
        if (d - 1) * V != N - 1:
            raise ValueError(f"leaf count {N} incompatible with V={V}, d={d}")

    @classmethod
    def for_internal(cls, V: int, d: int) -> "VertexSet":
        return cls(V, (d - 1) * V + 1, d)

    @property
    def total(self) -> int:
        return self.V + self.N + 1


class ValencedTree:
    """Labeled tree on a VertexSet; edges stored unordered, rooting derived."""

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: VertexSet, edges):
        self.vertices = vertices
        self.edges = frozenset(tuple(sorted(e)) for e in edges)
        self.validate()

    @classmethod
    def from_parents(cls, vertices: VertexSet, parents) -> "ValencedTree":
        edges = [(v, p) for v, p in enumerate(parents) if p >= 0]
        return cls(vertices, edges)

    def validate(self) -> None:
        vs = self.vertices
        T = vs.total
        if len(self.edges) != vs.V + vs.N:
            raise ValueError(f"expected {vs.V + vs.N} edges, got {len(self.edges)}")
        valence = [0] * T
        adj: list[list[int]] = [[] for _ in range(T)]
        for a, b in self.edges:
            if not (0 <= a < T and 0 <= b < T) or a == b:
                raise ValueError(f"edge ({a}, {b}) outside vertex range")
            valence[a] += 1
            valence[b] += 1
            adj[a].append(b)
            adj[b].append(a)
        if valence[0] != 1:
            raise ValueError(f"root valence {valence[0]} != 1")
        for v in range(1, vs.V + 1):
            if valence[v] != vs.d + 1:
                raise ValueError(f"internal vertex {v} valence {valence[v]} != {vs.d + 1}")
        for v in range(vs.V + 1, T):
            if valence[v] != 1:
                raise ValueError(f"leaf {v} valence {valence[v]} != 1")
        if -1 in _orient(adj)[1:]:
            raise ValueError("tree is not connected")

    def rooted(self) -> list[int]:
        """Parent of each vertex with edges oriented toward the root; -1 at 0."""
        adj: list[list[int]] = [[] for _ in range(self.vertices.total)]
        for a, b in self.edges:
            adj[a].append(b)
            adj[b].append(a)
        return _orient(adj)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ValencedTree)
            and self.vertices == other.vertices
            and self.edges == other.edges
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"ValencedTree({self.vertices!r}, {sorted(self.edges)})"


def tree_count(V: int, d: int) -> int:
    """(V + N - 1)! / (d!)^V labeled trees in the stratum; 1 for V = 0."""
    if V < 0:
        raise ValueError(f"V must be non-negative, got {V}")
    if d < 2:
        raise ValueError(f"vertex arity d must be at least 2, got d={d}")
    N = (d - 1) * V + 1
    return factorial(V + N - 1) // factorial(d) ** V


def _check_budget(V: int, d: int, budget: int) -> None:
    total = tree_count(V, d)
    if total > budget:
        raise BudgetExceededError(
            f"stratum V={V}, d={d} holds {total} trees, over budget {budget}"
        )


def _stratum_sequence(V: int, d: int) -> list[int]:
    """Sorted multiset {1^d, ..., V^d} whose orderings encode the stratum."""
    return [v for v in range(1, V + 1) for _ in range(d)]


def _orient(adj: list[list[int]]) -> list[int]:
    """Parent of each vertex reached breadth-first from vertex 0; -1 at 0 and off the tree."""
    parents = [-1] * len(adj)
    seen = [False] * len(adj)
    seen[0] = True
    order = [0]
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v in adj[u]:
            if not seen[v]:
                seen[v] = True
                parents[v] = u
                order.append(v)
    return parents


def decode_parents(seq, T: int) -> list[int]:
    """Rooted parent array of the tree encoded by seq on vertices 0..T-1.

    seq must have length T - 2; entry parents[0] is -1.  The decode pairs
    the smallest available valence-1 vertex with each sequence element,
    then joins the last such vertex to T - 1, and a breadth-first pass
    from vertex 0 orients every edge toward the root.
    """
    degree = [1] * T
    for v in seq:
        degree[v] += 1

    adj: list[list[int]] = [[] for _ in range(T)]
    ptr = 0
    leaf = -1
    for v in seq:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        adj[leaf].append(v)
        adj[v].append(leaf)
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            leaf = -1
    if leaf < 0:
        while degree[ptr] != 1:
            ptr += 1
        leaf = ptr
    adj[leaf].append(T - 1)
    adj[T - 1].append(leaf)

    return _orient(adj)


@lru_cache(maxsize=None)
def labeled_shape_census(V: int, d: int) -> tuple[tuple[int, Shape], ...]:
    """(multiplicity, nested shape) per rooted shape of the stratum.

    Walks all (d*V)!/(d!)^V labeled trees of the stratum and counts them
    by the canonical code of their rooted shape.  Amplitudes depend only
    on the shape, so one count per shape suffices downstream.  V = 0 is
    the bare root-leaf edge, whose shape is the leaf ().  The pairs are
    cached per stratum for the life of the process.

    The walk relabels v -> T-1-v, a bijection on the stratum: the root
    becomes T-1, the leaves 0..N-1 and the internal vertices N..T-2.  A
    linear-time Prüfer decode rooted at the largest label then never
    prunes the root, and the vertex pruned at step i has parent seq[i]
    with its subtree complete, so its code (leaves 0, an internal vertex
    the interned sorted tuple of its children's codes) is final when it
    is pruned.  A code's nested shape is built once, when the code is
    first interned, from its children's shapes sorted.  The sequences
    are walked depth-first over positions with undo, so each prefix is
    decoded once for all the trees that share it.  degree[v] - 1 is both
    the decode's remaining degree and the number of copies of v the
    suffix still holds.
    """
    tree_count(V, d)  # refuses V < 0 and d < 2 before the walk
    N = (d - 1) * V + 1
    T = d * V + 2
    last = T - 2
    internal = range(N, T - 1)
    degree = [1] * N + [d + 1] * V + [1]
    children: list[list[int]] = [[] for _ in range(T)]
    codes: dict[tuple[int, ...], int] = {}
    shapes: list[Shape] = [()]  # shapes[code]; code 0 is the leaf
    counts: dict[int, int] = {}

    def walk(i: int, ptr: int, leaf: int) -> None:
        if leaf < 0:
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
            ptr += 1
        if leaf >= N:
            key = tuple(sorted(children[leaf]))
            code = codes.get(key)
            if code is None:
                code = codes[key] = len(shapes)
                shapes.append(tuple(sorted([shapes[c] for c in key])))
        else:
            code = 0
        if i == last:
            if code in counts:
                counts[code] += 1
            else:
                counts[code] = 1
            return
        for v in internal:
            if degree[v] > 1:
                kids = children[v]
                kids.append(code)
                degree[v] -= 1
                walk(i + 1, ptr, v if degree[v] == 1 and v < ptr else -1)
                degree[v] += 1
                kids.pop()

    walk(0, 0, -1)
    return tuple((count, shapes[code]) for code, count in counts.items())


def enumerate_trees(
    V: int, d: int, budget: int = DEFAULT_BUDGET
) -> Iterator[ValencedTree]:
    """All labeled trees of the stratum, in sequence-lexicographic order.

    The encoding sequences are the distinct permutations of the multiset
    holding each internal label d times; root and leaves never appear
    because their valence is 1.
    """
    _check_budget(V, d, budget)
    vs = VertexSet.for_internal(V, d)
    T = vs.total
    for seq in distinct_permutations(_stratum_sequence(V, d)):
        yield ValencedTree.from_parents(vs, decode_parents(seq, T))


def _vertex_rule(pmap: PolyMap):
    """The tensor grouped for _contract_children: (L, [(orderings, rows)]).

    One group per lower multiset: its distinct orderings (cached per
    process), and rows of (j, w_{j,lower} * L) from the tensor's int form
    over the lcm L of its denominators (SymTensor._scaled), so every
    weight is an int.
    """
    L, scaled = pmap.tensor._scaled
    by_lower: dict[tuple[int, ...], list[tuple[int, int]]] = {}
    for (j, lower), value in scaled.items():
        by_lower.setdefault(lower, []).append((j, value))
    return L, [(_orderings(lower), rows) for lower, rows in by_lower.items()]


def _contract_children(child_vecs: list[Vector], groups) -> Vector:
    """One internal vertex: fold d child vectors through the tensor.

    out[j] = sum over ordered lower tuples (k_1..k_d) of
    w_{j,k_1..k_d} * prod_t child_vecs[t][k_t].  Entries are grouped by
    lower multiset so each symmetrized product is formed once.  With
    children over L^(V_t) and each weight an int over L, every product
    is an int over L^V, V = 1 + sum_t V_t, the subtree's internal
    count; so the sums run on int numerators alone and are not reduced.
    """
    first, middle, last = child_vecs[0], child_vecs[1:-1], child_vecs[-1]
    out: list[dict[int, int]] = [{} for _ in first]
    for perms, rows in groups:
        sym: dict[int, int] = {}
        for perm in perms:
            prod = first[perm[0]]
            for t, c in enumerate(middle, 1):
                if not prod:
                    break
                step: dict[int, int] = {}
                _addmul(step, prod, c[perm[t]])
                prod = step
            _addmul(sym, prod, last[perm[-1]])
        if sym:
            for j, w in rows:
                acc = out[j]
                get = acc.get
                for k, v in sym.items():
                    acc[k] = get(k, 0) + w * v
    return out


def amplitude_vector(tree: ValencedTree, pmap: PolyMap) -> list[Poly]:
    """Raw amplitude of the tree for each root index, no stratum weights."""
    if tree.vertices.d != pmap.d:
        raise DimensionMismatchError(
            f"tree has arity {tree.vertices.d}, map has d={pmap.d}"
        )
    n, base = pmap.n, tree.vertices.N + 1
    L, groups = _vertex_rule(pmap)
    nums = _amplitude_vector_from_shape(
        _nested_shape(tree.rooted()), groups, {(): _variables(n, base)}
    )
    return [_from_nums(n, base, L**tree.vertices.V, c) for c in nums]


def amplitude(tree: ValencedTree, pmap: PolyMap, i: int) -> Poly:
    """Raw amplitude with the root edge index fixed at i (0-based)."""
    if not 0 <= i < pmap.n:
        raise DimensionMismatchError(f"root index {i} outside [0, {pmap.n})")
    return amplitude_vector(tree, pmap)[i]


def _nested_shape(parents) -> Shape:
    """The rooted shape below the root of a parent array, children sorted.

    Filled in reverse breadth-first order: children before their parent.
    """
    children: list[list[int]] = [[] for _ in parents]
    for v in range(1, len(parents)):
        children[parents[v]].append(v)
    order = [0]
    for v in order:
        order.extend(children[v])
    shapes: list[Shape] = [()] * len(parents)
    for v in reversed(order):
        shapes[v] = tuple(sorted([shapes[c] for c in children[v]]))
    return shapes[children[0][0]]


@lru_cache(maxsize=None)
def _shapes_cached(V: int, d: int) -> tuple[Shape, ...]:
    """Rooted shapes with V internal nodes, generated directly; () is a leaf.

    Each node's children are in tuple order, so a shape equals the
    nested shape of any of its labeled trees (_nested_shape).
    """
    if V == 0:
        return ((),)
    out: list[Shape] = []

    def fill(slots: int, remaining: int, minimum: tuple[int, int], chosen: list[Shape]):
        if slots == 0:
            if remaining == 0:
                out.append(tuple(sorted(chosen)))
            return
        # children are picked non-decreasing in (internal count, index)
        # so each multiset appears exactly once, and stored in tuple order
        for v in range(minimum[0], remaining + 1):
            pool = _shapes_cached(v, d)
            start = minimum[1] if v == minimum[0] else 0
            for idx in range(start, len(pool)):
                chosen.append(pool[idx])
                fill(slots - 1, remaining - v, (v, idx), chosen)
                chosen.pop()

    fill(d, V - 1, (0, 0), [])
    return tuple(out)


@lru_cache(maxsize=None)
def _stratum_weights(V: int, d: int, method: str) -> tuple[tuple[int, Shape], ...]:
    """One method's (weight, shape) pairs for a stratum; the methods share none.

    The weights are ints over V! N!: "labeled" weighs census shapes by
    their count, "grouped" by V! N! / |Aut|, each shape's labelings.
    """
    if method == "labeled":
        return labeled_shape_census(V, d)
    labelings = factorial(V) * factorial((d - 1) * V + 1)
    return tuple((labelings // shape_automorphisms(s), s) for s in _shapes_cached(V, d))


@lru_cache(maxsize=1 << 12)
def _orderings(lower: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """The distinct orderings of a lower multiset of the tensor."""
    return tuple(distinct_permutations(lower))


@lru_cache(maxsize=None)
def shape_automorphisms(shape: Shape) -> int:
    """Order of the automorphism group of a rooted shape."""
    if shape == ():
        return 1
    aut = 1
    run = 1
    for t in range(len(shape)):
        aut *= shape_automorphisms(shape[t])
        if t > 0 and shape[t] == shape[t - 1]:
            run += 1
        else:
            run = 1
        if run > 1:
            aut *= run
    return aut


def _amplitude_vector_from_shape(shape: Shape, groups, memo: dict) -> Vector:
    """The shape's Vector, contracting only subtrees memo does not hold; memo[()] is the leaf."""
    got = memo.get(shape)
    if got is None:
        got = memo[shape] = _contract_children(
            [_amplitude_vector_from_shape(s, groups, memo) for s in shape], groups
        )
    return got


def tree_sum_inverse(
    pmap: PolyMap,
    D: int,
    budget: int = DEFAULT_BUDGET,
    method: str = "labeled",
) -> list[Series]:
    """Partial sum of the tree expansion keeping degrees <= D.

    method "labeled" enumerates every labeled tree per stratum (the
    defining sum, with 1/(V! N!) weights); method "grouped" sums rooted
    shapes with 1/|Aut| weights.  Both are exact and identical.  A
    stratum larger than budget raises before any stratum is walked; the
    check applies to both methods so the two are interchangeable.
    Amplitudes are packed in base D + 1, so stratum V's weighted sum, over
    V! N! L^V, is already the degree-N part of the Series.
    """
    if method not in ("labeled", "grouped"):
        raise ValueError(f"unknown method {method!r}")
    if D < 1:
        raise ValueError(f"degree cap must be >= 1, got {D}")
    n, d = pmap.n, pmap.d
    strata = range((D - 1) // (d - 1) + 1)
    for V in strata:
        _check_budget(V, d, budget)
    L, groups = _vertex_rule(pmap)
    # one subtree memo per map and cap, for every stratum of both methods;
    # each method keeps its own (weight, shape) source, so labeled ==
    # grouped stays an oracle
    memo = pmap._memoized(("amplitudes", D), lambda: {(): _variables(n, D + 1)})
    parts = [[(1, {})] * (D + 1) for _ in range(n)]
    for V in strata:
        N = (d - 1) * V + 1
        weighted = [
            ({0: w}, _amplitude_vector_from_shape(s, groups, memo))
            for w, s in _stratum_weights(V, d, method)
        ]
        den = factorial(V) * factorial(N) * L**V
        for i in range(n):
            parts[i][N] = den, _dot((w, comps[i]) for w, comps in weighted)
    return [Series._from_parts(n, p) for p in parts]
