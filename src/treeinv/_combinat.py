"""Small combinatorial helpers used by the tensor and diagram code."""

from __future__ import annotations

from collections import Counter
from math import factorial
from typing import Iterable, Iterator, Sequence


def multiset_orbit_size(multiset: Sequence[int]) -> int:
    """Number of distinct orderings of a multiset: k! / prod(mult_i!).

    Walks the runs of the sorted multiset and divides by r at the r-th
    element of each run; every partial quotient is an integer, since a
    product of factorials whose arguments sum to at most k divides k!.
    """
    items = sorted(multiset)
    size = factorial(len(items))
    run = 1
    for prev, cur in zip(items, items[1:]):
        run = run + 1 if cur == prev else 1
        size //= run
    return size


def multiplicity_factor(multiset: Sequence[int]) -> int:
    """prod(mult_i!) over the distinct values of the multiset."""
    out = 1
    for mult in Counter(multiset).values():
        out *= factorial(mult)
    return out


def distinct_permutations(items: Iterable[int]) -> Iterator[tuple[int, ...]]:
    """All distinct orderings of a multiset, in lexicographic order.

    Standard next-permutation walk; each ordering is produced exactly once
    even when values repeat.
    """
    a = sorted(items)
    k = len(a)
    if k == 0:
        yield ()
        return
    while True:
        yield tuple(a)
        # Find rightmost ascent.
        i = k - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = k - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1 :] = reversed(a[i + 1 :])
