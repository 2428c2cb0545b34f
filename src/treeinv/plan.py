"""Flat multiply-accumulate plans for the graded kernels, compiled once per structure.

The fixed point G = y + H(G), the series composition f(g_1, ..., g_n)
and the tree sums' contraction of every subtree up to a cap do the
same key arithmetic for every map of one structure: which packed keys
meet, and which numerator each pair product adds into, depend only on
the key sets, never on the numerators.  A plan records that work once,
as slot triples (out, a, b), by running the kernel's own recursion
over dicts that map each packed key to a slot instead of a numerator
(``Recorder.addmul`` mirrors ``poly._addmul``); slot 0 holds 1, and
``Recorder.input`` gives each key of an input a slot.  A later call
with the same structure hands ``Plan.run`` the (key, numerator) items
of each input, which it puts at their slots in a flat list of ints
before one loop, ``v[out] += v[a] * v[b]``, over three int32 arrays;
the outputs are gathered back into dicts of packed keys.  The
arithmetic is the dict route's, exact, so the results are equal.

``PLANS`` holds the plans of the process, keyed by structure (the
callers say what that is), under one policy with no setting, which
``PlanCache`` also applies to the float evaluators of treeinv.numeric:

- a structure is compiled on its second sighting; its first sighting
  takes the dict route, so a one-shot call pays nothing for a plan;
- a compile that passes ``LIMIT`` triples is abandoned, and its
  structure is remembered as too large and never compiled again;
- the plans held stay within ``BUDGET`` bytes in all (``nbytes``), the
  least recently used going first.
"""

from __future__ import annotations

import sys
from array import array
from collections import OrderedDict

# Triples past which a compile is abandoned: about 0.8 MB of arrays for one plan.
LIMIT = 1 << 16
# Bytes the cache holds in all, about 4 MB: a few plans at LIMIT, with their dicts.
BUDGET = 1 << 22
# Structures remembered as seen once or as too large; the oldest go first.
MARKS = 1 << 11


class TooLarge(Exception):
    """A compile passed LIMIT triples."""


class Recorder:
    """Slots for a recursion run over dicts of packed keys mapped to slots; slot 0 holds 1."""

    __slots__ = ("size", "inputs", "out", "a", "b", "limit")

    def __init__(self, limit: int):
        self.size = 1
        self.inputs: list[dict] = []
        self.out, self.a, self.b = array("i"), array("i"), array("i")
        self.limit = limit

    def input(self, keys) -> dict:
        """A fresh slot for each key of the next input, in order; a repeated key raises ValueError."""
        slots = dict(zip(keys, range(self.size, self.size + len(keys))))
        if len(slots) < len(keys):
            raise ValueError("an input repeats a key")
        self.size += len(keys)
        self.inputs.append(slots)
        return slots

    def addmul(self, acc: dict[int, int], a: dict[int, int], b: dict[int, int]) -> None:
        """Record acc += a * b, as poly._addmul computes it, giving each new key of acc a slot.

        Slot 0 holds 1, so a product with it records nothing: the key
        borrows the other factor's slot, stored as its complement.  A
        later product into a borrowed key first copies the value to a
        slot of its own.
        """
        out, left, right, get = self.out, self.a, self.b, acc.get
        for ka, sa in a.items():
            sa = sa if sa >= 0 else ~sa
            for kb, sb in b.items():
                sb = sb if sb >= 0 else ~sb
                k = ka + kb
                s = get(k)
                if s is None:
                    if not (sa and sb):
                        acc[k] = ~(sa + sb)
                        continue
                    s = acc[k] = self.size
                    self.size += 1
                elif s < 0:
                    out.append(self.size)
                    left.append(~s)
                    right.append(0)
                    s = acc[k] = self.size
                    self.size += 1
                out.append(s)
                left.append(sa)
                right.append(sb)
            # checked per row of the product, so a large pair of parts overshoots by one row at most
            if len(out) > self.limit:
                raise TooLarge


def _ints_nbytes(container) -> int:
    """sys.getsizeof of a dict or tuple and of each item it holds, a dict's keys and values alike.

    The items are ints or tuples of them (a tuple counts as its own
    header).  One shared with another container counts in each, and so
    does a small int (below 257), which the interpreter shares.
    """
    held = sys.getsizeof(container) + sum(map(sys.getsizeof, container))
    if isinstance(container, dict):
        held += sum(map(sys.getsizeof, container.values()))
    return held


class Plan:
    """Recorded triples and where the outputs lie, for one structure.

    ``inputs[i]`` maps each key of input i to its slot, and
    ``outputs[r][k]`` is (keys, slots) for output dict k of row r.
    """

    __slots__ = ("size", "inputs", "out", "a", "b", "outputs", "nbytes")

    def __init__(self, rec: Recorder, outputs):
        self.size, self.inputs = rec.size, rec.inputs
        self.out, self.a, self.b = rec.out, rec.a, rec.b
        self.outputs = [
            [(tuple(d), array("i", [s if s >= 0 else ~s for s in d.values()])) for d in row] for row in outputs
        ]
        self.nbytes = self._held()

    @property
    def triples(self) -> int:
        return len(self.out)

    def _held(self) -> int:
        """Bytes the plan holds: its arrays, its key->slot dicts and its output key tuples.

        The ints the dicts and tuples hold count as well (see _ints_nbytes).
        Left out: the lists that hold the containers.
        """
        arrays = [self.out, self.a, self.b] + [s for row in self.outputs for _, s in row]
        keys = [keys for row in self.outputs for keys, _ in row]
        return sum(map(sys.getsizeof, arrays)) + sum(map(_ints_nbytes, self.inputs + keys))

    def run(self, inputs) -> list[list[dict[int, int]]]:
        """The outputs after the triples, as dicts of packed keys mapped to numerators.

        inputs holds one iterable of (key, numerator) per input.  A key
        that an input lacks reads as 0; one the plan lacks raises
        KeyError.
        """
        v = [0] * self.size
        v[0] = 1
        for placed, items in zip(self.inputs, inputs, strict=True):
            for k, x in items:
                v[placed[k]] = x
        for o, a, b in zip(self.out, self.a, self.b):
            v[o] += v[a] * v[b]
        at = v.__getitem__
        return [[dict(zip(keys, map(at, slots))) for keys, slots in row] for row in self.outputs]


class PlanCache:
    """Entries by structure key, compiled on second sighting, within a compile limit and a byte budget.

    An entry is a Plan or anything else with an ``nbytes``: what it
    holds, in bytes.  ``nbytes`` is their sum, kept within ``budget``
    by dropping the least recently used; an entry that grows after it
    is stored says so through ``grew``.  ``limit`` is handed to each
    compile, in whatever unit the entry counts its size (triples for a
    Plan).  ``marks`` remembers, by the hash of its key, each structure
    seen once (False) or found too large (True); a hash collision costs
    a compile or a dict route, never a wrong entry.
    """

    def __init__(self, limit: int = LIMIT, budget: int = BUDGET):
        self.limit, self.budget = limit, budget
        self.plans: OrderedDict = OrderedDict()
        self.marks: OrderedDict = OrderedDict()
        self.nbytes = 0

    def clear(self) -> None:
        self.plans.clear()
        self.marks.clear()
        self.nbytes = 0

    def get(self, key, compile):
        """The entry for key, or None where the caller takes the dict route.

        compile(limit) builds the entry, raising TooLarge past limit.
        """
        plan = self.plans.get(key)
        if plan is not None:
            self.plans.move_to_end(key)
            return plan
        h = hash(key)
        too_large = self.marks.get(h)
        if too_large is None:
            self._mark(h, False)
        elif not too_large:
            del self.marks[h]
            try:
                plan = compile(self.limit)
            except TooLarge:
                self._mark(h, True)
                return None
            self.plans[key] = plan
            self.nbytes += plan.nbytes
            self._evict()
        return plan

    def grew(self, key, entry, nbytes: int) -> None:
        """Count nbytes more held by entry, stored under key; nothing if it is no longer stored."""
        if self.plans.get(key) is entry:
            self.nbytes += nbytes
            self._evict()

    def _evict(self) -> None:
        while self.nbytes > self.budget:
            self.nbytes -= self.plans.popitem(last=False)[1].nbytes

    def _mark(self, h: int, too_large: bool) -> None:
        self.marks[h] = too_large
        if len(self.marks) > MARKS:
            self.marks.popitem(last=False)


PLANS = PlanCache()
