"""Directed index sets: finite directed posets and the natural-number chain.

A function between index sets, such as a morphism's phi, is a plain callable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union


@dataclass(frozen=True)
class FiniteDirectedPoset:
    """Finite poset given by an explicit order table; must be directed, so
    it has at least one element (ValueError otherwise).

    leq is row-major over the element order: leq[i][j] is True iff
    elements[i] <= elements[j].
    """

    elements: tuple
    leq_table: tuple  # tuple of tuples of bool
    _pos: dict = field(init=False, repr=False, compare=False)  # label -> position
    _top: tuple = field(init=False, repr=False, compare=False)  # (greatest,) or ()

    def __post_init__(self):
        n = len(self.elements)
        if not n:
            raise ValueError("a directed poset needs at least one element")
        if len(self.leq_table) != n or any(len(r) != n for r in self.leq_table):
            raise ValueError("leq table shape must match element count")
        if len(set(self.elements)) != n:
            raise ValueError("element labels must be distinct")
        object.__setattr__(self, "_pos", {a: i for i, a in enumerate(self.elements)})
        object.__setattr__(self, "_top", tuple(g for j, g in enumerate(self.elements)
                                               if all(r[j] for r in self.leq_table))[:1])

    def leq(self, a, b) -> bool:
        pos = self._pos
        try:
            return self.leq_table[pos[a]][pos[b]]
        except KeyError:
            raise ValueError(f"({a!r}, {b!r}) are not both elements of the poset") from None

    def members(self) -> tuple:
        return self.elements

    def above(self, *lows, limit=None) -> list:
        """Members >= every low, in declared order; ``limit`` is ignored
        (it bounds only the infinite chain)."""
        out = list(self.elements)
        for a in lows:
            out = [b for b in out if self.leq(a, b)]
        return out

    def greatest(self):
        """The greatest element, found at construction; every valid poset has one."""
        if not self._top:
            raise ValueError("poset has no greatest element (not directed?)")
        return self._top[0]

    @staticmethod
    def chain(labels) -> "FiniteDirectedPoset":
        labels = tuple(labels)
        n = len(labels)
        table = tuple(tuple(i <= j for j in range(n)) for i in range(n))
        return FiniteDirectedPoset(labels, table)

    @staticmethod
    def from_pairs(labels, pairs) -> "FiniteDirectedPoset":
        """Reflexive-transitive closure of the given covering pairs."""
        labels = tuple(labels)
        n = len(labels)
        idx = {x: i for i, x in enumerate(labels)}
        rel = [[i == j for j in range(n)] for i in range(n)]
        for a, b in pairs:
            rel[idx[a]][idx[b]] = True
        for k in range(n):
            for i in range(n):
                if rel[i][k]:
                    for j in range(n):
                        if rel[k][j]:
                            rel[i][j] = True
        return FiniteDirectedPoset(labels, tuple(tuple(r) for r in rel))


@dataclass(frozen=True)
class NatIndex:
    """The chain 0 <= 1 <= 2 <= ..., realized lazily."""

    def leq(self, a: int, b: int) -> bool:
        return a <= b

    def above(self, *lows, limit: int) -> range:
        """The in-range indices >= every low: max(lows)..limit."""
        return range(max(lows, default=0), limit + 1)


IndexSet = Union[FiniteDirectedPoset, NatIndex]

NAT = NatIndex()


def is_finite_index(idx: IndexSet) -> bool:
    return isinstance(idx, FiniteDirectedPoset)


def validate_poset(p: FiniteDirectedPoset) -> list:
    """All axiom violations: reflexivity, antisymmetry, transitivity,
    directedness.  Empty list iff p is a valid directed poset."""
    out = []
    els = p.elements
    for a in els:
        if not p.leq(a, a):
            out.append(f"reflexivity fails at {a!r}")
    for a in els:
        for b in els:
            if a != b and p.leq(a, b) and p.leq(b, a):
                out.append(f"antisymmetry fails at ({a!r}, {b!r})")
    for a in els:
        for b in els:
            for c in els:
                if p.leq(a, b) and p.leq(b, c) and not p.leq(a, c):
                    out.append(f"transitivity fails at ({a!r}, {b!r}, {c!r})")
    for a in els:
        for b in els:
            if not any(p.leq(a, u) and p.leq(b, u) for u in els):
                out.append(f"no upper bound for ({a!r}, {b!r})")
    return out
