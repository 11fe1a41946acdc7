"""Category backends: finitely generated abelian groups and pointed finite sets.

Objects and morphisms are immutable values.  The central operation is
:func:`solve_factorization`, which decides whether a morphism u with one
composition equation L o u = R exists, returning a concrete witness or
``None`` as a proof of non-existence.  For abelian groups it writes u as
steps times free unknowns, with the steps of Hom(+Z/d_j, +Z/e_i) that
``enumerate_homs`` also walks, so the congruence system it hands to Smith
normal form holds only the equation's rows.  For pointed sets u sends each
element to the least L-preimage of its R-image.

Each backend has one identity (:func:`identity`), one zero morphism
(:func:`zero`, the basepoint-constant map on pointed sets) and one zero test
(:func:`is_zero_morphism`).  An image is its canonical presentation
(:func:`image_subobject`), a tuple compared with ``==`` inside one ambient
object.

:func:`compose` can answer from a value memo that lives for one check:
:func:`value_memo` opens it, and the checkers open one for each check on
sequence input, never on a finite poset.  It keys the pair (g, f) by value.
That is sound because compose is a function of its arguments' values, and
because every morphism is stored canonically (an abelian matrix is
determined by the homomorphism), equal pairs are the same homomorphisms and
compose to equal values.  A morphism computes its hash on first use and
keeps it, so a hit is one dict lookup: 0.25 us, where a pointed compose of
five elements costs 2.3 us and a 2x2 abelian one 6.0 us (timeit, 2-core
x86-64 VM, Python 3.11.7).  It pays on sequences, where bonds,
restrictions and strong composites repeat by value from key to key: on the
benchmark at seed 100, 96% of the compose calls of a check on the constant
transfer systems and 88% on the random sequence corpus repeat a pair already
composed in that check, and only about 1% repeat the same objects.  On the
finite corpus, once its restriction tables are filled, 6% do; there a miss
on values not hashed before costs about 1.9 us on top of the pointed
compose, and a memo opened on finite input made warm passes of that corpus
5-8% slower (two in-process runs of 30 and 40 passes), so finite posets get
no memo.  Outside a scope compose keeps nothing.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from math import gcd, prod
from operator import attrgetter, mul
from typing import Iterator, Optional, Union

from .intlinalg import IntMatrix, solve_congruence_system

HOM_ENUMERATION_CAP = 200_000


class BackendError(ValueError):
    """Raised on mismatched or unsupported backend inputs."""


def _hash_once(data: str):
    """A morphism's __hash__: hash((source, target, <data>)), the hash the
    generated one would give, computed on first use and kept in the frozen
    value's _hash slot.  A morphism is a key of every value memo, and
    rehashing its fields and both endpoints on each lookup cost more than
    the lookup itself; equality is still the generated field comparison."""
    get = attrgetter(data)

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.source, self.target, get(self)))
            object.__setattr__(self, "_hash", h)
        return h
    return __hash__


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True, slots=True)
class FgAbelianObject:
    """Direct sum of cyclic groups; factor d means Z/d, with d = 0 meaning Z."""

    factors: tuple

    def __post_init__(self):
        if any(d < 0 for d in self.factors):
            raise ValueError("factors must be nonnegative")

    @property
    def rank(self) -> int:
        return len(self.factors)

    def is_finite(self) -> bool:
        return all(d > 0 for d in self.factors)

    def order(self) -> int:
        if not self.is_finite():
            raise BackendError("object is infinite")
        return prod(self.factors) if self.factors else 1


def Z(n: int = 0) -> FgAbelianObject:
    """Shorthand: Z(0) is the integers, Z(n) the cyclic group of order n."""
    return FgAbelianObject((n,))


@dataclass(frozen=True, slots=True)
class FgAbelianMorphism:
    source: FgAbelianObject
    target: FgAbelianObject
    matrix: IntMatrix  # target.rank rows x source.rank cols
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    __hash__ = _hash_once("matrix")

    def __post_init__(self):
        # the one storage decision: row i in canonical residues mod the
        # target factor e_i, a Z row (e_i = 0) as given; so equal
        # homomorphisms have equal matrices and compare ==
        m, sf, tf = self.matrix, self.source.factors, self.target.factors
        c, ent = m.cols, m.entries
        if m.rows != len(tf) or c != len(sf):
            raise BackendError("matrix shape does not match source/target ranks")
        canonical = True
        for i, e in enumerate(tf):
            for j, (d, v) in enumerate(zip(sf, ent[i * c:(i + 1) * c])):
                if v * d % e if e else v * d:
                    raise BackendError(
                        f"matrix entry ({i},{j}) does not respect source relations")
                if e and not 0 <= v < e:
                    canonical = False
        if not canonical:
            object.__setattr__(self, "matrix", IntMatrix(m.rows, c, tuple(
                v % e if e else v
                for i, e in enumerate(tf) for v in ent[i * c:(i + 1) * c])))


def abelian_scalar(obj: FgAbelianObject, c: int) -> FgAbelianMorphism:
    """Multiplication by c on every summand."""
    m = IntMatrix(obj.rank, obj.rank, tuple(
        c if i == j else 0 for i in range(obj.rank) for j in range(obj.rank)))
    return FgAbelianMorphism(obj, obj, m)


# ---------------------------------------------------------------------------
# pointed finite sets


@dataclass(frozen=True, slots=True)
class PointedFiniteSet:
    """Elements are 0..size-1; element 0 is the basepoint."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("a pointed set has at least the basepoint")


@dataclass(frozen=True, slots=True)
class PointedMap:
    source: PointedFiniteSet
    target: PointedFiniteSet
    images: tuple
    _hash: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    __hash__ = _hash_once("images")

    def __post_init__(self):
        if len(self.images) != self.source.size:
            raise BackendError("image table length does not match source size")
        if self.images and self.images[0] != 0:
            raise BackendError("basepoint must map to basepoint")
        if any(not (0 <= v < self.target.size) for v in self.images):
            raise BackendError("image out of range")


Object = Union[FgAbelianObject, PointedFiniteSet]
Morphism = Union[FgAbelianMorphism, PointedMap]


# ---------------------------------------------------------------------------
# generic operations


def identity(obj: Object) -> Morphism:
    if isinstance(obj, FgAbelianObject):
        return FgAbelianMorphism(obj, obj, IntMatrix.identity(obj.rank))
    return PointedMap(obj, obj, tuple(range(obj.size)))


def zero(source: Object, target: Object) -> Morphism:
    """Zero map (abelian) or basepoint-constant map (pointed sets)."""
    if isinstance(source, FgAbelianObject):
        return FgAbelianMorphism(source, target,
                                 IntMatrix.zero(target.rank, source.rank))
    return PointedMap(source, target, (0,) * source.size)


def is_zero_morphism(f: Morphism) -> bool:
    """Zero map (abelian) or basepoint-constant map (pointed sets)."""
    if isinstance(f, FgAbelianMorphism):
        return not any(f.matrix.entries)
    return not any(f.images)


# (g, f) -> g o f while a value_memo scope is open, else None
_memo: ContextVar = ContextVar("compose_memo", default=None)


@contextmanager
def value_memo() -> Iterator[dict]:
    """A scope in which compose answers a pair equal by value to one it
    already composed with the very same morphism; yields the memo.  The
    memo is dropped when the scope ends, also by an exception."""
    memo = {}
    token = _memo.set(memo)
    try:
        yield memo
    finally:
        _memo.reset(token)


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f.  Inside a value_memo scope a pair equal by value to one
    already composed there gets back the same morphism; outside one nothing
    is kept.  A mismatched pair is refused inside a scope as outside one,
    and never stored."""
    memo = _memo.get()
    if memo is None:
        return _compose(g, f)
    key = (g, f)
    h = memo.get(key)
    if h is None:
        h = memo[key] = _compose(g, f)
    return h


def _compose(g: Morphism, f: Morphism) -> Morphism:
    if type(g) is not type(f):
        raise BackendError("cannot compose across backends")
    if g.source != f.target:
        raise BackendError("source/target mismatch in composition")
    if isinstance(g, FgAbelianMorphism):
        # the product reduced row by row as it is formed: one matrix, which
        # the constructor validates once and finds already canonical
        a, b = g.matrix, f.matrix
        k, c, ea = a.cols, b.cols, a.entries
        cols = [b.entries[j::c] for j in range(c)]
        out = []
        for i, e in enumerate(g.target.factors):
            ri = ea[i * k:(i + 1) * k]
            if e:
                out += [sum(map(mul, ri, cj)) % e for cj in cols]
            else:
                out += [sum(map(mul, ri, cj)) for cj in cols]
        return FgAbelianMorphism(f.source, g.target, IntMatrix(a.rows, c, tuple(out)))
    return PointedMap(f.source, g.target, tuple(g.images[v] for v in f.images))


def morphisms_equal(f: Morphism, g: Morphism) -> bool:
    if type(g) is not type(f):
        raise BackendError("cannot compare across backends")
    if f.source != g.source or f.target != g.target:
        raise BackendError("cannot compare morphisms with different endpoints")
    return f == g


def is_epimorphism(f: Morphism) -> bool:
    if isinstance(f, PointedMap):
        return set(f.images) == set(range(f.target.size))
    units = IntMatrix.identity(f.target.rank).to_rows()
    return image_subobject(f) == _span(f.target, units)


# ---------------------------------------------------------------------------
# factorization problems


@dataclass(frozen=True)
class FactorizationProblem:
    """Find u : source -> target with L o u = R, where L : target -> W and
    R : source -> W; so source is R.source and target is L.source."""

    L: Morphism
    R: Morphism

    def __post_init__(self):
        if type(self.L) is not type(self.R) or self.L.target != self.R.target:
            raise BackendError("L and R must share a backend and a target")

    @property
    def source(self) -> Object:
        return self.R.source

    @property
    def target(self) -> Object:
        return self.L.source


def check_solution(p: FactorizationProblem, u: Morphism) -> bool:
    return morphisms_equal(compose(p.L, u), p.R)


def solve_factorization(p: FactorizationProblem) -> Optional[Morphism]:
    """A morphism u: source -> target with L o u = R, else None.

    Abelian: u's entries range over the multiples of the steps that make u
    well defined, so the equation alone forms one linear congruence system
    in the free unknowns, decided exactly.  Pointed sets: u(s) must be an
    L-preimage of R(s), chosen pointwise, so None is likewise a proof.
    """
    if isinstance(p.source, FgAbelianObject):
        u = _solve_abelian(p)
    else:
        u = _solve_pointed(p)
    if u is not None and not check_solution(p, u):
        raise AssertionError("solver returned a morphism that fails its equation")
    return u


def _solve_abelian(p: FactorizationProblem) -> Optional[FgAbelianMorphism]:
    L, R, S, T = p.L, p.R, p.source, p.target
    s = S.rank
    # u = steps * y over free unknowns y, row-major at i * s + j
    steps = _steps(S, T)
    # L o u = R with L: T -> W, R: S -> W; row (a, j) holds
    # L[a][i] * steps[i][j] at y[i][j] for every i
    flat, rhs, mods = [], [], []
    for a, w in enumerate(L.target.factors):
        la = L.matrix.row(a)
        for j in range(s):
            row = [0] * len(steps)
            row[j::s] = map(mul, la, steps[j::s])
            flat += row
            rhs.append(R.matrix.at(a, j))
            mods.append(w)

    if not rhs:
        return zero(S, T)
    y = solve_congruence_system(IntMatrix(len(rhs), len(steps), tuple(flat)),
                                rhs, mods)
    if y is None:
        return None
    return FgAbelianMorphism(S, T, IntMatrix(T.rank, s, tuple(map(mul, steps, y))))


def _solve_pointed(p: FactorizationProblem) -> Optional[PointedMap]:
    # L(u(s)) = R(s): u(s) is the least L-preimage of R(s), 0 for s = 0
    least = {}
    for t, w in enumerate(p.L.images):
        least.setdefault(w, t)
    images = tuple(least.get(r) for r in p.R.images)
    if None in images:
        return None
    return PointedMap(p.source, p.target, images)


# ---------------------------------------------------------------------------
# images: a subobject is its canonical presentation, a tuple that two
# subobjects of one ambient object share exactly when they are equal.
# Abelian: the column Hermite form of the generators joined with the
# ambient relations.  Pointed sets: the sorted element list.


def _column_hnf(generators: list, dim: int) -> tuple:
    """Canonical Hermite-style basis of the sublattice of Z^dim spanned by
    the given generator vectors; equal lattices yield equal tuples."""
    rows = [list(g) for g in generators if any(g)]
    pivot_row = 0
    for col in range(dim):
        # gcd the column entries at or below pivot_row into a single row
        while True:
            nz = [r for r in range(pivot_row, len(rows)) if rows[r][col] != 0]
            if not nz:
                break
            best = min(nz, key=lambda r: abs(rows[r][col]))
            rows[pivot_row], rows[best] = rows[best], rows[pivot_row]
            done = True
            for r in range(pivot_row + 1, len(rows)):
                if rows[r][col] != 0:
                    q = rows[r][col] // rows[pivot_row][col]
                    rows[r] = [x - q * y for x, y in zip(rows[r], rows[pivot_row])]
                    if rows[r][col] != 0:
                        done = False
            if done:
                break
        if pivot_row < len(rows) and rows[pivot_row][col] != 0:
            if rows[pivot_row][col] < 0:
                rows[pivot_row] = [-x for x in rows[pivot_row]]
            # canonical residues above the pivot
            for r in range(pivot_row):
                q = rows[r][col] // rows[pivot_row][col]
                if q:
                    rows[r] = [x - q * y for x, y in zip(rows[r], rows[pivot_row])]
            pivot_row += 1
    return tuple(tuple(r) for r in rows[:pivot_row])


def _span(ambient: Object, generators) -> tuple:
    """The presentation of the subobject generated by the given elements
    (pointed sets) or column vectors (abelian), joined with the basepoint or
    with the ambient relations so that equal subobjects present equally."""
    if isinstance(ambient, PointedFiniteSet):
        return tuple(sorted(set(generators) | {0}))
    relations = [[e if j == i else 0 for j in range(ambient.rank)]
                 for i, e in enumerate(ambient.factors) if e != 0]
    return _column_hnf(list(generators) + relations, ambient.rank)


def image_subobject(f: Morphism) -> tuple:
    """The presentation of f's image in f.target."""
    if isinstance(f, PointedMap):
        return _span(f.target, f.images)
    return _span(f.target, [list(f.matrix.col(j)) for j in range(f.matrix.cols)])


# ---------------------------------------------------------------------------
# hom-set enumeration and the forgetful functor


def _steps(a: FgAbelianObject, b: FgAbelianObject) -> list:
    """Hom(a, b) is the matrices whose entry (i, j) lies in steps[i * a.rank
    + j] * Z: d_j x = 0 in Z/e_i, so the step is e_i / gcd(d_j, e_i), 1 from
    a Z summand (d_j = 0) and 0 into one (e_i = 0 < d_j)."""
    return [e // gcd(d, e) if d else 1 for e in b.factors for d in a.factors]


def _entry_values(a: FgAbelianObject, b: FgAbelianObject) -> list:
    """Each entry's values mod e_i, row-major: the multiples of its step
    below e_i, or 0 alone (step 0).  Empty for an entry from Z into Z."""
    ends = [e for e in b.factors for _ in a.factors]
    return [range(0, e, s) if s else (0,) for e, s in zip(ends, _steps(a, b))]


def hom_count(a: Object, b: Object) -> Optional[int]:
    """Size of Hom(a, b), or None if infinite."""
    if type(a) is not type(b):
        raise BackendError("cannot count homs across backends")
    if isinstance(a, PointedFiniteSet):
        return b.size ** (a.size - 1)
    if 0 in a.factors and 0 in b.factors:
        return None  # Hom(Z, Z) is infinite
    return prod(map(len, _entry_values(a, b)))


def enumerate_homs(a: Object, b: Object) -> Iterator[Morphism]:
    """All morphisms a -> b, duplicate-free.  Refuses infinite hom-sets and
    hom-sets above HOM_ENUMERATION_CAP."""
    n = hom_count(a, b)
    if n is None:
        raise BackendError("hom-set is infinite")
    if n > HOM_ENUMERATION_CAP:
        raise BackendError(f"hom-set size {n} exceeds enumeration cap")
    if isinstance(a, PointedFiniteSet):
        for tail in itertools.product(range(b.size), repeat=a.size - 1):
            yield PointedMap(a, b, (0,) + tail)
        return
    for combo in itertools.product(*_entry_values(a, b)):
        m = IntMatrix(b.rank, a.rank, tuple(combo))
        yield FgAbelianMorphism(a, b, m)


def forgetful_object(a: FgAbelianObject) -> PointedFiniteSet:
    if not a.is_finite():
        raise BackendError("cannot forget an infinite group to a finite set")
    return PointedFiniteSet(a.order())


def forgetful_to_sets(f: FgAbelianMorphism) -> PointedMap:
    """Underlying pointed map of a morphism of finite abelian groups.

    Each element is indexed by the place of its coordinate tuple in
    itertools.product order (the last coordinate varies fastest), so the
    zero element is index 0 and the construction is functorial.
    """
    tf = f.target.factors
    place = {c: i for i, c in enumerate(itertools.product(*map(range, tf)))}
    images = tuple(place[tuple(v % e for v, e in zip(f.matrix.mul_vector(c), tf))]
                   for c in itertools.product(*map(range, f.source.factors)))
    return PointedMap(forgetful_object(f.source), forgetful_object(f.target), images)
