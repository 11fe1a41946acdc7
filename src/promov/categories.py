"""Category backends: finitely generated abelian groups and pointed finite sets.

Objects and morphisms are immutable values.  The central operation is
:func:`solve_factorization`, which decides whether a morphism satisfying a
list of one-sided composition constraints exists, returning a concrete
witness or ``None`` as a proof of non-existence.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import gcd, prod
from typing import Iterator, Optional, Union

from .intlinalg import IntMatrix, solve_congruence_system

HOM_ENUMERATION_CAP = 200_000


class BackendError(ValueError):
    """Raised on mismatched or unsupported backend inputs."""


# ---------------------------------------------------------------------------
# finitely generated abelian groups


@dataclass(frozen=True)
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

    def is_trivial(self) -> bool:
        return all(d == 1 for d in self.factors)


def Z(n: int = 0) -> FgAbelianObject:
    """Shorthand: Z(0) is the integers, Z(n) the cyclic group of order n."""
    return FgAbelianObject((n,))


@dataclass(frozen=True)
class FgAbelianMorphism:
    source: FgAbelianObject
    target: FgAbelianObject
    matrix: IntMatrix  # target.rank rows x source.rank cols

    def __post_init__(self):
        if self.matrix.rows != self.target.rank or self.matrix.cols != self.source.rank:
            raise BackendError("matrix shape does not match source/target ranks")
        for i, e in enumerate(self.target.factors):
            for j, d in enumerate(self.source.factors):
                v = d * self.matrix.at(i, j)
                if (e == 0 and v != 0) or (e != 0 and v % e != 0):
                    raise BackendError(
                        f"matrix entry ({i},{j}) does not respect source relations")

    def reduced(self) -> "FgAbelianMorphism":
        """Entries reduced into canonical residues mod the target relations."""
        ent = []
        for i, e in enumerate(self.target.factors):
            for j in range(self.source.rank):
                v = self.matrix.at(i, j)
                ent.append(v % e if e else v)
        return FgAbelianMorphism(self.source, self.target,
                                 IntMatrix(self.matrix.rows, self.matrix.cols, tuple(ent)))

    def is_zero(self) -> bool:
        for i, e in enumerate(self.target.factors):
            for j in range(self.source.rank):
                v = self.matrix.at(i, j)
                if (v % e if e else v) != 0:
                    return False
        return True


def abelian_identity(obj: FgAbelianObject) -> FgAbelianMorphism:
    return FgAbelianMorphism(obj, obj, IntMatrix.identity(obj.rank))


def abelian_zero(source: FgAbelianObject, target: FgAbelianObject) -> FgAbelianMorphism:
    return FgAbelianMorphism(source, target, IntMatrix.zero(target.rank, source.rank))


def abelian_scalar(obj: FgAbelianObject, c: int) -> FgAbelianMorphism:
    """Multiplication by c on every summand."""
    m = IntMatrix(obj.rank, obj.rank, tuple(
        c if i == j else 0 for i in range(obj.rank) for j in range(obj.rank)))
    return FgAbelianMorphism(obj, obj, m)


# ---------------------------------------------------------------------------
# pointed finite sets


@dataclass(frozen=True)
class PointedFiniteSet:
    """Elements are 0..size-1; element 0 is the basepoint."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("a pointed set has at least the basepoint")

    def is_trivial(self) -> bool:
        return self.size == 1


@dataclass(frozen=True)
class PointedMap:
    source: PointedFiniteSet
    target: PointedFiniteSet
    images: tuple

    def __post_init__(self):
        if len(self.images) != self.source.size:
            raise BackendError("image table length does not match source size")
        if self.images and self.images[0] != 0:
            raise BackendError("basepoint must map to basepoint")
        if any(not (0 <= v < self.target.size) for v in self.images):
            raise BackendError("image out of range")

    def is_constant(self) -> bool:
        return all(v == 0 for v in self.images)


def pointed_identity(obj: PointedFiniteSet) -> PointedMap:
    return PointedMap(obj, obj, tuple(range(obj.size)))


def pointed_constant(source: PointedFiniteSet, target: PointedFiniteSet) -> PointedMap:
    return PointedMap(source, target, (0,) * source.size)


Object = Union[FgAbelianObject, PointedFiniteSet]
Morphism = Union[FgAbelianMorphism, PointedMap]


# ---------------------------------------------------------------------------
# generic operations


def identity(obj: Object) -> Morphism:
    if isinstance(obj, FgAbelianObject):
        return abelian_identity(obj)
    return pointed_identity(obj)


def zero(source: Object, target: Object) -> Morphism:
    """Zero map (abelian) or basepoint-constant map (pointed sets)."""
    if isinstance(source, FgAbelianObject):
        return abelian_zero(source, target)
    return pointed_constant(source, target)


def is_zero_morphism(f: Morphism) -> bool:
    """Zero map (abelian) or basepoint-constant map (pointed sets)."""
    if isinstance(f, FgAbelianMorphism):
        return f.is_zero()
    return f.is_constant()


def compose(g: Morphism, f: Morphism) -> Morphism:
    """g after f."""
    if type(g) is not type(f):
        raise BackendError("cannot compose across backends")
    if g.source != f.target:
        raise BackendError("source/target mismatch in composition")
    if isinstance(g, FgAbelianMorphism):
        return FgAbelianMorphism(f.source, g.target, g.matrix.mul(f.matrix)).reduced()
    return PointedMap(f.source, g.target, tuple(g.images[v] for v in f.images))


def morphisms_equal(f: Morphism, g: Morphism) -> bool:
    if type(g) is not type(f):
        raise BackendError("cannot compare across backends")
    if f.source != g.source or f.target != g.target:
        raise BackendError("cannot compare morphisms with different endpoints")
    if isinstance(f, PointedMap):
        return f.images == g.images
    for i, e in enumerate(f.target.factors):
        for j in range(f.source.rank):
            d = f.matrix.at(i, j) - g.matrix.at(i, j)
            if (d % e if e else d) != 0:
                return False
    return True


def is_epimorphism(f: Morphism) -> bool:
    if isinstance(f, PointedMap):
        return set(f.images) == set(range(f.target.size))
    return subobjects_equal(image_subobject(f), full_subobject(f.target))


# ---------------------------------------------------------------------------
# factorization problems


@dataclass(frozen=True)
class Constraint:
    """Either L o u = R (side 'left') or u o L = R (side 'right')."""

    side: str  # 'left': compose L after the unknown; 'right': before it
    L: Morphism
    R: Morphism


@dataclass(frozen=True)
class FactorizationProblem:
    source: Object
    target: Object
    constraints: tuple

    def __post_init__(self):
        for c in self.constraints:
            if c.side == "left":
                ok = (c.L.source == self.target and c.R.source == self.source
                      and c.R.target == c.L.target)
            elif c.side == "right":
                ok = (c.L.target == self.source and c.R.target == self.target
                      and c.R.source == c.L.source)
            else:
                raise BackendError(f"unknown constraint side {c.side!r}")
            if not ok:
                raise BackendError("constraint does not type-check")


def check_solution(p: FactorizationProblem, u: Morphism) -> bool:
    for c in p.constraints:
        got = compose(c.L, u) if c.side == "left" else compose(u, c.L)
        if not morphisms_equal(got, c.R):
            return False
    return True


def solve_factorization(p: FactorizationProblem) -> Optional[Morphism]:
    """A morphism u: source -> target meeting every constraint, else None.

    Abelian: the constraints plus u's own well-definedness congruences form
    one linear congruence system in u's entries, decided exactly.  Pointed
    sets: both constraint forms restrict u pointwise, so per-element
    propagation is exhaustive and None is likewise a proof.
    """
    if isinstance(p.source, FgAbelianObject):
        u = _solve_abelian(p)
    else:
        u = _solve_pointed(p)
    if u is not None and not check_solution(p, u):
        raise AssertionError("solver returned a morphism that fails its constraints")
    return u


def _solve_abelian(p: FactorizationProblem) -> Optional[FgAbelianMorphism]:
    S, T = p.source, p.target
    nvars = T.rank * S.rank  # x[i][j] row-major

    def var(i, j):
        return i * S.rank + j

    rows, rhs, mods = [], [], []

    # well-definedness of u itself
    for i, e in enumerate(T.factors):
        for j, d in enumerate(S.factors):
            if d == 0:
                continue
            row = [0] * nvars
            row[var(i, j)] = d
            rows.append(row)
            rhs.append(0)
            mods.append(e)

    for c in p.constraints:
        if c.side == "left":
            # L o u = R with L: T -> W, R: S -> W
            W = c.L.target
            for a, w in enumerate(W.factors):
                for j in range(S.rank):
                    row = [0] * nvars
                    for i in range(T.rank):
                        row[var(i, j)] = c.L.matrix.at(a, i)
                    rows.append(row)
                    rhs.append(c.R.matrix.at(a, j))
                    mods.append(w)
        else:
            # u o L = R with L: W -> S, R: W -> T; equality is mod T relations
            W = c.L.source
            for i, e in enumerate(T.factors):
                for b in range(W.rank):
                    row = [0] * nvars
                    for j in range(S.rank):
                        row[var(i, j)] = c.L.matrix.at(j, b)
                    rows.append(row)
                    rhs.append(c.R.matrix.at(i, b))
                    mods.append(e)

    if not rows:
        return abelian_zero(S, T)
    a = IntMatrix.from_rows(rows)
    x = solve_congruence_system(a, rhs, mods)
    if x is None:
        return None
    m = IntMatrix(T.rank, S.rank, tuple(x))
    return FgAbelianMorphism(S, T, m).reduced()


def _solve_pointed(p: FactorizationProblem) -> Optional[PointedMap]:
    S, T = p.source, p.target
    forced = {0: 0}
    allowed = [set(range(T.size)) for _ in range(S.size)]

    for c in p.constraints:
        if c.side == "right":
            # u(L(w)) = R(w): forces u on the image of L
            for w in range(c.L.source.size):
                s, t = c.L.images[w], c.R.images[w]
                if s in forced and forced[s] != t:
                    return None
                forced[s] = t
        else:
            # L(u(s)) = R(s): u(s) must lie in the L-preimage of R(s)
            pre = {}
            for t, w in enumerate(c.L.images):
                pre.setdefault(w, set()).add(t)
            for s in range(S.size):
                allowed[s] &= pre.get(c.R.images[s], set())

    images = []
    for s in range(S.size):
        if s in forced:
            if forced[s] not in allowed[s]:
                return None
            images.append(forced[s])
        else:
            if not allowed[s]:
                return None
            images.append(min(allowed[s]))
    return PointedMap(S, T, tuple(images))


# ---------------------------------------------------------------------------
# images and subobjects


@dataclass(frozen=True)
class Subobject:
    """Canonically presented subobject of an ambient backend object.

    Abelian: the column Hermite normal form of the image lattice joined with
    the ambient relations.  Pointed sets: the sorted element list.
    """

    ambient: Object
    presentation: tuple

    def is_trivial(self) -> bool:
        if isinstance(self.ambient, PointedFiniteSet):
            return self.presentation == (0,)
        # trivial iff the lattice equals the relation lattice of the ambient
        return self == trivial_subobject(self.ambient)

    def is_full(self) -> bool:
        return self == full_subobject(self.ambient)


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


def _span(ambient: Object, generators) -> Subobject:
    """The subobject generated by the given elements (pointed sets) or
    column vectors (abelian), joined with the basepoint or with the ambient
    relations so that equal subobjects present equally."""
    if isinstance(ambient, PointedFiniteSet):
        return Subobject(ambient, tuple(sorted(set(generators) | {0})))
    relations = [[e if j == i else 0 for j in range(ambient.rank)]
                 for i, e in enumerate(ambient.factors) if e != 0]
    return Subobject(ambient, _column_hnf(list(generators) + relations,
                                          ambient.rank))


def image_subobject(f: Morphism) -> Subobject:
    if isinstance(f, PointedMap):
        return _span(f.target, f.images)
    return _span(f.target, [list(f.matrix.col(j)) for j in range(f.matrix.cols)])


def trivial_subobject(ambient: Object) -> Subobject:
    return _span(ambient, [])


def full_subobject(ambient: Object) -> Subobject:
    if isinstance(ambient, PointedFiniteSet):
        return _span(ambient, range(ambient.size))
    return _span(ambient, [[1 if i == j else 0 for i in range(ambient.rank)]
                           for j in range(ambient.rank)])


def subobjects_equal(s1: Subobject, s2: Subobject) -> bool:
    if s1.ambient != s2.ambient:
        raise BackendError("subobjects live in different ambient objects")
    return s1.presentation == s2.presentation


def subobject_contains(big: Subobject, small: Subobject) -> bool:
    """small <= big as subobjects of the same ambient object."""
    if big.ambient != small.ambient:
        raise BackendError("subobjects live in different ambient objects")
    if isinstance(big.ambient, PointedFiniteSet):
        return set(small.presentation) <= set(big.presentation)
    joined = list(big.presentation) + list(small.presentation)
    dim = big.ambient.rank
    return _column_hnf([list(r) for r in joined], dim) == big.presentation


# ---------------------------------------------------------------------------
# hom-set enumeration and the forgetful functor


def hom_count(a: Object, b: Object) -> Optional[int]:
    """Size of Hom(a, b), or None if infinite."""
    if isinstance(a, PointedFiniteSet):
        return b.size ** (a.size - 1)
    total = 1
    for d in a.factors:
        for e in b.factors:
            if e == 0:
                if d == 0:
                    return None  # Hom(Z, Z) is infinite
                # d x = 0 in Z forces x = 0
                continue
            total *= e if d == 0 else gcd(d, e)
    return total


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
    per_entry = []
    for i, e in enumerate(b.factors):
        for j, d in enumerate(a.factors):
            if e == 0:
                per_entry.append([0])
            elif d == 0:
                per_entry.append(list(range(e)))
            else:
                step = e // gcd(d, e)
                per_entry.append(list(range(0, e, step)))
    for combo in itertools.product(*per_entry):
        m = IntMatrix(b.rank, a.rank, tuple(combo))
        yield FgAbelianMorphism(a, b, m)


def _mixed_radix_decode(idx: int, factors: tuple) -> list:
    out = []
    for d in reversed(factors):
        out.append(idx % d)
        idx //= d
    out.reverse()
    return out


def _mixed_radix_encode(coords, factors: tuple) -> int:
    idx = 0
    for c, d in zip(coords, factors):
        idx = idx * d + (c % d)
    return idx


def forgetful_object(a: FgAbelianObject) -> PointedFiniteSet:
    if not a.is_finite():
        raise BackendError("cannot forget an infinite group to a finite set")
    return PointedFiniteSet(a.order())


def forgetful_to_sets(f: FgAbelianMorphism) -> PointedMap:
    """Underlying pointed map of a morphism of finite abelian groups.

    Elements are indexed by mixed-radix encoding of coordinate tuples, so the
    zero element is index 0 and the construction is functorial.
    """
    src, tgt = forgetful_object(f.source), forgetful_object(f.target)
    images = []
    for idx in range(src.size):
        coords = _mixed_radix_decode(idx, f.source.factors)
        out = f.matrix.mul_vector(coords)
        images.append(_mixed_radix_encode(out, f.target.factors))
    return PointedMap(src, tgt, tuple(images))
