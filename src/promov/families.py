"""Constructors for named example instances and seeded random corpora.

Everything here is deterministic in its seed: the same spec always produces
the same instance.  The random families deliberately stay inside the regimes
where the decision procedures are decisive — finite posets (checked exactly)
and eventually periodic sequences (the stabilization rules apply).
"""

from __future__ import annotations

import random

from . import categories as cat
from .categories import (
    FgAbelianMorphism,
    FgAbelianObject,
    PointedFiniteSet,
    Z,
    abelian_scalar,
    compose,
    enumerate_homs,
    forgetful_object,
    forgetful_to_sets,
    identity,
)
from .indexsets import NAT, FiniteDirectedPoset, is_finite_index
from .intlinalg import IntMatrix
from .systems import (
    InverseSystem,
    SystemFlags,
    SystemMorphism,
    compose_morphisms,
    identity_morphism,
)


def _same(n):
    """The identity index function."""
    return n


# ---------------------------------------------------------------------------
# the worked sequence example: F = (Z, x2), G = (Z/2^n), f_n the reductions


def _reduction(source: FgAbelianObject, target: FgAbelianObject) -> FgAbelianMorphism:
    return FgAbelianMorphism(source, target, IntMatrix.from_rows([[1]]))


def example_2_27():
    """The triptych: a movable morphism between two non-movable systems.

    F is the integers with multiplication-by-2 bonds; G has G_n = Z/2^n with
    reduction bonds (G_0 trivial); f_n : Z -> Z/2^n is the canonical
    surjection, with the identity index function.
    """
    F = InverseSystem(NAT, object_rule=lambda n: Z(0),
                      step_rule=lambda n: abelian_scalar(Z(0), 2), name="F")
    G = InverseSystem(NAT, object_rule=lambda n: Z(2 ** n),
                      step_rule=lambda n: _reduction(Z(2 ** (n + 1)), Z(2 ** n)),
                      flags=SystemFlags(all_bondings_epimorphic=True), name="G")
    f = SystemMorphism(F, G, _same, lambda n: _reduction(Z(0), Z(2 ** n)), name="f")
    return F, G, f


# ---------------------------------------------------------------------------
# degenerate and constant systems


def rudimentary(obj) -> InverseSystem:
    """Single-index system; every morphism out of it is movable."""
    poset = FiniteDirectedPoset.chain(("*",))
    return InverseSystem(poset, objects={"*": obj},
                         bonds={("*", "*"): identity(obj)}, name="rudimentary")


def constant_system(obj) -> InverseSystem:
    """Identity-bond sequence on one object, flagged periodic with period 1."""
    return InverseSystem(
        NAT, object_rule=lambda n: obj, step_rule=lambda n: identity(obj),
        flags=SystemFlags(all_bondings_epimorphic=True,
                          eventually_periodic=(0, 1)),
        name="constant")


def constant_poset_system(poset: FiniteDirectedPoset, obj) -> InverseSystem:
    """Identity bonds on one object over a finite poset."""
    return InverseSystem(
        poset, objects={lam: obj for lam in poset.members()},
        bonds={(a, b): identity(obj) for a in poset.members() for b in poset.above(a)},
        name="constant-poset")


# ---------------------------------------------------------------------------
# random finite-poset instances (the oracle corpus)

_POSET_SHAPES = (
    ("chain2", ("a", "b"), (("a", "b"),)),
    ("chain3", ("a", "b", "c"), (("a", "b"), ("b", "c"))),
    ("chain4", ("a", "b", "c", "d"), (("a", "b"), ("b", "c"), ("c", "d"))),
    ("chain5", ("a", "b", "c", "d", "e"),
     (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"))),
    ("vee", ("a", "b", "c"), (("a", "c"), ("b", "c"))),
    ("vee-top", ("a", "b", "c", "d"),
     (("a", "c"), ("b", "c"), ("c", "d"))),
    ("tripod", ("a", "b", "e", "c"),
     (("a", "c"), ("b", "c"), ("e", "c"))),
)

# small objects, every order <= 16 so hom-sets stay enumerable
_ABELIAN_OBJECTS = ((1,), (2,), (3,), (4,), (2, 2), (5,), (6,), (8,),
                    (2, 4), (9,), (12,), (2, 2, 2))
_SET_SIZES = (1, 2, 3, 4)


def _random_object(rng: random.Random, backend: str):
    if backend == "pointed_set":
        return PointedFiniteSet(rng.choice(_SET_SIZES))
    return FgAbelianObject(rng.choice(_ABELIAN_OBJECTS))


def _random_hom(rng: random.Random, a, b):
    homs = list(enumerate_homs(a, b))
    return homs[rng.randrange(len(homs))]


def random_finite_system(rng: random.Random, backend: str,
                         shape=None) -> InverseSystem:
    """Random system over a poset shape in which every element below the top
    has one upper cover: objects and cover bonds are drawn freely, and each
    composite bond is composed once, walking up from its low end."""
    name, labels, covers = shape if shape else rng.choice(_POSET_SHAPES)
    poset = FiniteDirectedPoset.from_pairs(labels, covers)
    up = {}
    for lo, hi in covers:
        if up.setdefault(lo, hi) != hi:
            raise ValueError(f"{lo!r} has two upper covers in shape {name!r}")
    objects = {lam: _random_object(rng, backend) for lam in labels}
    bonds = {(lo, hi): _random_hom(rng, objects[hi], objects[lo])
             for lo, hi in covers}
    full = {}
    for lo in labels:
        hi, m = lo, identity(objects[lo])
        full[(lo, lo)] = m
        while hi in up:
            m = compose(m, bonds[(hi, up[hi])])
            hi = up[hi]
            full[(lo, hi)] = m
    return InverseSystem(poset, objects=objects, bonds=full,
                         name=f"random-{name}")


def random_finite_morphism(rng: random.Random, backend: str,
                           source: InverseSystem = None) -> SystemMorphism:
    """Random coherent morphism between systems over one poset.

    The generator anchors everything at the greatest element: phi is constant
    at the top and f_mu = q_{mu,top} o g for a single random g, which makes
    coherence automatic.  Bond-restriction endomorphisms and composites add
    variety with non-constant phi.
    """
    kind = rng.randrange(4)
    x = source if source is not None else random_finite_system(rng, backend)
    poset = x.index
    if kind == 0:
        return identity_morphism(x)
    if kind == 1:
        # bond restriction: phi(mu) random above mu, f_mu the bond
        table = {mu: rng.choice(poset.above(mu)) for mu in poset.members()}
        return SystemMorphism(x, x, table.__getitem__,
                              lambda mu: x.bond(mu, table[mu]),
                              name="bond-restriction")
    f = _top_anchored(rng, x, backend)
    if kind == 2:
        return f
    h = random_finite_morphism(rng, backend, source=f.target)
    return compose_morphisms(h, f)


def _top_anchored(rng: random.Random, x: InverseSystem, backend: str,
                  name: str = "top-anchored") -> SystemMorphism:
    """A random target y over x's poset and f_mu = q_{mu,top} o g for one
    random g : X_top -> Y_top, with phi constant at the top: coherent by
    construction."""
    poset = x.index
    top = poset.greatest()
    shape = next(s for s in _POSET_SHAPES if s[1] == poset.members())
    y = random_finite_system(rng, backend, shape=shape)
    g = _random_hom(rng, x.object_at(top), y.object_at(top))
    table = {mu: top for mu in poset.members()}
    return SystemMorphism(x, y, table.__getitem__,
                          lambda mu: compose(y.bond(mu, top), g), name=name)


def finite_instance_corpus(seed: int, count: int, backend: str = None) -> list:
    """Seeded list of coherent finite-poset morphisms across both backends."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        b = backend or ("pointed_set" if i % 2 else "abelian")
        out.append(random_finite_morphism(rng, b))
    return out


# ---------------------------------------------------------------------------
# random eventually periodic sequences


def _random_periodic(rng: random.Random, period: int, draw_object,
                     name: str) -> InverseSystem:
    """Eventually periodic sequence flagged as such: a random offset, then
    offset + period objects from draw_object() and one random step into each,
    repeated with the given period past the offset."""
    if period < 1:
        raise ValueError(f"period must be at least 1, not {period}")
    off = rng.randrange(3)

    def periodic(items):
        return lambda n: items[n] if n < off else items[off + (n - off) % period]

    object_rule = periodic([draw_object() for _ in range(off + period)])
    steps = [_random_hom(rng, object_rule(n + 1), object_rule(n))
             for n in range(off + period)]
    epi = all(cat.is_epimorphism(s) for s in steps)
    return InverseSystem(NAT, object_rule=object_rule, step_rule=periodic(steps),
                         flags=SystemFlags(all_bondings_epimorphic=epi,
                                           eventually_periodic=(off, period)),
                         name=name)


def random_set_sequence(seed: int, period: int = 2,
                        max_size: int = 4) -> InverseSystem:
    """Eventually periodic pointed-set sequence with the periodicity flag."""
    if max_size < 1:
        raise ValueError(f"max_size must be at least 1, not {max_size}")
    rng = random.Random(seed)
    return _random_periodic(
        rng, period, lambda: PointedFiniteSet(rng.randrange(1, max_size + 1)),
        f"set-seq-{seed}")


def random_abelian_sequence(seed: int, period: int = 2) -> InverseSystem:
    """Eventually periodic sequence of small finite abelian groups."""
    rng = random.Random(seed)
    return _random_periodic(
        rng, period, lambda: FgAbelianObject(rng.choice(_ABELIAN_OBJECTS)),
        f"ab-seq-{seed}")


def random_sequence_morphism(seed: int, backend: str = "abelian") -> SystemMorphism:
    """Random coherent endomorphism-style morphism on a periodic sequence.

    Variants: identity; bond restriction along phi(n) = n + shift; scalar
    multiplication levelwise (abelian) or the basepoint-constant morphism
    (sets); and composites of those.
    """
    rng = random.Random(seed)
    x = (random_abelian_sequence(rng.randrange(1 << 30))
         if backend == "abelian"
         else random_set_sequence(rng.randrange(1 << 30)))
    choices = []
    choices.append(identity_morphism(x))
    shift = rng.randrange(1, 4)
    choices.append(SystemMorphism(
        x, x, lambda n, s=shift: n + s,
        lambda n, s=shift: x.bond(n, n + s), name="bond-restriction"))
    if backend == "abelian":
        c = rng.randrange(0, 5)
        choices.append(SystemMorphism(
            x, x, _same, lambda n, c=c: abelian_scalar(x.object_at(n), c),
            name=f"scalar-{c}"))
    else:
        choices.append(SystemMorphism(
            x, x, _same,
            lambda n: cat.zero(x.object_at(n), x.object_at(n)),
            name="constant"))
    f = choices[rng.randrange(len(choices))]
    if rng.random() < 0.4:
        g = choices[rng.randrange(len(choices))]
        f = compose_morphisms(g, f)
    return f


# ---------------------------------------------------------------------------
# structured constructions for the property suites


def bounded_phi_morphism(seed: int) -> SystemMorphism:
    """Finite-poset morphism whose index function is bounded (constant at the
    greatest element); the uniform checks must certify it."""
    rng = random.Random(seed)
    backend = "pointed_set" if seed % 2 else "abelian"
    x = random_finite_system(rng, backend)
    return _top_anchored(rng, x, backend, name="bounded-phi")


def perturb_equivalent(f: SystemMorphism, seed: int) -> SystemMorphism:
    """An equivalent representative: push phi up and precompose with the
    corresponding bond, f'_mu = f_mu o p_{phi(mu) phi'(mu)}."""
    rng = random.Random(seed)
    x = f.source
    if not is_finite_index(x.index):
        shift = rng.randrange(1, 4)
        return SystemMorphism(
            x, f.target, lambda n, s=shift: f.phi(n) + s,
            lambda mu, s=shift: compose(f.f(mu), x.bond(f.phi(mu), f.phi(mu) + s)),
            name=f"{f.name}-perturbed")
    top = x.index.greatest()
    table = {mu: top for mu in f.target.index.members()}
    return SystemMorphism(
        x, f.target, table.__getitem__,
        lambda mu: compose(f.f(mu), x.bond(f.phi(mu), top)),
        name=f"{f.name}-perturbed")


_SUMMAND_CHOICES = ((2,), (3,), (4,), (2, 2), (5,))
_COMPLEMENT_CHOICES = ((2,), (4,), (3,), (2, 4))


def domination_pair(seed: int):
    """Section/retraction pair f : X -> Y, g : Y -> X over constant systems
    with g o f the identity of X (so Y dominates X)."""
    rng = random.Random(seed)
    a = rng.choice(_SUMMAND_CHOICES)
    b = rng.choice(_COMPLEMENT_CHOICES)
    A = FgAbelianObject(a)
    AB = FgAbelianObject(a + b)
    ra, rab = A.rank, AB.rank
    incl = FgAbelianMorphism(A, AB, IntMatrix.from_rows(
        [[1 if i == j else 0 for j in range(ra)] for i in range(rab)]))
    proj = FgAbelianMorphism(AB, A, IntMatrix.from_rows(
        [[1 if i == j else 0 for j in range(rab)] for i in range(ra)]))
    X = constant_system(A)
    Y = constant_system(AB)
    f = SystemMorphism(X, Y, _same, lambda n: incl, name="section")
    g = SystemMorphism(Y, X, _same, lambda n: proj, name="retraction")
    return f, g


def retraction_with_section(seed: int):
    """f : X -> Y with an explicit right inverse s (f o s = identity of Y),
    for the right-inverse transfer suite."""
    s, f = domination_pair(seed)  # section then retraction, swapped roles
    return f, s


def apply_forgetful(f: SystemMorphism) -> SystemMorphism:
    """Image of an abelian morphism under the forgetful functor to pointed
    sets; only defined when every object in range is finite."""
    def conv_system(x: InverseSystem) -> InverseSystem:
        if not is_finite_index(x.index):
            return InverseSystem(
                NAT,
                object_rule=lambda n: forgetful_object(x.object_at(n)),
                step_rule=lambda n: forgetful_to_sets(x.bond(n, n + 1)),
                flags=x.flags, name=f"U({x.name})")
        objects = {lam: forgetful_object(x.object_at(lam))
                   for lam in x.index.members()}
        bonds = {(a, b): forgetful_to_sets(x.bond(a, b))
                 for a in x.index.members() for b in x.index.above(a)}
        return InverseSystem(x.index, objects=objects, bonds=bonds,
                             flags=x.flags, name=f"U({x.name})")

    ux, uy = conv_system(f.source), conv_system(f.target)
    return SystemMorphism(ux, uy, f.phi,
                          lambda mu: forgetful_to_sets(f.f(mu)),
                          name=f"U({f.name})")


def cofinal_decreasing_phi_instance(seed: int) -> SystemMorphism:
    """Finite-poset morphism with a non-increasing (here constant) index
    function landing in a cofinal subset, for the co-movability transfer
    suite."""
    rng = random.Random(seed)
    backend = "pointed_set" if seed % 2 else "abelian"
    shape = _POSET_SHAPES[rng.randrange(4)]  # a chain shape
    x = random_finite_system(rng, backend, shape=shape)
    return _top_anchored(rng, x, backend)


def build_family(code: str, params: dict = None, seed: int = 0):
    """The named family: a system or an (F, G, f) triple.  ``params`` maps
    parameter names to ints; it is only read, and a name the family does
    not read is ignored."""
    param = (params or {}).get
    if code == "example_2_27":
        return example_2_27()
    if code == "constant":
        return constant_system(FgAbelianObject((param("modulus", 2),)))
    if code == "set_sequence":
        return random_set_sequence(seed, period=param("period", 2),
                                   max_size=param("max_size", 4))
    if code == "abelian_sequence":
        return random_abelian_sequence(seed, period=param("period", 2))
    raise ValueError(f"unknown family code {code!r}")
