"""Constructors for named example instances and seeded random corpora.

Everything here is deterministic in its seed: the same spec always produces
the same instance.  The random families deliberately stay inside the regimes
where the decision procedures are decisive — finite posets (checked exactly)
and eventually periodic sequences (the stabilization rules apply).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

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
from .indexsets import NAT, FiniteDirectedPoset, IndexMap
from .intlinalg import IntMatrix
from .systems import (
    InverseSystem,
    SystemFlags,
    SystemMorphism,
    compose_morphisms,
    constant_bond_system,
    identity_morphism,
)


@dataclass(frozen=True)
class FamilySpec:
    """Addressable recipe: family code, integer parameters, seed."""

    code: str
    params: tuple = ()       # sorted (name, value) pairs
    seed: int = 0

    def param(self, name, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default


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
    f = SystemMorphism(F, G, IndexMap.identity(NAT),
                       lambda n: _reduction(Z(0), Z(2 ** n)), name="f")
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
    return constant_bond_system(poset, obj, name="constant-poset")


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


def _cover_paths(poset: FiniteDirectedPoset, covers):
    """For each comparable pair (lo, hi), one canonical cover path hi -> lo."""
    succ = {}
    for lo, hi in covers:
        succ.setdefault(hi, []).append(lo)
    paths = {}
    for a in poset.members():
        paths[(a, a)] = []
    changed = True
    while changed:
        changed = False
        for (lo, hi), path in list(paths.items()):
            for lo2 in succ.get(lo, []):
                if (lo2, hi) not in paths:
                    paths[(lo2, hi)] = path + [(lo2, lo)]
                    changed = True
    return paths


def random_finite_system(rng: random.Random, backend: str,
                         shape=None) -> InverseSystem:
    """Random system over a diamond-free poset shape: objects and cover bonds
    are drawn freely, composite bonds are composed along cover paths (well
    defined because the shapes have unique cover paths)."""
    name, labels, covers = shape if shape else rng.choice(_POSET_SHAPES)
    poset = FiniteDirectedPoset.from_pairs(labels, covers)
    objects = {lam: _random_object(rng, backend) for lam in labels}
    bonds = {}
    for lo, hi in covers:
        bonds[(lo, hi)] = _random_hom(rng, objects[hi], objects[lo])
    full = {}
    for (lo, hi), path in _cover_paths(poset, covers).items():
        m = identity(objects[hi])
        for step in path:  # stored top-down: first edge leaves hi
            m = compose(bonds[step], m)
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
        return SystemMorphism(x, x, IndexMap.from_table(poset, poset, table),
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
    return SystemMorphism(x, y, IndexMap.from_table(poset, poset, table),
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
        x, x, IndexMap(NAT, NAT, rule=lambda n, s=shift: n + s,
                       rule_name=f"shift+{shift}"),
        lambda n, s=shift: x.bond(n, n + s), name="bond-restriction"))
    if backend == "abelian":
        c = rng.randrange(0, 5)
        choices.append(SystemMorphism(
            x, x, IndexMap.identity(NAT),
            lambda n, c=c: abelian_scalar(x.object_at(n), c),
            name=f"scalar-{c}"))
    else:
        choices.append(SystemMorphism(
            x, x, IndexMap.identity(NAT),
            lambda n: cat.pointed_constant(x.object_at(n), x.object_at(n)),
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
    if x.is_sequence():
        shift = rng.randrange(1, 4)
        phi2 = IndexMap(f.target.index, x.index,
                        rule=lambda n, s=shift: f.phi(n) + s,
                        rule_name=f"perturbed+{shift}")
        return SystemMorphism(
            x, f.target, phi2,
            lambda mu, s=shift: compose(f.f(mu), x.bond(f.phi(mu), f.phi(mu) + s)),
            name=f"{f.name}-perturbed")
    top = x.index.greatest()
    table = {mu: top for mu in f.target.index.members()}
    phi2 = IndexMap.from_table(f.target.index, x.index, table)
    return SystemMorphism(
        x, f.target, phi2,
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
    f = SystemMorphism(X, Y, IndexMap.identity(NAT), lambda n: incl,
                       name="section")
    g = SystemMorphism(Y, X, IndexMap.identity(NAT), lambda n: proj,
                       name="retraction")
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
        if x.is_sequence():
            return InverseSystem(
                NAT,
                object_rule=lambda n: forgetful_object(x.object_at(n)),
                step_rule=lambda n: forgetful_to_sets(x.bond(n, n + 1)),
                flags=x.flags, name=f"U({x.name})")
        objects = {lam: forgetful_object(x.object_at(lam))
                   for lam in x.index.members()}
        bonds = {}
        for a in x.index.members():
            for b in x.index.members():
                if x.index.leq(a, b):
                    bonds[(a, b)] = forgetful_to_sets(x.bond(a, b))
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


def build_family(spec: FamilySpec):
    """CLI entry: instantiate a named family from its spec."""
    code = spec.code
    if code == "example_2_27":
        return example_2_27()
    if code == "constant":
        n = spec.param("modulus", 2)
        return constant_system(FgAbelianObject((n,)))
    if code == "set_sequence":
        return random_set_sequence(spec.seed,
                                   period=spec.param("period", 2),
                                   max_size=spec.param("max_size", 4))
    if code == "abelian_sequence":
        return random_abelian_sequence(spec.seed,
                                       period=spec.param("period", 2))
    raise ValueError(f"unknown family code {code!r}")
