"""Empirical suites for the structural facts the checkers are supposed to
respect: composition closure, equivalence invariance, implications between
the properties, functor preservation, and transfer along dominations.

Every suite runs over at least 100 seeded instances.  Assertions are stated
in the horizon-sound direction: a certified positive on the hypothesis side
must yield a positive on the conclusion side.  Refutations at a horizon are
not treated as disproofs of an implication, because a deeper horizon could
still reveal a witness.

Each suite runs at most once per process: acceptance criterion 3 runs every
suite in ``THEOREMS``, and pytest's own call of a suite replays the outcome
of that run (or runs it, if criterion 3 has not).
"""

import functools
import random

from promov import categories as cat
from promov.checkers import (
    HOLDS,
    Horizon,
    PROPERTIES,
    check,
    co_movable_morphism,
    mittag_leffler,
    movable_morphism,
    movable_system,
    strongly_movable_system,
    uniformly_movable_system,
)
from promov.families import (
    apply_forgetful,
    bounded_phi_morphism,
    cofinal_decreasing_phi_instance,
    domination_pair,
    example_2_27,
    finite_instance_corpus,
    perturb_equivalent,
    random_abelian_sequence,
    random_sequence_morphism,
    random_set_sequence,
    retraction_with_section,
)
from promov.oracle import oracle_check
from promov.systems import (
    SystemMorphism,
    compose_morphisms,
    identity_morphism,
)

H = Horizon()
# Wide enough that perturbed index functions, and the deeper verification
# ranges above them, stay inside the probe box for both representatives.
H_EQ = Horizon(mu_max=6, lambda_max=20, muprime_max=19, cone_max=19)

MORPHISM_PROPS = (
    "movable",
    "strongly_movable",
    "uniformly_movable",
    "co_movable",
    "strongly_co_movable",
    "uniformly_co_movable",
)

THEOREMS = []  # every suite in this file, in file order
_OUTCOMES = {}  # suite name -> the exception its one run raised, or None


def theorem(suite):
    """Register the suite, and run it at most once per process; a later
    call raises the first run's exception again, or passes."""
    @functools.wraps(suite)
    def run():
        name = suite.__name__
        if name not in _OUTCOMES:
            try:
                suite()
            except Exception as exc:
                _OUTCOMES[name] = exc
                raise
            _OUTCOMES[name] = None
        elif _OUTCOMES[name] is not None:
            raise _OUTCOMES[name]

    THEOREMS.append(run)
    return run


def _endomorphism_pair(seed):
    """A composable pair of self-morphisms of one random sequence."""
    rng = random.Random(seed)
    backend = "abelian" if seed % 2 else "pointed_set"
    x = (random_abelian_sequence(rng.randrange(1 << 30))
         if backend == "abelian"
         else random_set_sequence(rng.randrange(1 << 30)))
    out = [identity_morphism(x)]
    s = rng.randrange(1, 3)
    out.append(SystemMorphism(x, x, lambda n, s=s: n + s,
                              lambda n, s=s: x.bond(n, n + s), name="bond"))
    if backend == "abelian":
        c = rng.randrange(0, 4)
        out.append(SystemMorphism(
            x, x, lambda n: n,
            lambda n, c=c: cat.abelian_scalar(x.object_at(n), c), name="sc"))
    else:
        out.append(SystemMorphism(
            x, x, lambda n: n,
            lambda n: cat.zero(x.object_at(n), x.object_at(n)),
            name="const"))
    return out[rng.randrange(len(out))], out[rng.randrange(len(out))]


@theorem
def test_composition_closure():
    # a certified factor makes the composite positive, for every flavor
    violations = []
    for seed in range(100):
        f, g = _endomorphism_pair(seed)
        comp = compose_morphisms(g, f)
        for prop in MORPHISM_PROPS:
            vf = check(prop, f, H)
            vg = check(prop, g, H)
            vc = check(prop, comp, H)
            if (vf.is_certified() or vg.is_certified()) and not vc.is_positive():
                violations.append((seed, prop, vf.status, vg.status, vc.status))
    assert violations == []


@theorem
def test_equivalence_invariance():
    corpus = finite_instance_corpus(3, 50)
    corpus += [random_sequence_morphism(s, "abelian" if s % 2 else "pointed_set")
               for s in range(50)]
    _, _, f227 = example_2_27()
    corpus.append(f227)
    mismatches = []
    for i, f in enumerate(corpus):
        fp = perturb_equivalent(f, 100 + i)
        for prop in PROPERTIES:
            v1 = check(prop, f, H_EQ)
            v2 = check(prop, fp, H_EQ)
            if v1.status != v2.status:
                mismatches.append((i, f.name, prop, v1.status, v2.status))
    assert mismatches == []


@theorem
def test_mittag_leffler_vs_movability_on_sets():
    # on pointed-set sequences ML implies movable, and co-movable tracks ML
    ml_violations = []
    co_mismatches = []
    for seed in range(100):
        m = random_sequence_morphism(seed, "pointed_set")
        ml = mittag_leffler(m, H)
        mv = movable_morphism(m, H)
        co = co_movable_morphism(m, H)
        if ml.is_certified() and not mv.is_positive():
            ml_violations.append((seed, ml.status, mv.status))
        if co.is_positive() != ml.is_positive():
            co_mismatches.append((seed, co.status, ml.status))
    assert ml_violations == []
    assert co_mismatches == []


@theorem
def test_uniform_implies_simple():
    violations = []
    for seed in range(100):
        m = random_sequence_morphism(seed, "abelian" if seed % 2 else "pointed_set")
        for strong, simple in (("uniformly_movable", "movable"),
                               ("uniformly_co_movable", "co_movable")):
            vu = check(strong, m, H)
            vs = check(simple, m, H)
            if vu.is_certified() and not vs.is_positive():
                violations.append((seed, strong, vu.status, vs.status))
    assert violations == []


@theorem
def test_forgetful_functor_preserves_positives():
    violations = []
    for i, m in enumerate(finite_instance_corpus(5, 50, backend="abelian")):
        um = apply_forgetful(m)
        for prop in PROPERTIES:
            va = check(prop, m, H)
            vs = check(prop, um, H)
            if va.is_positive() and not vs.is_positive():
                violations.append((i, prop, va.status, vs.status))
    for seed in range(50):
        m = random_sequence_morphism(seed, "abelian")
        um = apply_forgetful(m)
        for prop in PROPERTIES:
            va = check(prop, m, H)
            vs = check(prop, um, H)
            if va.is_certified() and not vs.is_positive():
                violations.append(("seq", seed, prop, va.status, vs.status))
    assert violations == []


@theorem
def test_system_level_matches_identity_morphism():
    systems = [m.source for m in finite_instance_corpus(7, 50)]
    systems += [random_set_sequence(s) for s in range(25)]
    systems += [random_abelian_sequence(s) for s in range(25)]
    for x in systems:
        ident = identity_morphism(x)
        for sys_check, prop in ((movable_system, "movable"),
                                (strongly_movable_system, "strongly_movable"),
                                (uniformly_movable_system, "uniformly_movable")):
            assert sys_check(x, H).status == check(prop, ident, H).status


@theorem
def test_domination_transfer():
    # when a retract diagram exists, positives transfer to the dominated side
    violations = []
    for seed in range(100):
        f, g = domination_pair(seed)
        ident_big = identity_morphism(f.target)
        ident_small = identity_morphism(f.source)
        for prop in MORPHISM_PROPS:
            vb = check(prop, ident_big, H)
            vs = check(prop, ident_small, H)
            if vb.is_certified() and not vs.is_positive():
                violations.append((seed, prop, vb.status, vs.status))
    assert violations == []


@theorem
def test_retraction_transfer():
    violations = []
    for seed in range(100):
        f, s = retraction_with_section(seed)
        for prop in MORPHISM_PROPS:
            vf = check(prop, f, H)
            comp = compose_morphisms(f, s)
            vc = check(prop, comp, H)
            if vf.is_certified() and not vc.is_positive():
                violations.append((seed, prop, vf.status, vc.status))
    assert violations == []


@theorem
def test_bounded_phi_gives_uniform():
    for seed in range(100):
        m = bounded_phi_morphism(seed)
        assert check("uniformly_movable", m, H).is_certified()


@theorem
def test_top_anchored_finite_instances_hold_exactly():
    # over a finite directed poset the greatest element supplies every witness
    for seed in range(100):
        m = cofinal_decreasing_phi_instance(seed)
        for prop in PROPERTIES:
            assert check(prop, m, H).status == HOLDS


@theorem
def test_oracle_admissible_indices_upward_closed():
    checked = 0
    for m in finite_instance_corpus(31, 100):
        v = oracle_check("movable", m)
        if v.status != HOLDS:
            continue
        poset = m.source.index
        for rec in v.witnesses:
            adm = set(rec.extra["admissible"])
            for lam in adm:
                assert set(poset.above(lam)) <= adm
                checked += 1
    assert checked > 0
