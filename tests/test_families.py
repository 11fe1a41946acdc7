"""Instance families: determinism and validity of the generated corpora."""

import random

import pytest

from promov import families
from promov.categories import Z, FgAbelianObject, PointedFiniteSet
from promov.families import (
    apply_forgetful,
    bounded_phi_morphism,
    build_family,
    cofinal_decreasing_phi_instance,
    constant_system,
    domination_pair,
    example_2_27,
    finite_instance_corpus,
    perturb_equivalent,
    random_abelian_sequence,
    random_finite_system,
    random_set_sequence,
    random_sequence_morphism,
    retraction_with_section,
    rudimentary,
)
from promov.checkers import Horizon, uniformly_movable_morphism
from promov.systems import (
    are_equivalent,
    compose_morphisms,
    identity_morphism,
    validate_morphism,
    validate_system,
)


def test_example_2_27_shape():
    F, G, f = example_2_27()
    assert G.object_at(3).factors == (8,)
    assert F.bond(1, 4).matrix.at(0, 0) == 8
    assert f.f(1).target.factors == (2,)
    assert G.all_bondings_epimorphic
    assert validate_system(F) == [] and validate_system(G) == []
    assert validate_morphism(f) == []


def test_finite_corpus_valid_and_deterministic():
    ms1 = finite_instance_corpus(12, 30)
    ms2 = finite_instance_corpus(12, 30)
    assert len(ms1) == 30
    for a, b in zip(ms1, ms2):
        assert a.name == b.name
        assert a.source.index == b.source.index
        for mu in a.target.index.members():
            assert a.phi(mu) == b.phi(mu)
            assert a.f(mu) == b.f(mu)
    for m in ms1:
        assert validate_system(m.source) == []
        assert validate_system(m.target) == []
        assert validate_morphism(m) == []


def test_sequence_corpora_valid():
    for seed in range(15):
        x = random_set_sequence(seed)
        assert validate_system(x) == []
        assert x.periodicity is not None
        y = random_abelian_sequence(seed)
        assert validate_system(y) == []
    for seed in range(15):
        m = random_sequence_morphism(seed, "abelian" if seed % 2 else "pointed_set")
        assert validate_morphism(m) == []


def test_sequence_determinism():
    a = random_set_sequence(9)
    b = random_set_sequence(9)
    for n in range(10):
        assert a.object_at(n) == b.object_at(n)
        assert a.bond(n, n + 1) == b.bond(n, n + 1)


def test_flags_are_computed_not_assumed():
    # a presentation's epimorphy must match its actual steps on every seed
    from promov.categories import is_epimorphism
    for seed in range(20):
        x = random_set_sequence(seed)
        actual = all(is_epimorphism(x.bond(n, n + 1)) for n in range(12))
        assert x.all_bondings_epimorphic == actual


def test_perturb_equivalent():
    F, G, f = example_2_27()
    for seed in (1, 2, 3):
        fp = perturb_equivalent(f, seed)
        assert validate_morphism(fp) == []
        assert are_equivalent(f, fp)
    m = finite_instance_corpus(4, 1)[0]
    assert are_equivalent(m, perturb_equivalent(m, 8))


def test_bounded_phi_certifies_uniform():
    for seed in range(6):
        m = bounded_phi_morphism(seed)
        assert validate_morphism(m) == []
        assert uniformly_movable_morphism(m, Horizon()).is_certified()


def test_domination_pair():
    for seed in range(6):
        f, g = domination_pair(seed)
        assert validate_morphism(f) == [] and validate_morphism(g) == []
        assert are_equivalent(compose_morphisms(g, f),
                              identity_morphism(f.source))


def test_retraction_with_section():
    for seed in range(6):
        f, s = retraction_with_section(seed)
        assert are_equivalent(compose_morphisms(f, s),
                              identity_morphism(s.source))


def test_apply_forgetful_valid():
    for m in finite_instance_corpus(6, 6, backend="abelian"):
        um = apply_forgetful(m)
        assert validate_morphism(um) == []
    m = random_sequence_morphism(3, "abelian")
    um = apply_forgetful(m)
    assert validate_morphism(um) == []
    # a presentation's image is presented, with the same periodicity and
    # epimorphy, read off its own steps
    assert um.source.periodicity == m.source.periodicity is not None
    assert um.source.all_bondings_epimorphic == m.source.all_bondings_epimorphic
    # a rule-built sequence's image is rule-built and keeps its declared
    # epimorphy
    _, G, _ = example_2_27()
    ug = apply_forgetful(identity_morphism(G))
    assert ug.source.periodicity is None and ug.source.all_bondings_epimorphic
    assert validate_morphism(ug) == []


def test_cofinal_instances_valid():
    for seed in range(6):
        m = cofinal_decreasing_phi_instance(seed)
        assert validate_morphism(m) == []
        top = m.source.index.greatest()
        # phi is constant at the greatest element: trivially non-increasing,
        # with image inside the cofinal subset {top}
        for mu in m.target.index.members():
            assert m.phi(mu) == top


def test_build_family_dispatch():
    triple = build_family("example_2_27")
    assert len(triple) == 3
    c = build_family("constant", {"modulus": 4})
    assert c.object_at(5) == FgAbelianObject((4,))
    params = {"period": 2, "seed": 9}
    s = build_family("set_sequence", params, seed=3)
    assert isinstance(s.object_at(0), PointedFiniteSet)
    assert params == {"period": 2, "seed": 9}  # read, never changed
    try:
        build_family("nope")
    except ValueError:
        pass
    else:
        raise AssertionError("unknown family must be rejected")


def test_each_composite_bond_is_composed_once(monkeypatch):
    composes = []
    real = families.compose
    monkeypatch.setattr(families, "compose",
                        lambda g, f: composes.append(1) or real(g, f))
    chain5 = next(s for s in families._POSET_SHAPES if s[0] == "chain5")
    x = random_finite_system(random.Random(4), "abelian", shape=chain5)
    assert len(composes) == 10  # one per pair lo < hi of a 5-chain
    assert validate_system(x) == []


def test_a_shape_with_two_upper_covers_is_refused():
    # composites are walked up one upper cover at a time, so a diamond, in
    # which a has two, is refused rather than built along one path
    diamond = ("diamond", ("a", "b", "c", "d"),
               (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")))
    with pytest.raises(ValueError, match="'a' has two upper covers"):
        random_finite_system(random.Random(0), "abelian", shape=diamond)


def test_rudimentary_and_constant_shapes():
    assert len(rudimentary(Z(2)).index.members()) == 1
    c = constant_system(Z(2))
    assert c.periodicity == (0, 1)
    assert validate_system(c) == []
