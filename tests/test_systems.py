"""Inverse systems, morphisms, composition, equivalence."""

import random
from functools import reduce

import pytest

from promov.categories import (
    BackendError,
    Z,
    abelian_scalar,
    compose,
    is_zero_morphism,
    morphisms_equal,
    identity,
    zero,
)
from promov import systems
from promov.families import (
    constant_poset_system,
    constant_system,
    example_2_27,
    random_abelian_sequence,
    random_sequence_morphism,
    random_set_sequence,
    rudimentary,
)
from promov.indexsets import NAT, FiniteDirectedPoset
from promov.systems import (
    InverseSystem,
    SystemFlags,
    SystemMorphism,
    are_equivalent,
    compose_morphisms,
    identity_morphism,
    restrict,
    validate_morphism,
    validate_system,
)


def test_example_systems_validate():
    F, G, f = example_2_27()
    assert validate_system(F) == []
    assert validate_system(G) == []
    assert validate_morphism(f) == []


def test_example_bond_composites():
    F, G, f = example_2_27()
    # p_{1,4} on the integer system is multiplication by 8
    assert F.bond(1, 4).matrix.at(0, 0) == 8
    assert G.object_at(3).factors == (8,)
    # f restricted from stage 1 to stage 2 is already the zero map
    assert is_zero_morphism(restrict(f, 1, 2))
    assert not is_zero_morphism(restrict(f, 2, 3))


def test_identity_bonds_required():
    p = FiniteDirectedPoset.chain(("a", "b"))
    bad = InverseSystem(p, objects={"a": Z(2), "b": Z(2)},
                        bonds={("a", "a"): abelian_scalar(Z(2), 0),
                               ("b", "b"): identity(Z(2)),
                               ("a", "b"): identity(Z(2))})
    assert any("identity" in v for v in validate_system(bad))


def test_functoriality_checked():
    p = FiniteDirectedPoset.chain(("a", "b", "c"))
    obj = {x: Z(0) for x in "abc"}
    bonds = {}
    for lo in "abc":
        for hi in "abc":
            if lo <= hi:
                bonds[(lo, hi)] = identity(Z(0))
    bonds[("a", "c")] = abelian_scalar(Z(0), 2)  # breaks p_ab o p_bc = p_ac
    bad = InverseSystem(p, objects=obj, bonds=bonds)
    assert any("functoriality" in v for v in validate_system(bad))


def test_flag_spot_checks():
    # a declared-epimorphic system whose steps are not epi is flagged
    x = InverseSystem(NAT, object_rule=lambda n: Z(4),
                      step_rule=lambda n: abelian_scalar(Z(4), 2),
                      flags=SystemFlags(all_bondings_epimorphic=True))
    assert any("not epi" in v for v in validate_system(x))
    # a declared-periodic system whose steps differ is flagged
    x = InverseSystem(NAT, object_rule=lambda n: Z(4),
                      step_rule=lambda n: abelian_scalar(Z(4), n % 3),
                      flags=SystemFlags(eventually_periodic=(0, 2)))
    assert any("periodic" in v for v in validate_system(x))
    # a declared-periodic system whose objects differ is flagged
    x = InverseSystem(NAT, object_rule=lambda n: Z(n + 1),
                      step_rule=lambda n: zero(Z(n + 2), Z(n + 1)),
                      flags=SystemFlags(eventually_periodic=(0, 1)))
    assert "declared periodic, but objects differ at 0 vs 1" in validate_system(x)


def test_a_malformed_periodicity_flag_is_refused():
    # (Z, x2) is not Mittag-Leffler, but a (0, 0) or negative-offset flag on
    # it let the eventual-periodicity rule certify it at every mu
    for flag in [(0, 0), (-1, 1), (3,), (0, 1, 2), ("0", "1"), (True, 1), [0, 1]]:
        with pytest.raises(ValueError, match="eventually_periodic must be"):
            SystemFlags(eventually_periodic=flag)
    assert SystemFlags(eventually_periodic=(2, 1)).eventually_periodic == (2, 1)


def test_step_with_wrong_endpoints_is_named():
    # the step bond is handed out as built, so validation sees its endpoints
    x = InverseSystem(NAT, object_rule=lambda n: Z(4),
                      step_rule=lambda n: abelian_scalar(Z(2), 1))
    out = validate_system(x, horizon=3)
    assert [v for v in out if "wrong endpoints" in v] == [
        f"step bond at {n} has wrong endpoints" for n in range(3)]


def test_coherence_validation():
    # a lone zero component on a constant system can never commute with the
    # identity bonds
    c = constant_system(Z(2))
    bad = SystemMorphism(
        c, c, lambda n: n,
        lambda n: identity(Z(2)) if n != 3 else abelian_scalar(Z(2), 0))
    assert any("coherence" in v for v in validate_morphism(bad))


def test_restrict_requires_comparable_index():
    F, G, f = example_2_27()
    with pytest.raises(ValueError):
        restrict(f, 5, 3)
    # a refused index is not cached: the second call is refused too
    with pytest.raises(ValueError):
        restrict(f, 5, 3)


def test_restrictions_are_cached_per_morphism(monkeypatch):
    F, G, f = example_2_27()
    F.bond(f.phi(2), 6)  # warm the bond cache, so only restrictions compose
    composed = []
    real = systems.compose
    monkeypatch.setattr(systems, "compose",
                        lambda g, h: composed.append((g, h)) or real(g, h))
    first = restrict(f, 2, 6)
    assert len(composed) == 1
    assert restrict(f, 2, 6) is first and len(composed) == 1
    # an equal morphism over the same systems keeps its own table
    twin = SystemMorphism(F, G, f.phi, f.f)
    second = restrict(twin, 2, 6)
    assert second is not first and len(composed) == 2
    assert morphisms_equal(second, first)
    assert restrict(f, 2, 6) is first


def test_composition_formula():
    F, G, f = example_2_27()
    ident = identity_morphism(G)
    h = compose_morphisms(ident, f)
    # chi = phi o psi; components g_nu o f_{psi(nu)}
    assert h.phi(4) == 4
    assert morphisms_equal(h.f(4), f.f(4))
    # composing bond restrictions adds the shifts
    shift1 = SystemMorphism(F, F, lambda n: n + 1,
                            lambda n: F.bond(n, n + 1))
    shift2 = SystemMorphism(F, F, lambda n: n + 2,
                            lambda n: F.bond(n, n + 2))
    comp = compose_morphisms(shift2, shift1)
    assert comp.phi(0) == 3
    assert comp.f(0).matrix.at(0, 0) == 8


def test_composition_endpoint_mismatch():
    F, G, f = example_2_27()
    with pytest.raises(BackendError):
        compose_morphisms(f, f)


def test_equivalence():
    F, G, f = example_2_27()
    assert are_equivalent(f, f)
    # pushing phi up along bonds stays equivalent
    pushed = SystemMorphism(
        F, G, lambda n: n + 2,
        lambda n: compose(f.f(n), F.bond(n, n + 2)))
    assert are_equivalent(f, pushed)
    # the zero morphism is not equivalent to the identity on a constant system
    c = constant_system(Z(2))
    zero = SystemMorphism(c, c, lambda n: n,
                          lambda n: abelian_scalar(Z(2), 0))
    assert not are_equivalent(identity_morphism(c), zero)


def test_rudimentary_and_constant():
    r = rudimentary(Z(2))
    assert len(r.index.members()) == 1
    assert validate_system(r) == []
    c = constant_poset_system(FiniteDirectedPoset.chain(("a", "b")), Z(2))
    assert validate_system(c) == []


def test_deep_sequence_bond_does_not_recurse():
    F, G, f = example_2_27()
    deep = G.bond(0, 1500)
    assert deep.source == G.object_at(1500) and deep.target == G.object_at(0)
    # the composite agrees with a one-step extension of the stage below it
    assert morphisms_equal(deep, compose(G.bond(0, 1499), G.bond(1499, 1500)))


def test_each_step_is_built_once():
    steps = []

    def step(n):
        steps.append(n)
        return abelian_scalar(Z(0), 2)

    x = InverseSystem(NAT, object_rule=lambda n: Z(0), step_rule=step)
    for lo in range(14):
        assert x.bond(lo, 13).matrix.at(0, 0) == 2 ** (13 - lo)
    assert sorted(steps) == list(range(13))


def test_identity_bonds_are_built_once():
    x = constant_system(Z(4))
    for n in range(4):
        assert x.bond(n, n) is x.bond(n, n)
        assert morphisms_equal(x.bond(n, n), identity(Z(4)))
    p = FiniteDirectedPoset.chain(("a", "b"))
    y = InverseSystem(p, objects={"a": Z(4), "b": Z(4)},
                      bonds={("a", "b"): identity(Z(4))})
    assert y.bond("a", "a") is y.bond("a", "a")


def test_each_component_is_built_once():
    F, G, f = example_2_27()
    calls = []

    def component(mu):
        calls.append(mu)
        return f.f(mu)

    g = SystemMorphism(F, G, f.phi, component)
    for mu in (0, 3, 3, 5, 0):
        assert g.f(mu) is g.f(mu)
        restrict(g, mu, mu + 2)
    assert calls == [0, 3, 5]


def test_diagonal_bond_from_a_table_is_returned_as_given():
    p = FiniteDirectedPoset.chain(("a", "b"))
    z4 = Z(4)
    times3 = abelian_scalar(z4, 3)
    wrong = InverseSystem(p, objects={"a": z4, "b": z4},
                          bonds={("a", "a"): times3, ("a", "b"): identity(z4)})
    assert wrong.bond("a", "a") is times3
    assert "bond p['a','a'] is not the identity" in validate_system(wrong)
    # without diagonal entries the table gives the identity
    right = InverseSystem(p, objects={"a": z4, "b": z4},
                          bonds={("a", "b"): identity(z4)})
    assert morphisms_equal(right.bond("a", "a"), identity(z4))
    assert validate_system(right) == []


def test_each_requested_composite_costs_one_compose(monkeypatch):
    composed = []
    real = systems.compose
    monkeypatch.setattr(systems, "compose",
                        lambda g, h: composed.append(g) or real(g, h))
    # every bond into 12, shallowest first: built down from 12 once
    F, G, f = example_2_27()
    for k in range(13):
        assert F.bond(k, 12).matrix.at(0, 0) == 2 ** (12 - k)
    assert len(composed) <= 12
    # the same with every step bond cached, as restrictions leave them
    F, G, f = example_2_27()
    for n in range(12):
        F.bond(n, n + 1)
    composed.clear()
    for k in range(13):
        assert F.bond(k, 12).matrix.at(0, 0) == 2 ** (12 - k)
    assert len(composed) <= 12
    # every restriction f_{mu lam} with mu <= 6: one compose each, from
    # f_{mu, lam-1}, plus one per step bond of F
    F, G, f = example_2_27()
    composed.clear()
    for mu in range(7):
        for lam in range(mu, 13):
            assert restrict(f, mu, lam).matrix.at(0, 0) == 2 ** (lam - mu) % 2 ** mu
    # F's objects are all Z, and f's components land in the finite G_mu
    step_composes = sum(g.target == Z(0) for g in composed)
    assert step_composes <= 12 and len(composed) - step_composes <= 70


def _left_fold(steps, x, lo, hi):
    """p_{lo,hi} = (...((1 o s_lo) o s_{lo+1}) ...) o s_{hi-1}."""
    return reduce(compose, (steps[n] for n in range(lo, hi)), identity(x.object_at(lo)))


@pytest.mark.parametrize("build", [
    lambda: example_2_27()[2],
    lambda: identity_morphism(random_abelian_sequence(3)),
    lambda: identity_morphism(random_set_sequence(5, period=3)),
    lambda: random_sequence_morphism(0),  # phi(n) = n + 2
    lambda: random_sequence_morphism(5, "pointed_set"),  # phi(n) = n + 3
], ids=["example_2_27", "abelian_sequence", "set_sequence",
        "shifted_abelian", "shifted_set"])
def test_request_order_never_changes_a_value(build):
    top = 12
    reference = build()
    steps = {x: [x.bond(n, n + 1) for n in range(top)]
             for x in (reference.source, reference.target)}
    pairs = [(a, b) for a in range(top + 1) for b in range(a, top + 1)]
    shuffled = pairs[:]
    random.Random(0).shuffle(shuffled)
    orders = [sorted(pairs), sorted(pairs, key=lambda p: (-p[0], p[1])),
              sorted(pairs, key=lambda p: (p[1], p[0])), shuffled]
    for order in orders:
        f = build()  # fresh systems, empty caches
        x, y = f.source, f.target
        assert f.name == reference.name
        for a, b in order:
            for z, ref in ((x, reference.source), (y, reference.target)):
                assert z.bond(a, b) == _left_fold(steps[ref], z, a, b)
            if f.phi(a) <= b:
                assert restrict(f, a, b) == compose(
                    f.f(a), _left_fold(steps[reference.source], x, f.phi(a), b))
