"""Decision procedures: statuses, witnesses, refutations, stabilization."""

import subprocess
import sys
from pathlib import Path

import pytest

import promov
from promov import checkers
from promov.categories import (
    Z,
    compose,
    is_zero_morphism,
    morphisms_equal,
    PointedFiniteSet,
)
from promov.checkers import (
    HOLDS,
    HOLDS_AT_HORIZON,
    HOLDS_STABILIZED,
    FAILS_AT_HORIZON,
    UNKNOWN,
    Horizon,
    HorizonError,
    PROPERTIES,
    c0_movable_system,
    c0_uniformly_movable_system,
    check,
    co_movable_morphism,
    mittag_leffler,
    movable_morphism,
    movable_system,
    strongly_movable_morphism,
    uniformly_co_movable_morphism,
    uniformly_movable_morphism,
    uniformly_movable_system,
)
from promov.families import (
    constant_poset_system,
    constant_system,
    domination_pair,
    example_2_27,
    rudimentary,
)
from promov.indexsets import NAT, FiniteDirectedPoset, IndexMap
from promov.systems import (
    SystemMorphism,
    identity_morphism,
    restrict,
)

H = Horizon()


def test_horizon_validation():
    with pytest.raises(ValueError):
        Horizon(mu_max=6, lambda_max=12, muprime_max=3, cone_max=13)
    with pytest.raises(ValueError):
        Horizon(mu_max=-1)


def test_movable_morphism_with_witness_verification():
    F, G, f = example_2_27()
    v = movable_morphism(f, H)
    assert v.status == HOLDS_STABILIZED
    # witness index is 2*mu with zero witnesses, and each one re-verifies
    for rec in v.witnesses:
        assert rec.index == 2 * rec.mu
        assert rec.rule == "zero-map"
        for mu2, u in rec.witnesses.items():
            assert is_zero_morphism(u)
            assert morphisms_equal(compose(G.bond(rec.mu, mu2), u),
                                   restrict(f, rec.mu, rec.index))


def test_movable_system_refutations():
    F, G, f = example_2_27()
    vF = movable_system(F, H)
    assert vF.status == FAILS_AT_HORIZON
    # first failure is one past the probed index
    assert vF.refutation.deeper == vF.refutation.index + 1
    vG = movable_system(G, H)
    assert vG.status == FAILS_AT_HORIZON


def test_mittag_leffler_statuses():
    F, G, f = example_2_27()
    assert mittag_leffler(identity_morphism(G), H).status == HOLDS_STABILIZED
    v = mittag_leffler(identity_morphism(F), H)
    assert v.status == UNKNOWN
    assert any("strictly decreasing" in n for n in v.notes)
    assert mittag_leffler(f, H).status == HOLDS_STABILIZED


def test_strong_movability_horizon_dependence():
    F, G, f = example_2_27()
    # the deeper two-sided witness needs indices past the default horizon
    assert strongly_movable_morphism(f, H).status == UNKNOWN
    wide = Horizon(mu_max=6, lambda_max=30, muprime_max=13, cone_max=13)
    assert strongly_movable_morphism(f, wide).status == HOLDS_STABILIZED
    # strong fails where simple already fails
    assert strongly_movable_morphism(
        identity_morphism(F), H).status == FAILS_AT_HORIZON


def test_uniform_movability():
    F, G, f = example_2_27()
    assert uniformly_movable_morphism(f, H).status == HOLDS_STABILIZED
    assert uniformly_movable_morphism(
        identity_morphism(F), H).status == FAILS_AT_HORIZON


def test_co_movability():
    F, G, f = example_2_27()
    assert co_movable_morphism(f, H).status == HOLDS_STABILIZED
    assert uniformly_co_movable_morphism(f, H).status == HOLDS_STABILIZED


def test_finite_posets_are_exact():
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b", "c")), Z(4))
    for prop in PROPERTIES:
        v = check(prop, identity_morphism(x), H)
        assert v.status == HOLDS
        assert v.horizon is H  # recorded but not load-bearing


def test_rudimentary_always_movable():
    r = rudimentary(Z(6))
    # any morphism out of a single-index system is movable
    c = constant_poset_system(r.index, Z(6))
    for prop in PROPERTIES:
        assert check(prop, identity_morphism(r), H).status == HOLDS


def test_constant_sequence_certifies_everything():
    c = constant_system(Z(2))
    for prop in PROPERTIES:
        v = check(prop, identity_morphism(c), H)
        assert v.status == HOLDS_STABILIZED, (prop, v.status)


def test_eventual_periodicity_rule_requires_flag():
    # same constant system without flags cannot certify the tail
    from promov.systems import InverseSystem
    from promov.categories import identity as cat_identity
    bare = InverseSystem(NAT, object_rule=lambda n: Z(2),
                         step_rule=lambda n: cat_identity(Z(2)))
    v = movable_morphism(identity_morphism(bare), H)
    assert v.status == HOLDS_AT_HORIZON


def test_non_exact_verdicts_carry_disclaimer():
    F, G, f = example_2_27()
    for v in (movable_morphism(f, H), movable_system(F, H),
              mittag_leffler(identity_morphism(F), H)):
        assert any("horizon-bounded" in n for n in v.notes)
        assert v.horizon is not None


def test_horizon_too_small_for_phi():
    F, G, f = example_2_27()
    squeezed = SystemMorphism(F, G, IndexMap(NAT, NAT, rule=lambda n: 3 * n),
                              lambda n: compose(f.f(n), F.bond(n, 3 * n)))
    with pytest.raises(HorizonError):
        movable_morphism(squeezed, Horizon(6, 12, 13, 13))


def test_c0_checks():
    F, G, f = example_2_27()
    # empty probe class holds vacuously, with the sequence disclaimer
    for c0_check in (c0_movable_system, c0_uniformly_movable_system):
        v = c0_check(G, [], H)
        assert v.status == HOLDS_STABILIZED
        assert v.notes == ["vacuous: empty probe class", checkers.HORIZON_DISCLAIMER]
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b")), Z(4))
    assert c0_movable_system(x, [], H).status == HOLDS
    # small probes against the dyadic tower
    v = c0_movable_system(G, [Z(2)], H)
    assert v.status == HOLDS_AT_HORIZON
    assert c0_uniformly_movable_system(G, [Z(2)], H).status == HOLDS_AT_HORIZON
    # finite posets are exact
    assert c0_movable_system(x, [Z(2)], H).status == HOLDS
    assert c0_uniformly_movable_system(x, [Z(2)], H).status == HOLDS
    # a movable constant sequence stays relatively movable
    c = constant_system(PointedFiniteSet(3))
    assert c0_movable_system(c, [PointedFiniteSet(2)], H).is_positive()


@pytest.mark.parametrize("system_check, c0_check, box", [
    (movable_system, c0_movable_system, Horizon(lambda_max=4)),
    (uniformly_movable_system, c0_uniformly_movable_system, Horizon(cone_max=3)),
])
def test_c0_box_too_small_is_refused(system_check, c0_check, box):
    # a probe or cone top below mu is refused as by the plain system checks
    G = example_2_27()[1]
    with pytest.raises(HorizonError):
        system_check(G, box)
    with pytest.raises(HorizonError):
        c0_check(G, [Z(2)], box)


def test_unknown_property_rejected():
    F, G, f = example_2_27()
    with pytest.raises(ValueError):
        check("flying", f, H)


def test_one_check_solves_each_distinct_problem_once(monkeypatch):
    problems = []
    solve = checkers.solve_factorization

    def counting(p):
        problems.append(p)
        return solve(p)

    monkeypatch.setattr(checkers, "solve_factorization", counting)
    f = domination_pair(3)[0]
    v = check("strongly_movable", f, H)
    assert v.status == HOLDS_STABILIZED
    assert problems and len(problems) == len(set(problems))
    # the memo dies with its check: a second check solves them all again
    first = len(problems)
    check("strongly_movable", f, H)
    assert len(problems) == 2 * first


@pytest.mark.parametrize("prop", ["uniformly_movable", "uniformly_co_movable"])
def test_cone_depth_below_mu_is_refused(prop):
    # every mu of example 2.27 has a zero-map witness; a cone top below mu
    # (or below phi(mu)) must still be refused, not certified as a cone leg
    F, G, f = example_2_27()
    with pytest.raises(HorizonError):
        check(prop, f, Horizon(cone_max=3))


def test_zero_witness_check_survives_optimize_flag():
    # every zero-map witness is re-checked by a check that python -O cannot
    # strip; with the equality test broken, each zero-map path must raise
    code = (
        "from promov import checkers\n"
        "from promov.families import example_2_27\n"
        "assert False, 'asserts should be stripped under -O'\n"
        "checkers.morphisms_equal = lambda f, g: False\n"
        "f = example_2_27()[2]\n"
        "for prop in ('movable', 'strongly_movable', 'uniformly_movable',\n"
        "             'co_movable', 'uniformly_co_movable'):\n"
        "    try:\n"
        "        checkers.check(prop, f)\n"
        "    except AssertionError:\n"
        "        continue\n"
        "    raise SystemExit(f'{prop} returned a verdict')\n"
    )
    src = str(Path(promov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={"PYTHONPATH": src}, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
