"""Decision procedures: statuses, witnesses, refutations, stabilization."""

import subprocess
import sys
from pathlib import Path

import pytest

import promov
from promov import categories, checkers
from promov.categories import (
    Z,
    abelian_scalar,
    compose,
    identity,
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
    Refutation,
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
    finite_instance_corpus,
    rudimentary,
)
from promov.indexsets import NAT, FiniteDirectedPoset
from promov.oracle import oracle_check
from promov.systems import (
    InverseSystem,
    SystemMorphism,
    identity_morphism,
    restrict,
    validate_system,
    violations,
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


@pytest.mark.parametrize("prop", ["movable", "uniformly_movable", "co_movable",
                                  "uniformly_co_movable"])
def test_a_zero_map_rule_builds_one_witness_per_target_object(monkeypatch, prop):
    # example 2.27's f is zero from lambda = 2 mu on, and these four searches
    # certify it by the zero-map rule at every mu; per mu, keys whose
    # objects are equal (F's Z, on the co side) share one zero witness
    F, G, f = example_2_27()
    per_mu = {}  # mu -> (source, target) of each cat.zero call at that mu
    real_stage, real_zero = checkers._zero_stage, categories.zero

    def stage(g, mu, h):
        per_mu[mu] = []
        return real_stage(g, mu, h)

    def recording_zero(source, target):
        list(per_mu.values())[-1].append((source, target))
        return real_zero(source, target)

    monkeypatch.setattr(checkers, "_zero_stage", stage)
    monkeypatch.setattr(categories, "zero", recording_zero)
    v = check(prop, f, H)
    assert v.status == HOLDS_STABILIZED
    assert [rec.mu for rec in v.witnesses] == list(per_mu)
    side = F if "co_" in prop else G
    for rec in v.witnesses:
        assert rec.rule == "zero-map" and rec.index == 2 * rec.mu
        # one call per distinct (source, target); the witnesses are the zero
        # maps each key asked for, by value, and keys with equal objects
        # hold the very same one
        assert per_mu[rec.mu] == list(dict.fromkeys(
            (F.object_at(rec.index), side.object_at(k)) for k in rec.witnesses))
        by_target = {}
        for k, u in rec.witnesses.items():
            assert u == real_zero(F.object_at(rec.index), side.object_at(k))
            assert by_target.setdefault(u.target, u) is u
    if prop == "co_movable":
        # every key of a co search lands in Z: one zero map per mu
        assert all(len(per_mu[rec.mu]) == 1 < len(rec.witnesses) for rec in v.witnesses)


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


def test_mittag_leffler_holds_at_horizon_on_an_unflagged_sequence():
    # Z/6 at every index with x2 steps: the image chain is <2> from the first
    # step on, but with no flag and no trivial image no rule certifies the
    # tail, so the last two in-range images decide
    z6 = Z(6)
    x = InverseSystem(NAT, object_rule=lambda n: z6,
                      step_rule=lambda n: abelian_scalar(z6, 2))
    f = identity_morphism(x)
    for prop in PROPERTIES:
        assert check(prop, f, H).status == HOLDS_AT_HORIZON, prop
    v = mittag_leffler(f, H)
    assert [(r.mu, r.index, r.rule) for r in v.witnesses] == [
        (mu, H.lambda_max, None) for mu in range(H.mu_max + 1)]
    assert v.refutation is None and v.notes == [checkers.HORIZON_DISCLAIMER]


def test_non_exact_verdicts_carry_disclaimer():
    F, G, f = example_2_27()
    for v in (movable_morphism(f, H), movable_system(F, H),
              mittag_leffler(identity_morphism(F), H)):
        assert any("horizon-bounded" in n for n in v.notes)
        assert v.horizon is not None


@pytest.mark.parametrize("prop", PROPERTIES)
def test_horizon_too_small_for_phi(prop):
    # phi(5) = 15 > lambda_max = 12: no probe lambda >= phi(mu) is in the box
    F, G, f = example_2_27()
    squeezed = SystemMorphism(F, G, lambda n: 3 * n,
                              lambda n: compose(f.f(n), F.bond(n, 3 * n)))
    with pytest.raises(HorizonError, match=r"phi\(5\) = 15 exceeds lambda_max = 12"):
        check(prop, squeezed, Horizon(6, 12, 13, 13))


def test_c0_check_with_no_probes_refuses_mu_above_lambda_max():
    # the box is refused before an empty probe class makes the check vacuous
    with pytest.raises(HorizonError, match=r"phi\(4\) = 4 exceeds lambda_max = 3"):
        c0_movable_system(constant_system(Z(4)), [], Horizon(6, 3, 13, 13))


@pytest.mark.parametrize("prop", ["co_movable", "strongly_co_movable"])
def test_co_search_refuses_an_empty_key_range(prop):
    # phi(mu) = mu + 3 lies past muprime_max = 6 for mu = 4, 5, 6: no deeper
    # key is in the box, so no witness is checked there and the search must
    # not certify that mu
    x = constant_system(Z(4))
    f = SystemMorphism(x, x, lambda n: n + 3,
                       lambda n: x.bond(n, n + 3))
    with pytest.raises(HorizonError, match=r"muprime_max = 6 is below phi\(mu\) = 7"):
        check(prop, f, Horizon(6, 12, 6, 13))
    assert check(prop, f, Horizon(6, 12, 9, 13)).is_positive()


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
    # at mu = 5 the probe 1 -> 16 : Z/256 -> G_12 survives in G_5 = Z/32,
    # but every map Z/256 -> G_13 lands in 32 Z/2^13, which q_{5,13} kills
    v = c0_movable_system(G, [Z(256)], H)
    assert v.status == FAILS_AT_HORIZON
    assert v.refutation == Refutation(5, 12, 13, "no relative movability witness")
    v = c0_uniformly_movable_system(G, [Z(256)], H)
    assert v.status == FAILS_AT_HORIZON
    assert v.refutation == Refutation(5, 12, 13, "no relative cone top-leg")


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


def test_a_system_is_validated_once_across_its_checks(monkeypatch):
    # the system checks share the identity morphism kept on the system, and
    # with it its violations list: validate_system and validate_morphism
    # each run once
    calls = []

    def counting(validate):
        def counted(v, *args):
            calls.append((validate.__name__, v))
            return validate(v, *args)
        return counted

    for name in ("validate_system", "validate_morphism"):
        monkeypatch.setattr(promov.systems, name,
                            counting(getattr(promov.systems, name)))
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b", "c")), Z(4))
    for system_check in (movable_system, checkers.strongly_movable_system,
                         uniformly_movable_system):
        assert system_check(x, H).status == HOLDS
    assert c0_movable_system(x, [Z(2)], H).status == HOLDS
    assert calls == [("validate_system", x),
                     ("validate_morphism", x.identity_morphism)]


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


def _recording_compose(monkeypatch) -> list:
    """(g, f, memo live) of every pair compose computes rather than looks
    up, in call order."""
    made = []
    real = categories._compose

    def recording(g, f):
        made.append((g, f, categories._memo.get() is not None))
        return real(g, f)

    monkeypatch.setattr(categories, "_compose", recording)
    return made


def test_one_sequence_check_composes_each_distinct_pair_once(monkeypatch):
    f = domination_pair(3)[0]
    made = _recording_compose(monkeypatch)
    # every compose call, at each of its binding sites: a pair equal by value
    # to an earlier one must get back the very morphism composed for it
    answers, calls = {}, []
    real = categories.compose

    def spy(a, b):
        h = real(a, b)
        assert answers.setdefault((a, b), h) is h
        calls.append((a, b))
        return h

    for module in (categories, checkers, promov.systems):
        monkeypatch.setattr(module, "compose", spy)
    assert check("strongly_movable", f, H).status == HOLDS_STABILIZED
    pairs = [(g, h) for g, h, _ in made]
    assert all(live for *_, live in made)
    assert pairs and len(pairs) == len(set(pairs)) == len(answers) < len(calls)
    # the memo dies with its check: a second check composes again, with the
    # restrictions and bonds it reads already kept on f
    del made[:]
    answers.clear()
    check("strongly_movable", f, H)
    again = [(g, h) for g, h, _ in made]
    assert again and len(again) == len(set(again)) and set(again) <= set(pairs)


def test_the_compose_memo_dies_with_a_check_that_raises(monkeypatch):
    made = _recording_compose(monkeypatch)
    f = example_2_27()[2]
    runs = []
    for _ in range(2):
        del made[:]
        # mu = 0..3 compose their zero witnesses before mu = 4 is refused
        with pytest.raises(HorizonError):
            check("uniformly_movable", f, Horizon(cone_max=3))
        assert categories._memo.get() is None
        runs.append({(g, h) for g, h, _ in made})
    assert runs[1] and runs[1] <= runs[0]


def test_finite_checks_and_the_oracle_keep_no_compose_memo(monkeypatch):
    made = _recording_compose(monkeypatch)
    f = finite_instance_corpus(0, 1)[0]
    for prop in PROPERTIES:
        assert check(prop, f, H).status == HOLDS
        oracle_check(prop, f)
    pairs = [(g, h) for g, h, _ in made]
    # every call is computed, repeats included, with no memo live
    assert len(pairs) > len(set(pairs))
    assert not any(live for *_, live in made)


def _recording_solver(monkeypatch) -> list:
    """(problem, solution) of every solver call, in call order."""
    solved = []
    solve = checkers.solve_factorization

    def recording(p):
        u = solve(p)
        solved.append((p, u))
        return u

    monkeypatch.setattr(checkers, "solve_factorization", recording)
    return solved


def test_strong_search_takes_the_right_side_as_its_witness(monkeypatch):
    solved = _recording_solver(monkeypatch)
    # lambda = 13 is the top of the box and every key k <= 13 admits
    # lambda* = lambda, where the lambda* equation reads w = R_k: the witness
    # is R_k itself, checked by one compose, and nothing is solved
    f = domination_pair(3)[0]
    box = Horizon(lambda_max=13)
    for prop, right in (("strongly_movable", lambda k: restrict(f, k, 13)),
                        ("strongly_co_movable", lambda k: f.source.bond(k, 13))):
        v = check(prop, f, box)
        assert v.status == HOLDS_STABILIZED and v.witnesses
        for rec in v.witnesses:
            assert rec.index == 13 and rec.witnesses
            for k, u in rec.witnesses.items():
                assert u == right(k) and rec.extra[k] == {"lambda_star": 13}
    assert solved == []

    # example 2.27 at the default box: f is coherent only up to deeper
    # indices, so R_k fails its compose at some keys; a one-sided problem
    # (target G_k, L = q_{mu k}) is solved only there, or where no lambda*
    # lies in range (k = 13)
    F, G, f = example_2_27()
    v = check("strongly_movable", f, H)
    assert v.status == UNKNOWN
    one_sided = {(p.target, p.L) for p, _ in solved}
    witnessed = set()
    for rec in v.witnesses:
        for k, u in rec.witnesses.items():
            assert u == restrict(f, k, 12) and rec.extra[k] == {"lambda_star": 12}
            witnessed.add((G.object_at(k), G.bond(rec.mu, k)))
    assert witnessed and not one_sided & witnessed
    targets = {t for t, _ in one_sided}
    # the one-sided question is asked only at the deepest key, once per mu
    assert targets == {G.object_at(13)} and len(solved) <= H.mu_max + 1


def test_a_refuted_mu_costs_at_most_two_solves(monkeypatch):
    # F fails movability at every mu, at the deepest key 53: the search asks
    # 53, then 52 to name the refuting key, where a per-key loop would solve
    # every key from mu to 53
    solved = _recording_solver(monkeypatch)
    F = example_2_27()[0]
    h = Horizon(14, 52, 53, 53)
    v = movable_system(F, h)
    assert v.status == FAILS_AT_HORIZON
    assert v.refutation == Refutation(
        0, 52, 53, "no factorization through the deeper bond")
    assert len(solved) <= 2 * (h.mu_max + 1)


def test_c0_search_asks_only_the_deepest_key_when_it_solves(monkeypatch):
    # every probe Z/2 -> G_12 has a witness at the deepest key 13, so no
    # other key is asked: one problem per mu and probe
    solved = _recording_solver(monkeypatch)
    G = example_2_27()[1]
    assert c0_movable_system(G, [Z(2)], H).status == HOLDS_AT_HORIZON
    assert {p.L.source for p, _ in solved} == {G.object_at(13)}
    assert len(solved) <= (H.mu_max + 1) * 2
    # a refuted mu still names the first key with an unsolvable probe
    v = c0_movable_system(G, [Z(256)], H)
    assert v.refutation == Refutation(5, 12, 13, "no relative movability witness")


@pytest.mark.parametrize("prop", ["strongly_movable", "strongly_co_movable"])
def test_strong_search_refuses_a_diagonal_bond_that_is_not_the_identity(prop):
    # the Z/4 2-chain with p_bb = x3 breaks the identity axiom; the strong
    # witness R_k rests on p_{lambda lambda} = 1, so the check is refused
    # with every violation promov validate names, in its order
    z4 = Z(4)
    x = InverseSystem(FiniteDirectedPoset.chain(("a", "b")),
                      objects={"a": z4, "b": z4},
                      bonds={("a", "a"): identity(z4),
                             ("b", "b"): abelian_scalar(z4, 3),
                             ("a", "b"): identity(z4)})
    assert "bond p['b','b'] is not the identity" in validate_system(x)
    f = identity_morphism(x)
    assert violations(f) == [
        "bond p['b','b'] is not the identity",
        "functoriality violation at ('a','b','b')",
        "functoriality violation at ('b','b','b')",
        "coherence failure at ('a', 'b')"]
    with pytest.raises(ValueError) as err:
        check(prop, f)
    assert str(err.value) == "; ".join(violations(f))


def test_one_check_builds_only_the_problems_it_solves(monkeypatch):
    # the memo is keyed by the equation's sides (L, R): a
    # FactorizationProblem is built (and type-checked) only on a miss, for
    # the solver call it feeds
    built, solved = [], []
    problem, solve = checkers.FactorizationProblem, checkers.solve_factorization

    def building(*args):
        built.append(args)
        return problem(*args)

    def counting(p):
        solved.append(p)
        return solve(p)

    monkeypatch.setattr(checkers, "FactorizationProblem", building)
    monkeypatch.setattr(checkers, "solve_factorization", counting)
    v = check("strongly_movable", domination_pair(3)[0], H)
    assert v.status == HOLDS_STABILIZED
    assert solved and len(built) == len(solved)


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
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


# each self-check raises its own message when a fault is injected below it
SELF_CHECKS = {
    # the solver hands back the zero map, which does not solve 1 o u = 1
    "solver": (
        categories, "_solve_abelian", lambda p: categories.zero(p.source, p.target),
        lambda: categories.solve_factorization(categories.FactorizationProblem(
            identity(Z(4)), identity(Z(4)))),
        "solver returned a morphism that fails its equation"),
    # no factorization exists, so a valid finite input fails at its top
    "finite check": (
        checkers, "solve_factorization", lambda p: None,
        lambda: check("movable", constant_poset_system(
            FiniteDirectedPoset.chain(("a", "b")), Z(4)).identity_morphism),
        "movable is FailsAtHorizon on a valid finite input"),
    # the zero witness's equation is tested with a broken equality
    "zero witness": (
        checkers, "morphisms_equal", lambda f, g: False,
        lambda: check("movable", example_2_27()[2]),
        "zero witness fails at mu = 0, key 0"),
}


@pytest.mark.parametrize("case", list(SELF_CHECKS))
def test_self_checks_catch_an_injected_fault(monkeypatch, case):
    module, name, fault, call, message = SELF_CHECKS[case]
    monkeypatch.setattr(module, name, fault)
    with pytest.raises(AssertionError) as err:
        call()
    assert str(err.value) == message
