"""The witness search against a literal per-key reference.

checkers._search_mu decides refutation at the deepest key and, when that
key has no solution, finds the refuting key by stepping down from it.  The
reference below solves every key in key order until one fails, as the
search did before, and the two are compared mu by mu: status, the record
(index, rule, witnesses and extra, each in key order) and the refutation.
They share the helpers around the loop (_keys, _zero_stage, restrict), the
solver and the one eventual-periodicity rule, _finite_presentation of the
side's system, evaluated once per check.  The C0 search's refutation is
compared in the same way with a bottom-up scan of every key.
"""

from __future__ import annotations

import json
from functools import cache, partial

import pytest

from promov import categories as cat
from promov import checkers
from promov.categories import Z, compose, identity, morphisms_equal
from promov.checkers import (
    FAILS_AT_HORIZON,
    HOLDS_AT_HORIZON,
    HOLDS_STABILIZED,
    UNKNOWN,
    Horizon,
    HorizonError,
    Refutation,
    WitnessRecord,
)
from promov.cli import verdict_to_dict
from promov.families import (
    constant_system,
    example_2_27,
    finite_instance_corpus,
    random_sequence_morphism,
)
from promov.indexsets import is_finite_index
from promov.systems import SystemMorphism, restrict

_PLAIN, _STRONG, _UNIFORM = checkers._PLAIN, checkers._STRONG, checkers._UNIFORM

# (co, kind) of the six morphism searches; the three system checks are the
# target-side searches (co = False) run on a system's identity morphism
SEARCHES = [(co, kind) for co in (False, True)
            for kind in (_PLAIN, _STRONG, _UNIFORM)]

# at (6, 30, 13, 13) each key k of example 2.27's f has a zero restriction
# f_{k lambda*} in range (from lambda* = 2k on), and still the zero map is no
# rule of a strong search
BOXES = (Horizon(), Horizon(6, 12, 20, 20), Horizon(10, 30, 31, 31),
         Horizon(14, 52, 53, 53), Horizon(6, 30, 13, 13))


def reference_search_mu(f, h, co, kind, solve, stable, mu, finite):
    """(status, record) for one mu, every key solved in key order until one
    fails; stable is _finite_presentation of the side's system."""
    x, y = f.source, f.target
    z, low = (x, f.phi(mu)) if co else (y, mu)
    if co:
        left, right = partial(restrict, f, mu), x.bond
    else:
        left, right = partial(y.bond, mu), partial(restrict, f)

    def stars(lam, k):
        return x.index.above(lam, k if co else f.phi(k), limit=h.lambda_max)

    lam = x.top(h.lambda_max)
    keys, _, extra = checkers._keys(z, low, h, kind == _UNIFORM,
                                    "phi(mu)" if co else "mu")

    # the zero-map rule serves the plain and uniform kinds only
    zlam = None if finite or kind == _STRONG else checkers._zero_stage(f, mu, h)
    if zlam is not None:
        rec = WitnessRecord(mu, zlam, "zero-map", extra=dict(extra))
        f_zero = restrict(f, mu, zlam)
        for k in keys:
            u = cat.zero(x.object_at(zlam), z.object_at(k))
            assert morphisms_equal(compose(left(k), u), f_zero)
            rec.witnesses[k] = u
        return HOLDS_STABILIZED, rec

    flam = restrict(f, mu, lam)
    rec = WitnessRecord(mu, lam, None, extra=dict(extra))
    inconclusive = False
    for k in keys:
        u = None
        if kind == _STRONG:
            candidates = stars(lam, k)
            if candidates:
                u = right(k, lam)
                if morphisms_equal(compose(left(k), u), flam):
                    rec.extra[k] = {"lambda_star": lam}
                else:
                    u = None
        if u is None:
            u = solve(left(k), flam)
            if u is None:
                reason = (f"no {'co-' if co else ''}cone top-leg factorization"
                          if kind == _UNIFORM else
                          f"no factorization through the deeper "
                          f"{'restriction' if co else 'bond'}")
                return FAILS_AT_HORIZON, Refutation(mu, lam, k, reason)
            if kind == _STRONG:
                inconclusive |= bool(candidates)
                continue
        rec.witnesses[k] = u
    if inconclusive:
        return UNKNOWN, rec
    if stable:
        rec.rule = "eventual-periodicity"
        return HOLDS_STABILIZED, rec
    return HOLDS_AT_HORIZON, rec


def _outcome(search, f, h, co, kind, mu, finite):
    """What one mu's search gives, with the record's dicts in key order."""
    stable = checkers._finite_presentation(f.source if co else f.target)
    try:
        status, r = search(f, h, co, kind, cache(checkers._solve), stable, mu, finite)
    except HorizonError as e:
        return "HorizonError", str(e)
    if isinstance(r, Refutation):
        return status, (r.mu, r.index, r.deeper, r.reason)
    return status, (r.mu, r.index, r.rule, list(r.witnesses.items()),
                    list(r.extra.items()))


def _compare(f, h, fired):
    """Compare every search on f in box h, mu by mu; note in fired where each
    refutation fell relative to the deepest key."""
    checkers._admit(f, h)
    finite = is_finite_index(f.target.index)
    for co, kind in SEARCHES:
        z = f.source if co else f.target
        deep = z.top(h.cone_max if kind == _UNIFORM else h.muprime_max)
        for mu in f.target.index.above(limit=h.mu_max):
            with cat.value_memo():
                new = _outcome(checkers._search_mu, f, h, co, kind, mu, finite)
                ref = _outcome(reference_search_mu, f, h, co, kind, mu, finite)
            assert new == ref, (f.name, h, co, kind, mu)
            status, detail = new
            if status == FAILS_AT_HORIZON:
                k = detail[2]
                fired.add("at deep" if k == deep else "below deep")
            fired.add(status)


def test_example_2_27_matches_the_per_key_reference():
    # f, F (through 1_F) and G (through 1_G) at five boxes; (6, 12, 20, 20)
    # refutes F at k = 13, below deep - 1 = 19, so the step down from deep
    # passes several keys
    F, G, f = example_2_27()
    fired = set()
    for h in BOXES:
        for g in (f, F.identity_morphism, G.identity_morphism):
            _compare(g, h, fired)
    assert fired == {"at deep", "below deep", FAILS_AT_HORIZON, UNKNOWN,
                     HOLDS_AT_HORIZON, HOLDS_STABILIZED}


def test_a_strong_search_refuted_after_a_witness_matches_the_reference():
    # f_n = 1 : Z -> F_n from the constant tower Z into example 2.27's F,
    # with phi = 0.  It is not coherent (q_{mu k} o f_k = 2^{k - mu}), and
    # the checks accept it, as a sequence input is not validated.  Every key
    # has lambda* = lambda in range; R_k solves only k = mu, so the strong
    # search asks deep and steps down from it to k = mu + 1.  The source's Z
    # is infinite, so no co-search is certified by eventual periodicity
    F = example_2_27()[0]
    f = SystemMorphism(constant_system(Z(0)), F, lambda n: 0,
                       lambda n: identity(Z(0)), name="incoherent")
    fired = set()
    for h in BOXES[:2]:
        _compare(f, h, fired)
    assert "below deep" in fired and HOLDS_STABILIZED not in fired
    status, refutation = checkers._search_mu(
        f, Horizon(), False, _STRONG, cache(checkers._solve), False, 0, False)
    assert (status, refutation.deeper) == (FAILS_AT_HORIZON, 1)


@pytest.mark.parametrize("system_check, kind", [
    (checkers.movable_system, _PLAIN),
    (checkers.strongly_movable_system, _STRONG),
    (checkers.uniformly_movable_system, _UNIFORM),
])
def test_system_checks_match_the_per_key_reference(system_check, kind):
    # the whole verdict, through the structured document (which keeps every
    # dict in key order), against the reference run by the same driver
    F, G, _ = example_2_27()
    for h in BOXES:
        for x in (F, G):
            f = x.identity_morphism
            expected = checkers._check(
                system_check.__name__, f, h,
                partial(reference_search_mu, f, h, False, kind, cache(checkers._solve),
                        checkers._finite_presentation(x)))
            assert (json.dumps(verdict_to_dict(system_check(x, h)))
                    == json.dumps(verdict_to_dict(expected)))


@pytest.mark.parametrize("backend", ["abelian", "pointed_set"])
def test_random_sequence_morphisms_match_the_per_key_reference(backend):
    fired = set()
    for seed in range(32):
        _compare(random_sequence_morphism(seed, backend), Horizon(), fired)
    assert HOLDS_STABILIZED in fired


def test_finite_instances_match_the_per_key_reference():
    fired = set()
    for f in finite_instance_corpus(0, 60):
        _compare(f, Horizon(), fired)
    # the greatest element holds every valid finite input
    assert fired == {HOLDS_AT_HORIZON}


def reference_c0_refutation(x, c0_objects, h):
    """(mu, probe, key) at the first mu with a key that some probe
    hm : X0 -> X_probe has no witness at, that key found by a bottom-up scan
    of every deeper key; None when no mu has one."""
    probe = x.top(h.lambda_max)
    solve = cache(checkers._solve)
    for mu in x.index.above(limit=h.mu_max):
        for k in x.index.above(mu, limit=h.muprime_max):
            for x0 in c0_objects:
                for hm in cat.enumerate_homs(x0, x.object_at(probe)):
                    if solve(x.bond(mu, k), compose(x.bond(mu, probe), hm)) is None:
                        return mu, probe, k
    return None


def test_c0_refutation_matches_a_bottom_up_scan():
    # G against Z/256: at (6, 12, 20, 20) mu = 5 is refuted at k = 13, seven
    # keys below deep = 20; at (6, 8, 20, 20) mu = 1 at k = 9
    G = example_2_27()[1]
    for h, expected in ((Horizon(6, 12, 20, 20), (5, 12, 13)),
                        (Horizon(6, 8, 20, 20), (1, 8, 9))):
        r = checkers.c0_movable_system(G, [Z(256)], h).refutation
        assert (r.mu, r.index, r.deeper) == reference_c0_refutation(
            G, [Z(256)], h) == expected
