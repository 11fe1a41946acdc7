"""mittag_leffler against a literal reference that reads the whole chain.

The checker reads the descending image chain f_{mu lambda}(X_lambda) by the
ends of a stretch and computes each image on demand.  The reference below
computes every image of the chain and tests each rule with its own scan, so
the two share only restrict and image_subobject.  Its eventual-periodicity
scan runs only on a presentation of finite objects, written out here too.
"""

from __future__ import annotations

from promov import categories as cat
from promov import checkers
from promov.categories import (
    FgAbelianMorphism,
    FgAbelianObject,
    Z,
    abelian_scalar,
    image_subobject,
    zero,
)
from promov.checkers import (
    HOLDS,
    HOLDS_AT_HORIZON,
    HOLDS_STABILIZED,
    UNKNOWN,
    Horizon,
    mittag_leffler,
)
from promov.families import (
    build_family,
    example_2_27,
    finite_instance_corpus,
    random_sequence_morphism,
)
from promov.indexsets import NAT, is_finite_index
from promov.intlinalg import IntMatrix
from promov.systems import InverseSystem, SystemMorphism, identity_morphism, restrict

BOXES = (Horizon(), Horizon(6, 20, 13, 13), Horizon(10, 30, 31, 31))


def _finite_presentation(x) -> bool:
    # a presentation none of whose objects has a Z summand
    p = x.periodicity
    return p is not None and all(
        0 not in getattr(x.object_at(n), "factors", ()) for n in range(sum(p)))


def reference_decide(f, h, mu):
    """(status, index, rule, extra) of one mu, every image of the chain
    computed and each rule tested by its own scan."""
    x, y = f.source, f.target
    chain = [(lam, image_subobject(restrict(f, mu, lam)))
             for lam in x.index.above(f.phi(mu), limit=h.lambda_max)]
    if is_finite_index(x.index):
        # the first lam whose image equals every deeper one
        lam, img = next((lam, img) for lam, img in chain if all(
            img == i for l2, i in chain if x.index.leq(lam, l2)))
        return HOLDS_AT_HORIZON, lam, None, {"image": img}
    trivial = image_subobject(zero(y.object_at(mu), y.object_at(mu)))
    for lam, img in chain:
        if img == trivial:
            return HOLDS_STABILIZED, lam, "zero-image", {"image": img}
    lam, img = chain[0]
    if x.all_bondings_epimorphic and all(img == i for _, i in chain):
        return HOLDS_STABILIZED, lam, "epimorphic-bondings", {"image": img}
    if _finite_presentation(x):
        off, per = x.periodicity
        for lam, img in chain:
            if off <= lam and lam + per <= chain[-1][0] and all(
                    img == i for l2, i in chain if lam <= l2 <= lam + per):
                return HOLDS_STABILIZED, lam, "eventual-periodicity", {"image": img}
    if len(chain) >= 2 and chain[-2][1] == chain[-1][1]:
        return HOLDS_AT_HORIZON, chain[-1][0], None, {"image": chain[-1][1]}
    return UNKNOWN, None, None, {"chain": tuple(img for _, img in chain)}


def _fired(f, status, rule):
    """The name of the rule behind one mu's outcome."""
    if is_finite_index(f.source.index):
        return "finite"
    return rule or {HOLDS_AT_HORIZON: "horizon", UNKNOWN: "unknown"}[status]


def _unflagged_z6():
    # Z/6 with x2 steps and no flags: the chain is <2> from the first step
    # on, and only the last two in-range images decide
    z6 = Z(6)
    return InverseSystem(NAT, object_rule=lambda n: z6,
                         step_rule=lambda n: abelian_scalar(z6, 2))


def _sequence_corpus():
    F, G, f = example_2_27()
    yield from (f, identity_morphism(F), identity_morphism(G))
    for backend in ("abelian", "pointed_set"):
        for seed in range(64):
            yield random_sequence_morphism(seed, backend)
    for family in ("abelian_sequence", "set_sequence"):
        for seed in range(32):
            yield identity_morphism(build_family(family, seed=seed))
    # every random sequence and ladder family is a presentation of finite
    # objects, and example 2.27 is decided by the other rules, so only a
    # rule-built system reaches the horizon rule
    yield identity_morphism(_unflagged_z6())
    # a presentation of Z^2 whose image chain repeats its first period and
    # never stabilizes: Z, Z, 2Z, 4Z, ...
    z2 = FgAbelianObject((0, 0))
    c = FgAbelianMorphism(z2, z2, IntMatrix.from_rows([[2, 0], [1, 0]]))
    yield SystemMorphism(InverseSystem.periodic([z2], [c], 0), example_2_27()[0],
                         lambda n: n,
                         lambda n: FgAbelianMorphism(z2, Z(0), IntMatrix.from_rows([[0, 1]])))


def test_mittag_leffler_matches_the_full_chain_scan():
    # example 2.27's three morphisms, 64 random sequence morphisms per
    # backend, 32 seeds of each ladder family and 120 finite instances
    cases = [(f, h) for f in _sequence_corpus() for h in BOXES]
    cases += [(f, Horizon()) for f in finite_instance_corpus(0, 120)]
    fired = set()
    for f, h in cases:
        v = mittag_leffler(f, h)
        mus = list(f.target.index.above(limit=h.mu_max))
        expected = [reference_decide(f, h, mu) for mu in mus]
        assert [(r.mu, r.index, r.rule, r.extra) for r in v.witnesses] == [
            (mu, index, rule, extra)
            for mu, (_, index, rule, extra) in zip(mus, expected)]
        if is_finite_index(f.source.index):
            assert (v.status, v.notes) == (HOLDS, [])
        else:
            statuses = {status for status, _, _, _ in expected}
            assert v.status == next(s for s in (UNKNOWN, HOLDS_AT_HORIZON,
                                                HOLDS_STABILIZED) if s in statuses)
            assert v.notes == [
                f"mu={mu}: image chain still strictly decreasing at the "
                f"horizon: {list(extra['chain'])}"
                for mu, (status, _, _, extra) in zip(mus, expected)
                if status == UNKNOWN] + [checkers.HORIZON_DISCLAIMER]
        fired |= {_fired(f, status, rule) for status, _, rule, _ in expected}
    assert fired == {"finite", "zero-image", "epimorphic-bondings",
                     "eventual-periodicity", "horizon", "unknown"}


def test_mittag_leffler_computes_two_images_per_mu(monkeypatch):
    # G has epimorphic bondings: mu = 0 is trivial (one image, zero-image),
    # every other mu compares its first image with its last
    calls = []
    real = cat.image_subobject

    def counted(g):
        calls.append(g)
        return real(g)

    monkeypatch.setattr(cat, "image_subobject", counted)
    h = Horizon(14, 52, 53, 53)
    v = mittag_leffler(identity_morphism(example_2_27()[1]), h)
    assert v.status == HOLDS_STABILIZED
    assert [r.rule for r in v.witnesses] == (
        ["zero-image"] + ["epimorphic-bondings"] * h.mu_max)
    assert len(calls) == 1 + 2 * h.mu_max == 29
