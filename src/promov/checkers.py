"""Decision procedures for the movability-type properties.

Each checker reduces its defining condition to factorization problems in the
backend category and gives each outer index mu a status: HoldsStabilized
(tail certified by a named stabilization rule), HoldsAtHorizon or
FailsAtHorizon (the outcome inside the horizon box), or Unknown; the verdict
is the worst, FailsAtHorizon < Unknown < HoldsAtHorizon < HoldsStabilized.
FailsAtHorizon proves that no witness exists inside the box: evidence, not a
theorem, of failure of the unbounded property, and reports say so.  A
morphism between index kinds is refused, and so is a sequence box with
lambda_max below some phi(mu), or a search with no key in its box.  Input
over a finite directed poset is refused unless valid; the box then holds
every index and every property holds at its top, so the verdict is Holds
(only the oracle returns Fails).

Every checker runs through one driver, _check, and differs only in how it
decides one outer index mu.  A system has a property exactly when its
identity morphism has it, so the system-level and C0 checks run it on 1_X.

The six morphism checkers are one search.  For each outer index mu it probes
one lambda, the top of the box, and looks for a witness w : X_lambda -> Z_k
with L_k o w = f_{mu lambda} at every deeper key k: one factorization
problem, solved and verified once per checker call.  A property fixes only a
side and a kind:

    side     Z  keys           L_k       lambda* equation (strong kind)
    target   Y  k >= mu        q_{mu k}  w o p_{lambda lambda*} = f_{k lambda*}
    source   X  k >= phi(mu)   f_{mu k}  w o p_{lambda lambda*} = p_{k lambda*}

    kind     plain (movable, co_movable), strong (strongly_*: adds the
             lambda* equation; lambda is the top of the box, so lambda* =
             lambda and the witness is its right side R_k, checked by one
             compose), uniform (uniformly_*: the single key top, the
             greatest in-range index; a cone is fixed by its top leg)

The deepest key decides refutation.  Factoring through a deeper key implies
factoring through every shallower one: if L_k o u = f_{mu lambda} and
k' <= k, then L_{k'} o (p_{k'k} o u) = f_{mu lambda}, because
L_{k'} o p_{k'k} = L_k on either side (Mardesic & Segal, Shape Theory,
ch. II).  So mu is refuted exactly when the deepest key deep = Z.top, the
top of the box or the greatest element, has no solution, and the refutation
names the first key with none, found by a search down from deep.  Each mu
asks deep once: a plain or uniform search first, a strong search only when
some R_k fails, where a solution at deep leaves that key inconclusive.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Optional

from . import categories as cat
from .categories import (
    FactorizationProblem,
    Morphism,
    compose,
    is_zero_morphism,
    morphisms_equal,
    solve_factorization,
)
from .indexsets import is_finite_index
from .systems import InverseSystem, SystemMorphism, restrict, violations

HORIZON_DISCLAIMER = (
    "horizon-bounded result: a Fails/Holds-at-horizon status is evidence "
    "within the stated index box, not a theorem about the infinite system"
)

PROPERTIES = (
    "movable",
    "strongly_movable",
    "uniformly_movable",
    "co_movable",
    "strongly_co_movable",
    "uniformly_co_movable",
    "mittag_leffler",
)

# statuses
HOLDS = "Holds"
HOLDS_STABILIZED = "HoldsStabilized"
HOLDS_AT_HORIZON = "HoldsAtHorizon"
FAILS_AT_HORIZON = "FailsAtHorizon"
FAILS = "Fails"
UNKNOWN = "Unknown"

# the per-mu statuses, worst first
_RANK = (FAILS_AT_HORIZON, UNKNOWN, HOLDS_AT_HORIZON, HOLDS_STABILIZED)


@dataclass(frozen=True)
class Horizon:
    """Index box for sequence checks; ignored for finite posets.

    mu_max bounds the outer index, lambda_max the probe index taken from the
    source, muprime_max the deeper quantifier, cone_max the cone depth.
    """

    mu_max: int = 6
    lambda_max: int = 12
    muprime_max: int = 13
    cone_max: int = 13

    def __post_init__(self):
        if min(self.mu_max, self.lambda_max, self.muprime_max, self.cone_max) < 0:
            raise ValueError("horizon bounds must be nonnegative")
        if self.muprime_max < self.mu_max:
            raise ValueError("muprime_max must be >= mu_max")


@dataclass
class WitnessRecord:
    mu: object
    index: object            # movability index used (lambda)
    rule: Optional[str]      # stabilization rule name, if any
    witnesses: dict = field(default_factory=dict)  # deeper index -> morphism
    extra: dict = field(default_factory=dict)


@dataclass
class Refutation:
    mu: object
    index: object
    deeper: object
    reason: str


@dataclass
class Verdict:
    property: str
    status: str
    witnesses: list = field(default_factory=list)
    refutation: Optional[Refutation] = None
    horizon: Optional[Horizon] = None
    notes: list = field(default_factory=list)

    def is_positive(self) -> bool:
        return self.status in (HOLDS, HOLDS_STABILIZED, HOLDS_AT_HORIZON)

    def is_certified(self) -> bool:
        return self.status in (HOLDS, HOLDS_STABILIZED)

    def is_negative(self) -> bool:
        return self.status in (FAILS, FAILS_AT_HORIZON)


class HorizonError(ValueError):
    """Horizon box too small for the morphism's index function."""


# ---------------------------------------------------------------------------
# shared machinery


def _keys(z: InverseSystem, low, h: Horizon, uniform: bool, name: str):
    """(keys, deep, certification limit, extra) of a search at index low of
    z: every deeper in-range index, of which there must be one, or the
    single key top, the greatest in-range index, which must lie above low
    (on a finite poset it is the greatest element, so it always does).
    deep = z.top(limit) is the deepest key: the top of the box on a
    sequence, the greatest element on a finite poset."""
    if not uniform:
        keys = z.index.above(low, limit=h.muprime_max)
        if not keys:
            raise HorizonError(
                f"muprime_max = {h.muprime_max} is below {name} = {low}")
        return keys, z.top(h.muprime_max), h.muprime_max, {}
    top = z.top(h.cone_max)
    if not z.index.leq(low, top):
        raise HorizonError(f"cone depth {h.cone_max} is below {name} = {low}")
    return [top], top, h.cone_max, {"cone_top": top}


def _zero_stage(f: SystemMorphism, mu, h: Horizon):
    """The first lambda in the box with f_{mu lambda} = 0, or None.  From
    there on the zero witness solves every key (zero-map) and the image of
    f_{mu lambda} is trivial (zero-image)."""
    return next((lam for lam in f.source.index.above(f.phi(mu), limit=h.lambda_max)
                 if is_zero_morphism(restrict(f, mu, lam))), None)


def _periodic_covered(system: InverseSystem, h_limit: int) -> bool:
    """True when the system is flagged eventually periodic and the deeper
    index range covers a full period past the offset, so a uniform in-range
    outcome extends to the tail (eventual-periodicity rule).  A finite
    system carrying the flag never gets here: _admit refuses it."""
    flag = system.flags.eventually_periodic
    if flag is None:
        return False
    off, per = flag
    return h_limit >= off + per


def _solve(L: Morphism, R: Morphism) -> Optional[Morphism]:
    """A u with L o u = R, verified by solve_factorization, else None.  Each
    checker call wraps it in its own functools.cache, so a problem is built
    only on a miss and a repeat gets back the very same answer."""
    return solve_factorization(FactorizationProblem(L, R))


def _admit(f: SystemMorphism, h: Horizon) -> bool:
    """Whether f's index sets are finite posets.  ValueError if only one of
    them is (mixed index kinds are unsupported), or naming the violations if
    both are and f is invalid (a sequence's bonds are composites of its
    steps, so it is left to promov validate's horizon spot-check).
    HorizonError unless phi(mu) <= lambda_max for every mu of a sequence's
    box, so the top of the box is a probe lambda for every mu: sound
    because movability-type indices are upward closed."""
    finite = is_finite_index(f.target.index)
    if is_finite_index(f.source.index) != finite:
        raise ValueError("source and target index kinds differ")
    if finite and violations(f):
        raise ValueError("; ".join(violations(f)))
    for mu in () if finite else f.target.index.above(limit=h.mu_max):
        if f.phi(mu) > h.lambda_max:
            raise HorizonError(
                f"phi({mu}) = {f.phi(mu)} exceeds lambda_max = {h.lambda_max}")
    return finite


def _check(prop: str, f: SystemMorphism, h: Horizon, decide, notes=()) -> Verdict:
    """Admit f, give each mu of the box its (status, record) by decide(mu,
    finite), which may append to notes, and return the verdict of the worst
    by _RANK.  On sequence input the mu loop runs in one
    categories.value_memo, as bonds, restrictions and strong composites
    repeat by value from key to key; a finite poset gets none, as too few of
    its compose calls repeat a pair (see the categories module docstring).
    A finite box holds every index of a valid input, so every property holds
    at the greatest element: the verdict is Holds, and any other outcome is
    a broken theorem, raised as AssertionError."""
    finite = _admit(f, h)
    with nullcontext() if finite else cat.value_memo():
        per_mu = [decide(mu, finite) for mu in f.target.index.above(limit=h.mu_max)]
    status = min((s for s, _ in per_mu), key=_RANK.index)
    notes = list(notes)
    if finite:
        if status in (FAILS_AT_HORIZON, UNKNOWN):
            raise AssertionError(f"{prop} is {status} on a valid finite input")
        status = HOLDS
    else:
        notes.append(HORIZON_DISCLAIMER)
    return Verdict(prop, status,
                   [r for _, r in per_mu if isinstance(r, WitnessRecord)],
                   next((r for _, r in per_mu if isinstance(r, Refutation)), None),
                   h, notes)


# ---------------------------------------------------------------------------
# the witness search behind the six morphism checkers

# kinds of search (see the module docstring)
_PLAIN = "plain"
_STRONG = "strong"
_UNIFORM = "uniform"


def _search(prop: str, f: SystemMorphism, h: Horizon, co: bool, kind: str) -> Verdict:
    return _check(prop, f, h, partial(_search_mu, f, h, co, kind, cache(_solve)))


def _refutation(solve, Ls: dict, deep, flam: Morphism, mu, lam, co: bool,
                kind: str) -> Refutation:
    """The refutation of mu when L_deep o u = flam has no solution: at the
    first key k, in key order, where L_k o u = flam has none.

    Ls maps each key k to L_k, in key order.  Solvability is downward closed
    in k (see _search_mu), so along the chain of a sequence's keys the
    failing keys end at deep.  The key just below deep is tried first: each
    default box and each rung of the horizon ladder has muprime_max =
    lambda_max + 1, so the refuting key is usually deep itself.  Otherwise
    the keys below it are bisected.  A valid finite input never gets here,
    as its greatest element solves every key."""
    keys = list(Ls)
    hi = keys.index(deep)
    if hi and solve(Ls[keys[hi - 1]], flam) is None:
        # keys[hi] has no solution and every key before lo has one
        lo, hi = 0, hi - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if solve(Ls[keys[mid]], flam) is None:
                hi = mid
            else:
                lo = mid + 1
    reason = (f"no {'co-' if co else ''}cone top-leg factorization"
              if kind == _UNIFORM else
              f"no factorization through the deeper "
              f"{'restriction' if co else 'bond'}")
    return Refutation(mu, lam, keys[hi], reason)


def _search_mu(f: SystemMorphism, h: Horizon, co: bool, kind: str, solve,
               mu, finite: bool):
    """(status, record) for one mu: a witness w : X_lambda -> Z_k with
    L_k o w = f_{mu lambda} at every key k, plus the lambda* equation of a
    strong search.

    The deepest key decides refutation.  If L_k o u = f_{mu lambda} and
    k' <= k, then L_{k'} o (p_{k'k} o u) = f_{mu lambda}, as L_{k'} o p_{k'k}
    = L_k on either side; so the keys with a solution are downward closed,
    and mu is refuted, at the first key with none, exactly when the deepest
    key has none (see _refutation).  A plain or uniform search asks deep
    first and solves the other keys only for their witnesses.  A strong
    search takes R_k as its witness and asks deep only to classify a key
    whose R_k fails."""
    x, y = f.source, f.target
    z, low = (x, f.phi(mu)) if co else (y, mu)
    # left(k) = L_k and right(k, lamstar) = the right side of the lambda*
    # equation, on the chosen side
    if co:
        left, right = partial(restrict, f, mu), x.bond
    else:
        left, right = partial(y.bond, mu), partial(restrict, f)

    def stars(lam, k):
        # lambda* >= lam and >= the least index R_k is defined at
        return x.index.above(lam, k if co else f.phi(k), limit=h.lambda_max)

    lam = x.top(h.lambda_max)
    keys, deep, limit, extra = _keys(z, low, h, kind == _UNIFORM,
                                     "phi(mu)" if co else "mu")

    # zero-map rule: f_{mu zlam} = 0 is solved by the zero witness at every key
    zlam = None if finite or (co and kind == _STRONG) else _zero_stage(f, mu, h)
    if zlam is not None:
        rec = WitnessRecord(mu, zlam, "zero-map", extra=dict(extra))
        f_zero = restrict(f, mu, zlam)
        # one zero witness per target object: keys share Z_k by value
        zero_to = cache(partial(cat.zero, x.object_at(zlam)))
        for k in keys:
            if kind == _STRONG:
                # the zero witness solves the lambda* equation too once the
                # deeper restriction is itself zero at some lambda*
                zstar = next((s for s in stars(zlam, k)
                              if is_zero_morphism(right(k, s))), None)
                if zstar is None:
                    break
                rec.extra[k] = {"lambda_star": zstar}
            u = zero_to(z.object_at(k))
            if not morphisms_equal(compose(left(k), u), f_zero):
                raise AssertionError(f"zero witness fails at mu = {mu!r}, key {k!r}")
            rec.witnesses[k] = u
        else:
            return HOLDS_STABILIZED, rec

    flam = restrict(f, mu, lam)
    # every L_k, built in key order, so each bond and restriction chain
    # grows by one compose per key
    Ls = {k: left(k) for k in keys}
    # a plain or uniform search asks deep at once, and so does a strong one
    # when deep has no lambda* in range (on a finite poset lam, the greatest
    # element, is one for every key); any other strong search asks it only
    # at the first key whose R_k fails
    asked = kind != _STRONG or not (finite or stars(lam, deep))
    L_deep = Ls[deep]
    u = solve(L_deep, flam) if asked else None
    if asked and u is None:
        return FAILS_AT_HORIZON, _refutation(solve, Ls, deep, flam, mu, lam, co, kind)
    rec = WitnessRecord(mu, lam, None, extra=dict(extra))
    if kind != _STRONG:
        # a key whose L_k is the very object last solved (deep's, then the
        # key before's) reuses its solution: a constant system's L_k are one
        # memo object, which the solver's cache would compare by value with
        # deep's equal but distinct L_deep at every key
        solved = L_deep
        for k, L in Ls.items():
            if L is not solved:
                u, solved = solve(L, flam), L
            rec.witnesses[k] = u
        bound = limit
    else:
        # lam is the top of the box, so stars(lam, k) is [lam] or empty; at
        # lambda* = lam the equation reads w = R_k, the only candidate
        inconclusive = False
        bound = None
        for k, L in Ls.items():
            candidates = stars(lam, k)
            if candidates:
                u = right(k, lam)
                if morphisms_equal(compose(L, u), flam):
                    rec.extra[k] = {"lambda_star": lam}
                    rec.witnesses[k] = u
                    bound = k
                    continue
            # the one-sided equation is implied by the strong one, so its
            # failure at deep refutes mu even when no lambda* is in range
            if not asked:
                asked = True
                if solve(L_deep, flam) is None:
                    return FAILS_AT_HORIZON, _refutation(
                        solve, Ls, deep, flam, mu, lam, co, kind)
            # deep, and so k, is solved: untestable with every admissible
            # lambda* past the horizon; otherwise the lambda* quantifier
            # reaches past it, so an in-range exhaustion proves nothing
            # either way
            inconclusive |= bool(candidates)
        if inconclusive:
            return UNKNOWN, rec
    # certified once the keys cover a full period of the side's system: for
    # a strong search only up to the deepest key that got a witness
    if bound is not None and _periodic_covered(z, bound):
        rec.rule = "eventual-periodicity"
        return HOLDS_STABILIZED, rec
    return HOLDS_AT_HORIZON, rec


def movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Each mu needs one lambda from which f_{mu lambda} factors through
    every deeper bond q_{mu mu'}."""
    return _search("movable", f, h, co=False, kind=_PLAIN)


def strongly_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """As movable, but the witness u must also restrict correctly from some
    deeper stage lambda*: u o p_{lambda lambda*} = f_{mu' lambda*}."""
    return _search("strongly_movable", f, h, co=False, kind=_STRONG)


def uniformly_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """The witness is one cone u : X_lambda -> Y with q_mu o u = f_{mu lambda}."""
    return _search("uniformly_movable", f, h, co=False, kind=_UNIFORM)


def co_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Each mu needs one lambda such that f_{mu lambda} factors through every
    deeper restriction f_{mu lambda'} of the source."""
    return _search("co_movable", f, h, co=True, kind=_PLAIN)


def strongly_co_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Co-movability whose witness r also satisfies
    r o p_{lambda lambda*} = p_{lambda' lambda*} for some lambda*."""
    return _search("strongly_co_movable", f, h, co=True, kind=_STRONG)


def uniformly_co_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """The witness is one cone r : X_lambda -> X with
    f_mu o r_{phi(mu)} = f_{mu lambda}."""
    return _search("uniformly_co_movable", f, h, co=True, kind=_UNIFORM)


# ---------------------------------------------------------------------------
# Mittag-Leffler


def mittag_leffler(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Eventual stabilization of the image chain f_{mu lambda}(X_lambda).

    The chain descends: f_{mu lambda'} = f_{mu lambda} o p_{lambda lambda'}
    for lambda <= lambda', so image(lambda') lies inside image(lambda), and a
    stretch of the chain is constant exactly when its two ends agree.  So
    each rule compares the ends of one stretch, with each image computed on
    demand and once per mu, and only Unknown reads the whole chain.

    Failure is a genuinely infinite statement, so sequences never get
    FailsAtHorizon: a chain still strictly decreasing at the horizon is
    reported as Unknown together with the chain.
    """
    x = f.source
    notes = []

    def decide(mu, finite):
        # never empty: _admit refuses phi(mu) > lambda_max
        lams = x.index.above(f.phi(mu), limit=h.lambda_max)
        top = x.top(h.lambda_max)
        image = cache(lambda lam: cat.image_subobject(restrict(f, mu, lam)))

        def record(status, lam, rule=None):
            return status, WitnessRecord(mu, lam, rule, extra={"image": image(lam)})

        if finite:
            # exact: the first lam whose image is the greatest element's
            return record(HOLDS_AT_HORIZON,
                          next(lam for lam in lams if image(lam) == image(top)))
        # stabilization rules, strongest first
        zlam = _zero_stage(f, mu, h)
        if zlam is not None:
            # a descending chain through the basepoint stays trivial
            return record(HOLDS_STABILIZED, zlam, "zero-image")
        if x.flags.all_bondings_epimorphic and image(lams[0]) == image(top):
            # f_{mu lambda} = f_mu o p_{phi(mu) lambda} with p epi: the image
            # equals image(f_mu) at every stage
            return record(HOLDS_STABILIZED, lams[0], "epimorphic-bondings")
        if x.flags.eventually_periodic is not None:
            off, per = x.flags.eventually_periodic
            lam = next((lam for lam in x.index.above(lams[0], off, limit=top - per)
                        if image(lam) == image(lam + per)), None)
            if lam is not None:
                return record(HOLDS_STABILIZED, lam, "eventual-periodicity")
        if top > lams[0] and image(top - 1) == image(top):
            return record(HOLDS_AT_HORIZON, top)
        chain = [image(lam) for lam in lams]
        notes.append(f"mu={mu}: image chain still strictly decreasing at the "
                     f"horizon: {chain}")
        return UNKNOWN, WitnessRecord(mu, None, None, extra={"chain": tuple(chain)})

    return _check("mittag_leffler", f, h, decide, notes)


# ---------------------------------------------------------------------------
# system-level checks (identity-morphism reductions)


def movable_system(x: InverseSystem, h: Horizon = Horizon()) -> Verdict:
    return _search("movable_system", x.identity_morphism, h, co=False, kind=_PLAIN)


def strongly_movable_system(x: InverseSystem, h: Horizon = Horizon()) -> Verdict:
    return _search("strongly_movable_system", x.identity_morphism, h,
                   co=False, kind=_STRONG)


def uniformly_movable_system(x: InverseSystem, h: Horizon = Horizon()) -> Verdict:
    return _search("uniformly_movable_system", x.identity_morphism, h,
                   co=False, kind=_UNIFORM)


# ---------------------------------------------------------------------------
# C0-relative movability


def c0_movable_system(x: InverseSystem, c0_objects, h: Horizon = Horizon()) -> Verdict:
    """Movability tested only against probes h : X0 -> X_{lambda'} with X0
    drawn from the given finite objects."""
    return _c0_search("c0_movable_system", x, c0_objects, h, uniform=False)


def c0_uniformly_movable_system(x: InverseSystem, c0_objects,
                                h: Horizon = Horizon()) -> Verdict:
    """Uniform variant: the relative witness is a cone into the whole system."""
    return _c0_search("c0_uniformly_movable_system", x, c0_objects, h, uniform=True)


def _c0_search(prop: str, x: InverseSystem, c0_objects, h: Horizon,
               uniform: bool) -> Verdict:
    """For each mu and each probe hm : X0 -> X_lambda, a witness r with
    q_{mu k} o r = q_{mu lambda} o hm at every key k: each deeper index, or
    the single cone top."""
    if not c0_objects:
        return _check(prop, x.identity_morphism, h,
                      lambda mu, finite: (HOLDS_STABILIZED, None),
                      notes=["vacuous: empty probe class"])
    solve = cache(_solve)
    reason = "no relative cone top-leg" if uniform else "no relative movability witness"

    def decide(mu, finite):
        probe = x.top(h.lambda_max)
        keys, deep, limit, extra = _keys(x, mu, h, uniform, "mu")
        q_probe = x.bond(mu, probe)

        def refutes(k):
            # some probe (x0, hm), in that order, has no witness at key k
            q = x.bond(mu, k)
            return any(solve(q, compose(q_probe, hm)) is None for x0 in c0_objects
                       for hm in cat.enumerate_homs(x0, x.object_at(probe)))

        # each probe's solvability is downward closed in k, as in _search_mu:
        # when deep solves every probe no other key is asked; otherwise the
        # first unsolvable (key, x0, hm), in that order, refutes mu
        if refutes(deep):
            return FAILS_AT_HORIZON, Refutation(
                mu, probe, next(k for k in keys if refutes(k)), reason)
        if not finite and is_zero_morphism(q_probe):
            return HOLDS_STABILIZED, WitnessRecord(mu, probe, "zero-map", extra=extra)
        if _periodic_covered(x, limit):
            return HOLDS_STABILIZED, WitnessRecord(
                mu, probe, "eventual-periodicity", extra=extra)
        return HOLDS_AT_HORIZON, WitnessRecord(mu, probe, None, extra=extra)

    return _check(prop, x.identity_morphism, h, decide)


# ---------------------------------------------------------------------------
# dispatch


MORPHISM_CHECKERS = {
    "movable": movable_morphism,
    "strongly_movable": strongly_movable_morphism,
    "uniformly_movable": uniformly_movable_morphism,
    "co_movable": co_movable_morphism,
    "strongly_co_movable": strongly_co_movable_morphism,
    "uniformly_co_movable": uniformly_co_movable_morphism,
    "mittag_leffler": mittag_leffler,
}


def check(prop: str, f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    try:
        checker = MORPHISM_CHECKERS[prop]
    except KeyError:
        raise ValueError(f"unknown property {prop!r}") from None
    return checker(f, h)
