"""Decision procedures for the movability-type properties.

Each checker reduces its defining condition to factorization problems in the
backend category.  On finite directed posets all quantifiers are expanded
exactly (statuses Holds / Fails).  On sequences the quantifiers are infinite,
so a checker either certifies the tail through a named stabilization rule
(HoldsStabilized), reports the horizon-bounded outcome (HoldsAtHorizon /
FailsAtHorizon), or gives up (Unknown).  A FailsAtHorizon verdict is a proof
that no witness exists inside the horizon box; it is evidence, not a theorem,
of failure of the unbounded property, and reports say so.  Within one
checker call each distinct factorization problem is solved and verified once.

The six morphism checkers are one search.  For each outer index mu it probes
one lambda and looks for a witness w : X_lambda -> Z_k with
L_k o w = f_{mu lambda} at every deeper key k.  A property fixes only a side
and a kind:

    side     Z  keys           L_k       lambda* equation (strong kind)
    target   Y  k >= mu        q_{mu k}  w o p_{lambda lambda*} = f_{k lambda*}
    source   X  k >= phi(mu)   f_{mu k}  w o p_{lambda lambda*} = p_{k lambda*}

    kind     plain (movable, co_movable), strong (strongly_*: adds the
             lambda* equation), uniform (uniformly_*: the single key top, the
             greatest in-range index; a cone is fixed by its top leg)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Optional

from . import categories as cat
from .categories import (
    Constraint,
    FactorizationProblem,
    Morphism,
    compose,
    is_zero_morphism,
    morphisms_equal,
    solve_factorization,
)
from .indexsets import is_finite_index
from .systems import InverseSystem, SystemMorphism, identity_morphism, restrict

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

# per-index certification levels (internal)
_EXACT = "exact"
_CERTIFIED = "certified"
_AT_HORIZON = "at_horizon"
_FAILED = "failed"
_UNKNOWN = "unknown"


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


def _probe_lambda(x: InverseSystem, mu, pm, h: Horizon):
    """The single probed movability-index candidate on the source x, for an
    outer index mu whose probe must lie above pm = phi(mu): the greatest
    element on finite posets, lambda_max on sequences.  Sound because
    movability-type indices are upward closed."""
    if not is_finite_index(x.index) and pm > h.lambda_max:
        raise HorizonError(
            f"phi({mu}) = {pm} exceeds lambda_max = {h.lambda_max}")
    return x.top(h.lambda_max)


def _keys(z: InverseSystem, low, h: Horizon, finite: bool, uniform: bool,
          name: str):
    """(keys, certification limit, extra) of a search at index low of z:
    every deeper in-range index, or the single key top, the greatest
    in-range index, which must lie above low."""
    if not uniform:
        return z.index.above(low, limit=h.muprime_max), h.muprime_max, {}
    top = z.top(h.cone_max)
    if not finite and not z.index.leq(low, top):
        raise HorizonError(f"cone depth {h.cone_max} is below {name} = {low}")
    return [top], h.cone_max, {"cone_top": top}


def _first_zero(candidates, morphism_at):
    """First candidate c with morphism_at(c) the zero morphism, or None."""
    return next((c for c in candidates if is_zero_morphism(morphism_at(c))), None)


def _periodic_covered(system: InverseSystem, h_limit: int) -> bool:
    """True when the system is flagged eventually periodic and the deeper
    index range covers a full period past the offset, so a uniform in-range
    outcome extends to the tail (eventual-periodicity rule)."""
    flag = system.flags.eventually_periodic
    if flag is None or not system.is_sequence():
        return False
    off, per = flag
    return h_limit >= off + per


_MISS = object()


def _solver():
    """Factorization solver for one checker call, memoized on the problem.

    A repeated problem gets back the very morphism (or None) that
    solve_factorization produced and verified the first time.  The memo is
    dropped with the checker call that made it.
    """
    memo = {}

    def solve(source, target, constraints) -> Optional[Morphism]:
        p = FactorizationProblem(source, target, tuple(constraints))
        u = memo.get(p, _MISS)
        if u is _MISS:
            u = memo[p] = solve_factorization(p)
        return u

    return solve


def _assemble(prop: str, per_mu: list, h: Horizon, finite: bool,
              notes=None) -> Verdict:
    witnesses = [r for lvl, r in per_mu if isinstance(r, WitnessRecord)]
    refutation = next((r for lvl, r in per_mu if lvl == _FAILED), None)
    levels = [lvl for lvl, _ in per_mu]
    notes = list(notes or [])
    if finite:
        status = FAILS if _FAILED in levels else HOLDS
    else:
        notes.append(HORIZON_DISCLAIMER)
        if _FAILED in levels:
            status = FAILS_AT_HORIZON
        elif _UNKNOWN in levels:
            status = UNKNOWN
        elif all(lvl == _CERTIFIED for lvl in levels):
            status = HOLDS_STABILIZED
        else:
            status = HOLDS_AT_HORIZON
    return Verdict(prop, status, witnesses,
                   refutation if isinstance(refutation, Refutation) else None,
                   h, notes)


# ---------------------------------------------------------------------------
# the witness search behind the six morphism checkers

# kinds of search (see the module docstring)
_PLAIN = "plain"
_STRONG = "strong"
_UNIFORM = "uniform"


def _search(prop: str, f: SystemMorphism, h: Horizon, co: bool, kind: str) -> Verdict:
    finite = is_finite_index(f.target.index)
    solve = _solver()
    per_mu = [_search_mu(f, mu, h, co, kind, finite, solve)
              for mu in f.target.index.above(limit=h.mu_max)]
    return _assemble(prop, per_mu, h, finite)


def _search_mu(f: SystemMorphism, mu, h: Horizon, co: bool, kind: str,
               finite: bool, solve):
    """(level, record) for one mu: a witness w : X_lambda -> Z_k with
    L_k o w = f_{mu lambda} at every key k, plus the lambda* equation of a
    strong search."""
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

    lam = _probe_lambda(x, mu, f.phi(mu), h)
    keys, limit, extra = _keys(z, low, h, finite, kind == _UNIFORM,
                               "phi(mu)" if co else "mu")

    # zero-map rule: f_{mu zlam} = 0 is solved by the zero witness at every key
    zlam = None
    if not finite and not (co and kind == _STRONG):
        zlam = _first_zero(x.index.above(f.phi(mu), limit=h.lambda_max),
                           partial(restrict, f, mu))
    if zlam is not None:
        rec = WitnessRecord(mu, zlam, "zero-map", extra=dict(extra))
        f_zero = restrict(f, mu, zlam)
        for k in keys:
            if kind == _STRONG:
                # the zero witness solves the lambda* equation too once the
                # deeper restriction is itself zero at some lambda*
                zstar = _first_zero(stars(zlam, k), lambda s: right(k, s))
                if zstar is None:
                    break
                rec.extra[k] = {"lambda_star": zstar}
            u = cat.zero(x.object_at(zlam), z.object_at(k))
            if not morphisms_equal(compose(left(k), u), f_zero):
                raise AssertionError(f"zero witness fails at mu = {mu!r}, key {k!r}")
            rec.witnesses[k] = u
        else:
            return _CERTIFIED, rec

    flam = restrict(f, mu, lam)
    rec = WitnessRecord(mu, lam, None, extra=dict(extra))
    inconclusive = False
    verified = None
    for k in keys:
        one_sided = [Constraint("left", left(k), flam)]
        # the one-sided equation is implied by the two-sided one, so its
        # failure is a genuine refutation even when no lambda* is in range
        u = solve(x.object_at(lam), z.object_at(k), one_sided)
        if u is None:
            reason = (f"no {'co-' if co else ''}cone top-leg factorization"
                      if kind == _UNIFORM else
                      f"no factorization through the deeper "
                      f"{'restriction' if co else 'bond'}")
            return _FAILED, Refutation(mu, lam, k, reason)
        if kind == _STRONG:
            candidates = stars(lam, k)
            if not candidates:
                # every admissible lambda* lies past the horizon: untestable
                continue
            for lamstar in candidates:
                u = solve(x.object_at(lam), z.object_at(k), one_sided + [
                    Constraint("right", x.bond(lam, lamstar), right(k, lamstar))])
                if u is not None:
                    break
            if u is None:
                if finite:
                    return _FAILED, Refutation(
                        mu, lam, k, f"no two-sided {'co-' if co else ''}"
                                    f"witness for any lambda*")
                # the lambda* quantifier reaches past the horizon, so an
                # in-range exhaustion proves nothing either way
                inconclusive = True
                continue
            rec.extra[k] = {"lambda_star": lamstar}
        verified = k
        rec.witnesses[k] = u
    if inconclusive:
        return _UNKNOWN, rec
    if finite:
        return _EXACT, rec
    # certified once the keys cover a full period of the side's system: for
    # a strong search only up to the deepest key that got a witness
    bound = verified if kind == _STRONG else limit
    if bound is not None and _periodic_covered(z, bound):
        rec.rule = "eventual-periodicity"
        return _CERTIFIED, rec
    return _AT_HORIZON, rec


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

    Failure is a genuinely infinite statement, so sequences never get
    FailsAtHorizon: a chain still strictly decreasing at the horizon is
    reported as Unknown together with the chain.
    """
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    per_mu = []
    notes = []
    for mu in y.index.above(limit=h.mu_max):
        chain = [(lam, cat.image_subobject(restrict(f, mu, lam)))
                 for lam in x.index.above(f.phi(mu), limit=h.lambda_max)]
        if finite:
            # exact: some lam whose image equals every deeper one
            ok = None
            for lam, img in chain:
                deeper = [i for l2, i in chain if x.index.leq(lam, l2)]
                if all(cat.subobjects_equal(img, d) for d in deeper):
                    ok = (lam, img)
                    break
            if ok is None:
                per_mu.append((_FAILED, Refutation(mu, None, None,
                                                   "no ML index")))
            else:
                per_mu.append((_EXACT, WitnessRecord(
                    mu, ok[0], None, extra={"image": ok[1].presentation})))
            continue
        # stabilization rules, strongest first
        rec = None
        for lam, img in chain:
            if img.is_trivial():
                # a descending chain through the basepoint stays trivial
                rec = WitnessRecord(mu, lam, "zero-image",
                                    extra={"image": img.presentation})
                break
        if rec is None and x.flags.all_bondings_epimorphic:
            # f_{mu lambda} = f_mu o p_{phi(mu) lambda} with p epi: the image
            # equals image(f_mu) at every stage
            lam0, img0 = chain[0]
            if all(cat.subobjects_equal(img0, i) for _, i in chain):
                rec = WitnessRecord(mu, lam0, "epimorphic-bondings",
                                    extra={"image": img0.presentation})
        if rec is None and x.flags.eventually_periodic is not None:
            off, per = x.flags.eventually_periodic
            for t, (lam, img) in enumerate(chain):
                if lam < off or lam + per > chain[-1][0]:
                    continue
                window = [i for l2, i in chain if lam <= l2 <= lam + per]
                if all(cat.subobjects_equal(img, i) for i in window):
                    rec = WitnessRecord(mu, lam, "eventual-periodicity",
                                        extra={"image": img.presentation})
                    break
        if rec is not None:
            per_mu.append((_CERTIFIED, rec))
        elif len(chain) >= 2 and cat.subobjects_equal(chain[-2][1], chain[-1][1]):
            per_mu.append((_AT_HORIZON, WitnessRecord(
                mu, chain[-1][0], None,
                extra={"image": chain[-1][1].presentation})))
        else:
            notes.append(
                f"mu={mu}: image chain still strictly decreasing at the "
                f"horizon: {[p.presentation for _, p in chain]}")
            per_mu.append((_UNKNOWN, WitnessRecord(
                mu, None, None,
                extra={"chain": [p.presentation for _, p in chain]})))
    return _assemble("mittag_leffler", per_mu, h, finite, notes=notes)


# ---------------------------------------------------------------------------
# system-level checks (identity-morphism reductions)


def movable_system(x: InverseSystem, h: Horizon = Horizon()) -> Verdict:
    return _relabel(movable_morphism(identity_morphism(x), h), "movable_system")


def strongly_movable_system(x: InverseSystem, h: Horizon = Horizon()) -> Verdict:
    return _relabel(strongly_movable_morphism(identity_morphism(x), h),
                    "strongly_movable_system")


def uniformly_movable_system(x: InverseSystem, h: Horizon = Horizon()) -> Verdict:
    return _relabel(uniformly_movable_morphism(identity_morphism(x), h),
                    "uniformly_movable_system")


def _relabel(v: Verdict, prop: str) -> Verdict:
    v.property = prop
    return v


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
    finite = is_finite_index(x.index)
    if not c0_objects:
        return _assemble(prop, [], h, finite, notes=["vacuous: empty probe class"])
    solve = _solver()
    per_mu = []
    for mu in x.index.above(limit=h.mu_max):
        probe = _probe_lambda(x, mu, mu, h)
        keys, limit, extra = _keys(x, mu, h, finite, uniform, "mu")
        rec = WitnessRecord(mu, probe, None, extra=extra)
        q_probe = x.bond(mu, probe)
        reason = ("no relative cone top-leg" if uniform
                  else "no relative movability witness")
        # the first unsolvable (key, x0, hm), in that order, refutes mu
        failed = next((Refutation(mu, probe, k, reason)
                       for k in keys for x0 in c0_objects
                       for hm in cat.enumerate_homs(x0, x.object_at(probe))
                       if solve(x0, x.object_at(k), [Constraint(
                           "left", x.bond(mu, k), compose(q_probe, hm))]) is None),
                      None)
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif not finite and is_zero_morphism(q_probe):
            rec.rule = "zero-map"
            per_mu.append((_CERTIFIED, rec))
        elif not finite and _periodic_covered(x, limit):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble(prop, per_mu, h, finite)


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
