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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import categories as cat
from .categories import (
    Constraint,
    FactorizationProblem,
    Morphism,
    compose,
    identity,
    is_zero_morphism,
    morphisms_equal,
    solve_factorization,
)
from .indexsets import is_finite_index
from .systems import (
    ConeMorphism,
    InverseSystem,
    SystemMorphism,
    identity_morphism,
    restrict,
)

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


def _probe_lambda(f: SystemMorphism, mu, h: Horizon):
    """The single probed movability-index candidate: the greatest element on
    finite posets, lambda_max on sequences.  Sound because movability-type
    indices are upward closed."""
    x = f.source
    if is_finite_index(x.index):
        return x.index.greatest()
    pm = f.phi(mu)
    if pm > h.lambda_max:
        raise HorizonError(
            f"phi({mu}) = {pm} exceeds lambda_max = {h.lambda_max}")
    return h.lambda_max

def _deeper_mus(y: InverseSystem, mu, h: Horizon):
    if is_finite_index(y.index):
        return [m for m in y.index.members() if y.index.leq(mu, m)]
    return list(range(mu, h.muprime_max + 1))


def _deeper_lams(x: InverseSystem, base, h: Horizon):
    if is_finite_index(x.index):
        return [l for l in x.index.members() if x.index.leq(base, l)]
    return list(range(base, h.muprime_max + 1))


def _zero_rule_lambda(f: SystemMorphism, mu, h: Horizon):
    """Smallest in-range lambda with f_{mu lambda} the zero morphism."""
    x = f.source
    if is_finite_index(x.index):
        return None  # exact expansion does not need stabilization
    for lam in range(f.phi(mu), h.lambda_max + 1):
        if is_zero_morphism(restrict(f, mu, lam)):
            return lam
    return None


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


def _outer_mus(y: InverseSystem, h: Horizon):
    if is_finite_index(y.index):
        return list(y.index.members())
    return list(range(h.mu_max + 1))


# ---------------------------------------------------------------------------
# movable / strongly movable


def movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Each mu needs one lambda from which f_{mu lambda} factors through
    every deeper bond q_{mu mu'}."""
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    solve = _solver()
    per_mu = []
    for mu in _outer_mus(y, h):
        zlam = _zero_rule_lambda(f, mu, h)
        if zlam is not None:
            rec = WitnessRecord(mu, zlam, "zero-map")
            for mu2 in _deeper_mus(y, mu, h):
                u = cat.abelian_zero(x.object_at(zlam), y.object_at(mu2)) \
                    if isinstance(x.object_at(zlam), cat.FgAbelianObject) \
                    else cat.pointed_constant(x.object_at(zlam), y.object_at(mu2))
                assert morphisms_equal(compose(y.bond(mu, mu2), u),
                                       restrict(f, mu, zlam))
                rec.witnesses[mu2] = u
            per_mu.append((_CERTIFIED, rec))
            continue
        lam = _probe_lambda(f, mu, h)
        flam = restrict(f, mu, lam)
        rec = WitnessRecord(mu, lam, None)
        failed = None
        for mu2 in _deeper_mus(y, mu, h):
            u = solve(x.object_at(lam), y.object_at(mu2),
                      [Constraint("left", y.bond(mu, mu2), flam)])
            if u is None:
                failed = Refutation(mu, lam, mu2,
                                    "no factorization through the deeper bond")
                break
            rec.witnesses[mu2] = u
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif not finite and _periodic_covered(y, h.muprime_max):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("movable", per_mu, h, finite)


def strongly_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """As movable, but the witness u must also restrict correctly from some
    deeper stage lambda*: u o p_{lambda lambda*} = f_{mu' lambda*}."""
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    solve = _solver()
    per_mu = []
    for mu in _outer_mus(y, h):
        zlam = _zero_rule_lambda(f, mu, h)
        if zlam is not None and not finite:
            # zero witness solves both equations when the deeper restriction
            # is itself zero at some lambda*
            rec = WitnessRecord(mu, zlam, "zero-map")
            all_ok = True
            for mu2 in _deeper_mus(y, mu, h):
                zstar = None
                for lamstar in range(max(zlam, f.phi(mu2)), h.lambda_max + 1):
                    if is_zero_morphism(restrict(f, mu2, lamstar)):
                        zstar = lamstar
                        break
                if zstar is None:
                    all_ok = False
                    break
                u = cat.abelian_zero(x.object_at(zlam), y.object_at(mu2)) \
                    if isinstance(x.object_at(zlam), cat.FgAbelianObject) \
                    else cat.pointed_constant(x.object_at(zlam), y.object_at(mu2))
                rec.witnesses[mu2] = u
                rec.extra[mu2] = {"lambda_star": zstar}
            if all_ok:
                per_mu.append((_CERTIFIED, rec))
                continue
        lam = _probe_lambda(f, mu, h)
        flam = restrict(f, mu, lam)
        rec = WitnessRecord(mu, lam, None)
        failed = None
        inconclusive = False
        verified = None
        for mu2 in _deeper_mus(y, mu, h):
            # the one-sided equation is implied by the two-sided one, so its
            # failure is a genuine refutation even when no lambda* is in range
            if solve(x.object_at(lam), y.object_at(mu2),
                     [Constraint("left", y.bond(mu, mu2), flam)]) is None:
                failed = Refutation(mu, lam, mu2,
                                    "no factorization through the deeper bond")
                break
            stars = _star_range(x, lam, f.phi(mu2), h)
            if not stars:
                # every admissible lambda* lies past the horizon: untestable
                continue
            found = None
            for lamstar in stars:
                u = solve(x.object_at(lam), y.object_at(mu2),
                          [Constraint("left", y.bond(mu, mu2), flam),
                           Constraint("right", x.bond(lam, lamstar),
                                      restrict(f, mu2, lamstar))])
                if u is not None:
                    found = (lamstar, u)
                    break
            if found is None:
                if finite:
                    failed = Refutation(mu, lam, mu2,
                                        "no two-sided witness for any lambda*")
                    break
                # the lambda* quantifier reaches past the horizon, so an
                # in-range exhaustion proves nothing either way
                inconclusive = True
                continue
            verified = mu2
            rec.witnesses[mu2] = found[1]
            rec.extra[mu2] = {"lambda_star": found[0]}
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif inconclusive:
            per_mu.append((_UNKNOWN, rec))
        elif not finite and verified is not None and _periodic_covered(y, verified):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("strongly_movable", per_mu, h, finite)


def _star_range(x: InverseSystem, lam, other, h: Horizon):
    """Ascending candidates lambda* >= lam, other."""
    if is_finite_index(x.index):
        return [l for l in x.index.members()
                if x.index.leq(lam, l) and x.index.leq(other, l)]
    return list(range(max(lam, other), h.lambda_max + 1))


# ---------------------------------------------------------------------------
# uniform movability (cone witnesses)


def _cone_from_top(target: InverseSystem, top, top_leg: Morphism,
                   h: Horizon) -> ConeMorphism:
    """Cone with the given top leg; lower legs are forced by composition."""
    def leg(mu):
        return compose(target.bond(mu, top), top_leg)
    return ConeMorphism(top_leg.source, target, leg)


def uniformly_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """The witness is one cone u : X_lambda -> Y with q_mu o u = f_{mu lambda}.

    A cone over a finite directed poset, or over the in-range part of a
    sequence, is determined by its leg at the greatest in-range index, so the
    search reduces to a single factorization through that stage.
    """
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    solve = _solver()
    per_mu = []
    for mu in _outer_mus(y, h):
        zlam = _zero_rule_lambda(f, mu, h)
        if zlam is not None:
            top = y.top(h.cone_max)
            zero_leg = cat.abelian_zero(x.object_at(zlam), y.object_at(top)) \
                if isinstance(x.object_at(zlam), cat.FgAbelianObject) \
                else cat.pointed_constant(x.object_at(zlam), y.object_at(top))
            rec = WitnessRecord(mu, zlam, "zero-map",
                                witnesses={top: zero_leg},
                                extra={"cone_top": top})
            per_mu.append((_CERTIFIED, rec))
            continue
        lam = _probe_lambda(f, mu, h)
        top = y.top(h.cone_max)
        if not finite and not y.index.leq(mu, top):
            raise HorizonError(f"cone depth {h.cone_max} is below mu = {mu}")
        u_top = solve(x.object_at(lam), y.object_at(top),
                      [Constraint("left", y.bond(mu, top),
                                  restrict(f, mu, lam))])
        if u_top is None:
            per_mu.append((_FAILED, Refutation(
                mu, lam, top, "no cone top-leg factorization")))
            continue
        cone = _cone_from_top(y, top, u_top, h)
        assert morphisms_equal(cone.leg(mu), restrict(f, mu, lam))
        rec = WitnessRecord(mu, lam, None, witnesses={top: u_top},
                            extra={"cone_top": top})
        if not finite and _periodic_covered(y, h.cone_max):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("uniformly_movable", per_mu, h, finite)


# ---------------------------------------------------------------------------
# co-movability


def co_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Each mu needs one lambda such that f_{mu lambda} factors through every
    deeper restriction f_{mu lambda'} of the source."""
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    solve = _solver()
    per_mu = []
    for mu in _outer_mus(y, h):
        zlam = _zero_rule_lambda(f, mu, h)
        if zlam is not None:
            rec = WitnessRecord(mu, zlam, "zero-map")
            for lam2 in _deeper_lams(x, f.phi(mu), h):
                r = cat.abelian_zero(x.object_at(zlam), x.object_at(lam2)) \
                    if isinstance(x.object_at(zlam), cat.FgAbelianObject) \
                    else cat.pointed_constant(x.object_at(zlam), x.object_at(lam2))
                assert morphisms_equal(compose(restrict(f, mu, lam2), r),
                                       restrict(f, mu, zlam))
                rec.witnesses[lam2] = r
            per_mu.append((_CERTIFIED, rec))
            continue
        lam = _probe_lambda(f, mu, h)
        flam = restrict(f, mu, lam)
        rec = WitnessRecord(mu, lam, None)
        failed = None
        for lam2 in _deeper_lams(x, f.phi(mu), h):
            r = solve(x.object_at(lam), x.object_at(lam2),
                      [Constraint("left", restrict(f, mu, lam2), flam)])
            if r is None:
                failed = Refutation(mu, lam, lam2,
                                    "no factorization through the deeper restriction")
                break
            rec.witnesses[lam2] = r
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif not finite and _periodic_covered(x, h.muprime_max):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("co_movable", per_mu, h, finite)


def strongly_co_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """Co-movability whose witness r also satisfies
    r o p_{lambda lambda*} = p_{lambda' lambda*} for some lambda*."""
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    solve = _solver()
    per_mu = []
    for mu in _outer_mus(y, h):
        lam = _probe_lambda(f, mu, h)
        flam = restrict(f, mu, lam)
        rec = WitnessRecord(mu, lam, None)
        failed = None
        inconclusive = False
        verified = None
        for lam2 in _deeper_lams(x, f.phi(mu), h):
            # the one-sided equation is implied by the two-sided one
            if solve(x.object_at(lam), x.object_at(lam2),
                     [Constraint("left", restrict(f, mu, lam2), flam)]) is None:
                failed = Refutation(mu, lam, lam2,
                                    "no factorization through the deeper restriction")
                break
            stars = _star_range(x, lam, lam2, h)
            if not stars:
                continue
            found = None
            for lamstar in stars:
                r = solve(x.object_at(lam), x.object_at(lam2),
                          [Constraint("left", restrict(f, mu, lam2), flam),
                           Constraint("right", x.bond(lam, lamstar),
                                      x.bond(lam2, lamstar))])
                if r is not None:
                    found = (lamstar, r)
                    break
            if found is None:
                if finite:
                    failed = Refutation(mu, lam, lam2,
                                        "no two-sided co-witness for any lambda*")
                    break
                inconclusive = True
                continue
            verified = lam2
            rec.witnesses[lam2] = found[1]
            rec.extra[lam2] = {"lambda_star": found[0]}
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif inconclusive:
            per_mu.append((_UNKNOWN, rec))
        elif not finite and verified is not None and _periodic_covered(x, verified):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("strongly_co_movable", per_mu, h, finite)


def uniformly_co_movable_morphism(f: SystemMorphism, h: Horizon = Horizon()) -> Verdict:
    """The witness is one cone r : X_lambda -> X with
    f_mu o r_{phi(mu)} = f_{mu lambda}."""
    x, y = f.source, f.target
    finite = is_finite_index(y.index)
    solve = _solver()
    per_mu = []
    for mu in _outer_mus(y, h):
        zlam = _zero_rule_lambda(f, mu, h)
        if zlam is not None:
            top = x.top(h.cone_max)
            zero_leg = cat.abelian_zero(x.object_at(zlam), x.object_at(top)) \
                if isinstance(x.object_at(zlam), cat.FgAbelianObject) \
                else cat.pointed_constant(x.object_at(zlam), x.object_at(top))
            rec = WitnessRecord(mu, zlam, "zero-map",
                                witnesses={top: zero_leg},
                                extra={"cone_top": top})
            per_mu.append((_CERTIFIED, rec))
            continue
        lam = _probe_lambda(f, mu, h)
        top = x.top(h.cone_max)
        if not finite and top < f.phi(mu):
            raise HorizonError("cone depth below phi of the probed index")
        r_top = solve(x.object_at(lam), x.object_at(top),
                      [Constraint("left", restrict(f, mu, top),
                                  restrict(f, mu, lam))])
        if r_top is None:
            per_mu.append((_FAILED, Refutation(
                mu, lam, top, "no co-cone top-leg factorization")))
            continue
        rec = WitnessRecord(mu, lam, None, witnesses={top: r_top},
                            extra={"cone_top": top})
        if not finite and _periodic_covered(x, h.cone_max):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("uniformly_co_movable", per_mu, h, finite)


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
    for mu in _outer_mus(y, h):
        lams = _lam_chain_range(x, f.phi(mu), h)
        chain = [(lam, cat.image_subobject(restrict(f, mu, lam))) for lam in lams]
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


def _lam_chain_range(x: InverseSystem, base, h: Horizon):
    if is_finite_index(x.index):
        return [l for l in x.index.members() if x.index.leq(base, l)]
    return list(range(base, h.lambda_max + 1))


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
    finite = is_finite_index(x.index)
    if not c0_objects:
        return Verdict("c0_movable_system",
                       HOLDS if finite else HOLDS_STABILIZED,
                       notes=["vacuous: empty probe class"],
                       horizon=h, witnesses=[],
                       refutation=None)
    solve = _solver()
    per_mu = []
    for lam in _outer_mus(x, h):
        probe = x.top(h.lambda_max) if not finite else x.index.greatest()
        rec = WitnessRecord(lam, probe, None)
        failed = None
        zero_probe = is_zero_morphism(x.bond(lam, probe))
        for lam2 in _deeper_lams(x, lam, h):
            for x0 in c0_objects:
                for hm in cat.enumerate_homs(x0, x.object_at(probe)):
                    r = solve(x0, x.object_at(lam2),
                              [Constraint("left", x.bond(lam, lam2),
                                          compose(x.bond(lam, probe), hm))])
                    if r is None:
                        failed = Refutation(lam, probe, lam2,
                                            "no relative movability witness")
                        break
                if failed:
                    break
            if failed:
                break
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif not finite and zero_probe:
            rec.rule = "zero-map"
            per_mu.append((_CERTIFIED, rec))
        elif not finite and _periodic_covered(x, h.muprime_max):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("c0_movable_system", per_mu, h, finite)


def c0_uniformly_movable_system(x: InverseSystem, c0_objects,
                                h: Horizon = Horizon()) -> Verdict:
    """Uniform variant: the relative witness is a cone into the whole system."""
    finite = is_finite_index(x.index)
    if not c0_objects:
        return Verdict("c0_uniformly_movable_system",
                       HOLDS if finite else HOLDS_STABILIZED,
                       notes=["vacuous: empty probe class"],
                       horizon=h, witnesses=[], refutation=None)
    solve = _solver()
    per_mu = []
    for lam in _outer_mus(x, h):
        probe = x.top(h.lambda_max) if not finite else x.index.greatest()
        top = x.top(h.cone_max) if not finite else x.index.greatest()
        rec = WitnessRecord(lam, probe, None, extra={"cone_top": top})
        failed = None
        zero_probe = is_zero_morphism(x.bond(lam, probe))
        for x0 in c0_objects:
            for hm in cat.enumerate_homs(x0, x.object_at(probe)):
                r_top = solve(x0, x.object_at(top),
                              [Constraint("left", x.bond(lam, top),
                                          compose(x.bond(lam, probe), hm))])
                if r_top is None:
                    failed = Refutation(lam, probe, top,
                                        "no relative cone top-leg")
                    break
            if failed:
                break
        if failed is not None:
            per_mu.append((_FAILED, failed))
        elif not finite and zero_probe:
            rec.rule = "zero-map"
            per_mu.append((_CERTIFIED, rec))
        elif not finite and _periodic_covered(x, h.cone_max):
            rec.rule = "eventual-periodicity"
            per_mu.append((_CERTIFIED, rec))
        else:
            per_mu.append((_EXACT if finite else _AT_HORIZON, rec))
    return _assemble("c0_uniformly_movable_system", per_mu, h, finite)


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
