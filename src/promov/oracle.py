"""Brute-force reference implementations by literal quantifier expansion.

Every property has one form: for every mu in the target there is a
lam >= phi(mu) such that the pair (mu, lam) is admissible.  ``oracle_check``
runs that expansion once, for all seven properties, and asks one literal
predicate per property whether (mu, lam) is admissible:

- (strongly) movable: every q_{mu mu'} lifts f_{mu lam} through some
  u: X_lam -> Y_mu'; strongly, u also meets some f_{mu' lam*} at lam*;
- (strongly) co-movable: f_{mu lam} factors through every f_{mu lam'} by some
  r: X_lam -> X_lam'; strongly, r also commutes with the bonds at some lam*;
- uniformly movable: a cone from X_lam into Y has the leg f_{mu lam} at mu;
- uniformly co-movable: a cone from X_lam into X has a leg r at phi(mu) with
  f_mu r = f_{mu lam};
- Mittag-Leffler: every f_{mu lam'}, lam' >= lam, has the image of f_{mu lam}.

The predicates enumerate hom-sets (and cone leg families) exhaustively, with
no solvers, no canonical forms and no stabilization rules, so agreement with
the optimized checkers is meaningful evidence.  Only finite-poset systems
with finite objects are accepted; enumeration work is counted against a hard
cap and the oracle refuses rather than samples.
"""

from __future__ import annotations

import itertools

from .categories import (
    FgAbelianObject,
    PointedFiniteSet,
    PointedMap,
    compose,
    enumerate_homs,
    morphisms_equal,
)
from .checkers import FAILS, HOLDS, Refutation, Verdict, WitnessRecord
from .indexsets import is_finite_index
from .systems import InverseSystem, SystemMorphism, restrict

ORACLE_WORK_CAP = 2_000_000


class OracleCapExceeded(RuntimeError):
    """The instance needs more enumeration work than the cap allows."""


class OracleInputError(ValueError):
    """Sequences and infinite objects are outside the oracle's domain."""


class _Budget:
    def __init__(self, cap: int = ORACLE_WORK_CAP):
        self.cap = cap
        self.used = 0

    def spend(self, n: int = 1):
        self.used += n
        if self.used > self.cap:
            raise OracleCapExceeded(
                f"enumeration budget exceeded ({self.used} > {self.cap})")


def _require_finite(f: SystemMorphism):
    for system in (f.source, f.target):
        if not is_finite_index(system.index):
            raise OracleInputError("the oracle only accepts finite-poset systems")
        for lam in system.index.members():
            obj = system.object_at(lam)
            if isinstance(obj, FgAbelianObject) and not obj.is_finite():
                raise OracleInputError(f"infinite object at index {lam!r}")


def _elements(obj):
    if isinstance(obj, PointedFiniteSet):
        return [(x,) for x in range(obj.size)]
    return list(itertools.product(*(range(d) for d in obj.factors)))


def _apply(m, el):
    if isinstance(m, PointedMap):
        return (m.images[el[0]],)
    out = []
    for i, d in enumerate(m.target.factors):
        v = sum(m.matrix.at(i, j) * el[j] for j in range(m.matrix.cols))
        out.append(v % d if d != 0 else v)
    return tuple(out)


class _Homs:
    """Memoized exhaustive hom-set lists, charged to the budget."""

    def __init__(self, budget: _Budget):
        self.budget = budget
        self.cache = {}

    def get(self, a, b):
        key = (a, b)
        if key not in self.cache:
            homs = []
            for h in enumerate_homs(a, b):
                self.budget.spend()
                homs.append(h)
            self.cache[key] = homs
        return self.cache[key]


def oracle_check(prop: str, f: SystemMorphism,
                 cap: int = ORACLE_WORK_CAP) -> Verdict:
    """Exact Holds/Fails for one of the seven properties by brute force.

    Positive verdicts carry, per outer index mu, the full set of admissible
    movability indices (used by the upward-closure suite)."""
    _require_finite(f)
    budget = _Budget(cap)
    homs = _Homs(budget)
    try:
        admissible = _ADMISSIBLE[prop]
    except KeyError:
        raise ValueError(f"unknown property {prop!r}") from None
    notes = ["oracle: literal quantifier expansion"]
    per_mu = {}
    for mu in f.target.index.members():
        lams = [lam for lam in _ups(f.source.index, f.phi(mu))
                if admissible(f, mu, lam, homs, budget)]
        if not lams:
            return Verdict(prop, FAILS, notes=notes,
                           refutation=Refutation(mu, None, None,
                                                 "exhaustive search found no index"))
        per_mu[mu] = lams
    recs = [WitnessRecord(mu, lams[0], None, extra={"admissible": tuple(lams)})
            for mu, lams in per_mu.items()]
    return Verdict(prop, HOLDS, witnesses=recs, notes=notes)


def _ups(poset, *lows):
    return [b for b in poset.members() if all(poset.leq(a, b) for a in lows)]


def _exists(candidates, budget: _Budget, test) -> bool:
    """Some candidate passes test; each candidate tried costs one unit."""
    for c in candidates:
        budget.spend()
        if test(c):
            return True
    return False


def _movable(strong: bool):
    """Every q_{mu mu'} (mu' >= mu) has u: X_lam -> Y_mu' with
    q_{mu mu'} u = f_{mu lam}; strongly, also u p_{lam lam*} = f_{mu' lam*}
    for some lam* >= lam, phi(mu')."""
    def admissible(f, mu, lam, homs, budget):
        x, y = f.source, f.target
        flam = restrict(f, mu, lam)

        def lifts(mu2, u):
            return morphisms_equal(compose(y.bond(mu, mu2), u), flam) and (
                not strong or _exists(
                    _ups(x.index, lam, f.phi(mu2)), budget,
                    lambda ls: morphisms_equal(compose(u, x.bond(lam, ls)),
                                               restrict(f, mu2, ls))))

        return all(_exists(homs.get(x.object_at(lam), y.object_at(mu2)), budget,
                           lambda u: lifts(mu2, u))
                   for mu2 in _ups(y.index, mu))
    return admissible


def _co_movable(strong: bool):
    """Every lam' >= phi(mu) has r: X_lam -> X_lam' with
    f_{mu lam'} r = f_{mu lam}; strongly, also r p_{lam lam*} = p_{lam' lam*}
    for some lam* >= lam, lam'."""
    def admissible(f, mu, lam, homs, budget):
        x = f.source
        flam = restrict(f, mu, lam)

        def factors(lam2, r):
            return morphisms_equal(compose(restrict(f, mu, lam2), r), flam) and (
                not strong or _exists(
                    _ups(x.index, lam, lam2), budget,
                    lambda ls: morphisms_equal(compose(r, x.bond(lam, ls)),
                                               x.bond(lam2, ls))))

        return all(_exists(homs.get(x.object_at(lam), x.object_at(lam2)), budget,
                           lambda r: factors(lam2, r))
                   for lam2 in _ups(x.index, f.phi(mu)))
    return admissible


def _cone_exists(system: InverseSystem, source_obj, homs: _Homs, budget: _Budget,
                 first, fixed: dict = None, leg_ok=None) -> bool:
    """Exhaustive backtracking over full leg families leg: members -> Hom,
    honoring fixed legs, the predicate leg_ok(member, leg) when given, and
    cone compatibility.  The constrained leg at first is placed first, the
    others in members() order.  Semantically identical to enumerating the
    full product of hom-sets."""
    poset = system.index
    members = [first] + [m for m in poset.members() if m != first]
    fixed = fixed or {}
    legs = {}

    def compatible(m, cand):
        return all(
            (not poset.leq(m, m2)
             or morphisms_equal(compose(system.bond(m, m2), l2), cand))
            and (not poset.leq(m2, m)
                 or morphisms_equal(compose(system.bond(m2, m), cand), l2))
            for m2, l2 in legs.items())

    def place(i, m, cand):
        legs[m] = cand
        if extend(i + 1):
            return True
        del legs[m]
        return False

    def extend(i):
        if i == len(members):
            return True
        m = members[i]
        candidates = ([fixed[m]] if m in fixed
                      else homs.get(source_obj, system.object_at(m)))
        return _exists(candidates, budget,
                       lambda cand: (leg_ok is None or leg_ok(m, cand))
                       and compatible(m, cand) and place(i, m, cand))

    return extend(0)


def _uniformly_movable(f, mu, lam, homs, budget):
    return _cone_exists(f.target, f.source.object_at(lam), homs, budget, mu,
                        fixed={mu: restrict(f, mu, lam)})


def _uniformly_co_movable(f, mu, lam, homs, budget):
    # a cone into the source whose leg r at phi(mu) has f_mu r = f_{mu lam}
    pm, flam = f.phi(mu), restrict(f, mu, lam)
    return _cone_exists(f.source, f.source.object_at(lam), homs, budget, pm,
                        leg_ok=lambda m, leg: m != pm or morphisms_equal(
                            compose(f.f(mu), leg), flam))


def _image_set(m, budget) -> frozenset:
    budget.spend(len(_elements(m.source)))
    return frozenset(_apply(m, el) for el in _elements(m.source))


def _mittag_leffler(f, mu, lam, homs, budget):
    img = _image_set(restrict(f, mu, lam), budget)
    return all(_image_set(restrict(f, mu, lam2), budget) == img
               for lam2 in _ups(f.source.index, lam))


_ADMISSIBLE = {
    "movable": _movable(False),
    "strongly_movable": _movable(True),
    "uniformly_movable": _uniformly_movable,
    "co_movable": _co_movable(False),
    "strongly_co_movable": _co_movable(True),
    "uniformly_co_movable": _uniformly_co_movable,
    "mittag_leffler": _mittag_leffler,
}
