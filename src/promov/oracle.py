"""Brute-force reference implementations by literal quantifier expansion.

Every property is decided by enumerating hom-sets (and cone leg families)
exhaustively, with no solvers, no canonical forms and no stabilization
rules, so agreement with the optimized checkers is meaningful evidence.
Only finite-poset systems with finite objects are accepted; enumeration work
is counted against a hard cap and the oracle refuses rather than samples.
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


def _verdict(prop: str, per_mu: dict, failed_mu) -> Verdict:
    if failed_mu is not None:
        return Verdict(prop, FAILS,
                       refutation=Refutation(failed_mu, None, None,
                                             "exhaustive search found no index"),
                       notes=["oracle: literal quantifier expansion"])
    recs = [WitnessRecord(mu, lams[0] if lams else None, None,
                          extra={"admissible": list(lams)})
            for mu, lams in per_mu.items()]
    return Verdict(prop, HOLDS, witnesses=recs,
                   notes=["oracle: literal quantifier expansion"])


def oracle_check(prop: str, f: SystemMorphism,
                 cap: int = ORACLE_WORK_CAP) -> Verdict:
    """Exact Holds/Fails for one of the seven properties by brute force.

    Positive verdicts carry, per outer index mu, the full set of admissible
    movability indices (used by the upward-closure suite)."""
    _require_finite(f)
    budget = _Budget(cap)
    homs = _Homs(budget)
    dispatch = {
        "movable": _movable,
        "strongly_movable": _strongly_movable,
        "uniformly_movable": _uniformly_movable,
        "co_movable": _co_movable,
        "strongly_co_movable": _strongly_co_movable,
        "uniformly_co_movable": _uniformly_co_movable,
        "mittag_leffler": _mittag_leffler,
    }
    try:
        fn = dispatch[prop]
    except KeyError:
        raise ValueError(f"unknown property {prop!r}") from None
    return fn(f, homs, budget)


def _ups(poset, a):
    return [b for b in poset.members() if poset.leq(a, b)]


def _ups2(poset, a, b):
    return [c for c in poset.members() if poset.leq(a, c) and poset.leq(b, c)]


def _movable(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        for lam in _ups(x.index, f.phi(mu)):
            ok = True
            for mu2 in _ups(y.index, mu):
                target_eq = restrict(f, mu, lam)
                found = False
                for u in homs.get(x.object_at(lam), y.object_at(mu2)):
                    budget.spend()
                    if morphisms_equal(compose(y.bond(mu, mu2), u), target_eq):
                        found = True
                        break
                if not found:
                    ok = False
                    break
            if ok:
                admissible.append(lam)
        if not admissible:
            return _verdict("movable", {}, mu)
        per_mu[mu] = admissible
    return _verdict("movable", per_mu, None)


def _strongly_movable(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        for lam in _ups(x.index, f.phi(mu)):
            flam = restrict(f, mu, lam)
            ok = True
            for mu2 in _ups(y.index, mu):
                found = False
                for u in homs.get(x.object_at(lam), y.object_at(mu2)):
                    budget.spend()
                    if not morphisms_equal(compose(y.bond(mu, mu2), u), flam):
                        continue
                    for lamstar in _ups2(x.index, lam, f.phi(mu2)):
                        budget.spend()
                        if morphisms_equal(compose(u, x.bond(lam, lamstar)),
                                           restrict(f, mu2, lamstar)):
                            found = True
                            break
                    if found:
                        break
                if not found:
                    ok = False
                    break
            if ok:
                admissible.append(lam)
        if not admissible:
            return _verdict("strongly_movable", {}, mu)
        per_mu[mu] = admissible
    return _verdict("strongly_movable", per_mu, None)


def _cone_exists(system: InverseSystem, source_obj, homs: _Homs, budget: _Budget,
                 fixed: dict = None, leg_ok=None) -> bool:
    """Exhaustive backtracking over full leg families leg: members -> Hom,
    honoring fixed legs, the predicate leg_ok(member, leg) when given, and
    cone compatibility.  Semantically identical to enumerating the full
    product of hom-sets."""
    poset = system.index
    members = list(poset.members())
    fixed = fixed or {}

    def extend(i, legs):
        if i == len(members):
            return True
        m = members[i]
        candidates = ([fixed[m]] if m in fixed
                      else homs.get(source_obj, system.object_at(m)))
        for cand in candidates:
            budget.spend()
            if leg_ok is not None and not leg_ok(m, cand):
                continue
            good = True
            for m2, l2 in legs.items():
                if poset.leq(m, m2):
                    if not morphisms_equal(compose(system.bond(m, m2), l2), cand):
                        good = False
                        break
                if poset.leq(m2, m):
                    if not morphisms_equal(compose(system.bond(m2, m), cand), l2):
                        good = False
                        break
            if good:
                legs[m] = cand
                if extend(i + 1, legs):
                    return True
                del legs[m]
        return False

    return extend(0, {})


def _uniformly_movable(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        for lam in _ups(x.index, f.phi(mu)):
            if _cone_exists(y, x.object_at(lam), homs, budget,
                            fixed={mu: restrict(f, mu, lam)}):
                admissible.append(lam)
        if not admissible:
            return _verdict("uniformly_movable", {}, mu)
        per_mu[mu] = admissible
    return _verdict("uniformly_movable", per_mu, None)


def _co_movable(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        for lam in _ups(x.index, f.phi(mu)):
            flam = restrict(f, mu, lam)
            ok = True
            for lam2 in _ups(x.index, f.phi(mu)):
                found = False
                for r in homs.get(x.object_at(lam), x.object_at(lam2)):
                    budget.spend()
                    if morphisms_equal(compose(restrict(f, mu, lam2), r), flam):
                        found = True
                        break
                if not found:
                    ok = False
                    break
            if ok:
                admissible.append(lam)
        if not admissible:
            return _verdict("co_movable", {}, mu)
        per_mu[mu] = admissible
    return _verdict("co_movable", per_mu, None)


def _strongly_co_movable(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        for lam in _ups(x.index, f.phi(mu)):
            flam = restrict(f, mu, lam)
            ok = True
            for lam2 in _ups(x.index, f.phi(mu)):
                found = False
                for r in homs.get(x.object_at(lam), x.object_at(lam2)):
                    budget.spend()
                    if not morphisms_equal(compose(restrict(f, mu, lam2), r), flam):
                        continue
                    for lamstar in _ups2(x.index, lam, lam2):
                        budget.spend()
                        if morphisms_equal(compose(r, x.bond(lam, lamstar)),
                                           x.bond(lam2, lamstar)):
                            found = True
                            break
                    if found:
                        break
                if not found:
                    ok = False
                    break
            if ok:
                admissible.append(lam)
        if not admissible:
            return _verdict("strongly_co_movable", {}, mu)
        per_mu[mu] = admissible
    return _verdict("strongly_co_movable", per_mu, None)


def _uniformly_co_movable(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        pm = f.phi(mu)
        for lam in _ups(x.index, pm):
            flam = restrict(f, mu, lam)
            # cone into the source whose leg at phi(mu) satisfies
            # f_mu o r_{phi(mu)} = f_{mu lam}: enumerate and test directly
            found = _cone_exists(x, x.object_at(lam), homs, budget,
                                 leg_ok=lambda m, leg: m != pm or morphisms_equal(
                                     compose(f.f(mu), leg), flam))
            if found:
                admissible.append(lam)
        if not admissible:
            return _verdict("uniformly_co_movable", {}, mu)
        per_mu[mu] = admissible
    return _verdict("uniformly_co_movable", per_mu, None)


def _image_set(m, budget) -> frozenset:
    budget.spend(len(_elements(m.source)))
    return frozenset(_apply(m, el) for el in _elements(m.source))


def _mittag_leffler(f, homs, budget):
    x, y = f.source, f.target
    per_mu = {}
    for mu in y.index.members():
        admissible = []
        base = f.phi(mu)
        for lam in _ups(x.index, base):
            img = _image_set(restrict(f, mu, lam), budget)
            if all(_image_set(restrict(f, mu, lam2), budget) == img
                   for lam2 in _ups(x.index, lam)):
                admissible.append(lam)
        if not admissible:
            return _verdict("mittag_leffler", {}, mu)
        per_mu[mu] = admissible
    return _verdict("mittag_leffler", per_mu, None)
