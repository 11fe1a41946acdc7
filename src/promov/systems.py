"""Inverse systems, morphisms of inverse systems, and their calculus.

Finite-poset systems carry full bond tables and are checked exactly.
Sequence systems (over the natural-number chain) carry generator rules for
objects and step bonds; all judgments about them are horizon-bounded.  A
system morphism's index function phi is a plain callable.  A system hands
out one value per request: each object, step and identity bond is built
once, and each composite bond is composed once, all kept in the system's
tables (the step bonds in the bond table, under (n, n + 1)).  A system
morphism caches its components f_mu and its restrictions f_{mu lam} the
same way: each is built or composed once per morphism.

On a sequence a missing composite is derived from its nearest cached
neighbour, one compose per stage: a bond from a shorter bond with the same
low end or the same high end, a restriction f_{mu lam} from f_{mu, lam-1}.
So the order of the requests decides which composites are formed, but never
a value.  Every abelian morphism is stored canonically, in residues mod its
target's factors, and that matrix is determined by the homomorphism alone;
so every bracketing of one chain of steps gives equal entries.  Pointed maps
compose exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

from . import categories as cat
from .categories import BackendError, Morphism, Object, compose, identity, morphisms_equal
from .indexsets import IndexSet, is_finite_index


@dataclass(frozen=True)
class SystemFlags:
    """Declared structural facts used by stabilization rules (spot-verified
    by validate_system up to the working horizon, never assumed silently).
    A periodicity flag that is not a tuple of two ints, offset >= 0 and
    period >= 1, is a ValueError: with it the eventual-periodicity rule
    would certify a tail it never looked at."""

    all_bondings_epimorphic: bool = False
    eventually_periodic: Optional[tuple] = None  # (offset, period)

    def __post_init__(self):
        ep = self.eventually_periodic
        if ep is not None and not (
                isinstance(ep, tuple) and len(ep) == 2
                and all(type(v) is int for v in ep) and ep[0] >= 0 and ep[1] >= 1):
            raise ValueError("eventually_periodic must be a tuple (offset, period) "
                             f"of ints, offset >= 0 and period >= 1, not {ep!r}")


class InverseSystem:
    """Objects X_lambda with bonds p[lam, lam'] : X_{lam'} -> X_lam.

    Finite posets: pass ``objects`` (label -> object) and ``bonds``
    ((lo, hi) -> morphism) for every comparable pair.  Sequences: pass
    ``object_rule`` (n -> object) and ``step_rule`` (n -> morphism
    X_{n+1} -> X_n).
    """

    def __init__(self, index: IndexSet, *, objects=None, bonds=None,
                 object_rule: Callable = None, step_rule: Callable = None,
                 flags: SystemFlags = SystemFlags(), name: str = ""):
        self.index = index
        self.flags = flags
        self.name = name
        if is_finite_index(index):
            if objects is None or bonds is None:
                raise ValueError("finite-poset systems need objects and bonds tables")
            self._objects = dict(objects)
            self._bonds = dict(bonds)
            self._object_rule = None
            self._step_rule = None
        else:
            if object_rule is None or step_rule is None:
                raise ValueError("sequence systems need object and step rules")
            self._objects = {}
            self._bonds = {}
            self._object_rule = object_rule
            self._step_rule = step_rule

    def object_at(self, lam) -> Object:
        if self._object_rule is not None:
            if lam not in self._objects:
                self._objects[lam] = self._object_rule(lam)
            return self._objects[lam]
        return self._objects[lam]

    def bond(self, lo, hi) -> Morphism:
        """p_{lo,hi} : X_hi -> X_lo, for lo <= hi.

        On a sequence the step bond p_{n,n+1} is step_rule(n), built once
        and kept in the bond table.  A longer miss extends the deepest cached
        p_{lo,k}, lo + 1 < k < hi, up to hi.  Without one it builds p_{n,hi}
        down from the shallowest cached p_{m,hi}, m > lo, or from the step
        bond into hi.  Each stage is one compose, cached on the way.  A step
        bond p_{lo,lo+1} starts no chain up: restrict caches the step bonds
        everywhere, and a chain from one saves a single compose but fills
        no p_{n,hi} for the next low end n to ask for."""
        if not self.index.leq(lo, hi):
            raise ValueError(f"bond requested for non-comparable pair ({lo!r}, {hi!r})")
        if lo == hi:
            return self._identity(lo)
        if self._step_rule is not None:
            bonds = self._bonds
            p = bonds.get((lo, hi))
            if p is None:
                if hi == lo + 1:
                    p = bonds[(lo, hi)] = self._step_rule(lo)
                    return p
                k = hi - 1
                while k > lo + 1 and (lo, k) not in bonds:
                    k -= 1
                if k > lo + 1:
                    # up: p_{lo,n+1} = p_{lo,n} o p_{n,n+1}
                    p = bonds[(lo, k)]
                    for n in range(k, hi):
                        p = bonds[(lo, n + 1)] = compose(p, self.bond(n, n + 1))
                else:
                    # down: p_{n,hi} = p_{n,n+1} o p_{n+1,hi}
                    m = lo + 1
                    while m < hi - 1 and (m, hi) not in bonds:
                        m += 1
                    p = self.bond(m, hi)
                    for n in range(m - 1, lo - 1, -1):
                        p = bonds[(n, hi)] = compose(self.bond(n, n + 1), p)
            return p
        return self._bonds[(lo, hi)]

    def _identity(self, lam) -> Morphism:
        # finite tables may carry (possibly wrong) diagonal entries that
        # validate_system must be able to see; otherwise the identity is
        # built once and kept in the bond table
        p = self._bonds.get((lam, lam))
        if p is None:
            p = self._bonds[(lam, lam)] = identity(self.object_at(lam))
        return p

    @cached_property
    def identity_morphism(self) -> SystemMorphism:
        """1_X, built on first use and kept: the system-level checks share
        it, and with it the violations list it keeps."""
        return identity_morphism(self)

    def top(self, horizon: int):
        """Greatest in-range index: poset greatest element, or the horizon."""
        if is_finite_index(self.index):
            return self.index.greatest()
        return horizon


class SystemMorphism:
    """(f_mu, phi) : X -> Y, with f_mu : X_{phi(mu)} -> Y_mu.

    phi is any callable from Y's indices to X's, monotone or not: a table's
    ``__getitem__`` on a finite poset, a closed-form rule on the chain."""

    def __init__(self, source: InverseSystem, target: InverseSystem,
                 phi: Callable, component: Callable, name: str = ""):
        self.source = source
        self.target = target
        self.phi = phi
        self._component = component
        self.name = name
        self._components = {}  # mu -> f_mu, filled by f
        self._restrictions = {}  # (mu, lam) -> f_{mu lam}, filled by restrict
        self._violations = None  # the list violations(f) computes once

    def f(self, mu) -> Morphism:
        c = self._components.get(mu)
        if c is None:
            c = self._components[mu] = self._component(mu)
        return c


# ---------------------------------------------------------------------------
# validation


def _step_pairs(idx: IndexSet, horizon: int) -> list:
    """The pairs a < b a validation walks: every comparable pair of a finite
    poset, or the adjacent pairs (n, n + 1) below the horizon on the chain."""
    if is_finite_index(idx):
        return [(a, b) for a in idx.members() for b in idx.above(a) if b != a]
    return [(n, n + 1) for n in range(horizon)]


def validate_system(x: InverseSystem, horizon: int = 8) -> list:
    """Identity and functoriality of the bonds; declared flags spot-checked.

    Exhaustive on finite posets; checked through the horizon on sequences
    (functoriality there holds by construction, steps being the generators).
    """
    out = []
    idx = x.index
    members = idx.above(limit=horizon)
    for lam in members:
        b = x.bond(lam, lam)
        if not morphisms_equal(b, identity(x.object_at(lam))):
            out.append(f"bond p[{lam!r},{lam!r}] is not the identity")
    if is_finite_index(idx):
        for a in members:
            for b in idx.above(a):
                bond = x.bond(a, b)
                if bond.source != x.object_at(b) or bond.target != x.object_at(a):
                    out.append(f"bond p[{a!r},{b!r}] has wrong endpoints")
                    continue
                for c in idx.above(b):
                    lhs = compose(x.bond(a, b), x.bond(b, c))
                    if not morphisms_equal(lhs, x.bond(a, c)):
                        out.append(f"functoriality violation at ({a!r},{b!r},{c!r})")
    else:
        for n in range(horizon):
            step = x.bond(n, n + 1)
            if step.source != x.object_at(n + 1) or step.target != x.object_at(n):
                out.append(f"step bond at {n} has wrong endpoints")
    if x.flags.all_bondings_epimorphic:
        for a, b in _step_pairs(idx, horizon):
            if not cat.is_epimorphism(x.bond(a, b)):
                out.append(f"declared epimorphic, but p[{a!r},{b!r}] is not epi")
    if x.flags.eventually_periodic is not None:
        off, per = x.flags.eventually_periodic
        if is_finite_index(idx):
            out.append("eventually_periodic flag only applies to sequences")
        else:
            for n in range(off, horizon - per):
                if x.object_at(n) != x.object_at(n + per):
                    out.append(f"declared periodic, but objects differ at {n} vs {n + per}")
                    break
                s1, s2 = x.bond(n, n + 1), x.bond(n + per, n + per + 1)
                if not morphisms_equal(s1, s2):
                    out.append(f"declared periodic, but steps differ at {n} vs {n + per}")
                    break
    return out


def restrict(f: SystemMorphism, mu, lam) -> Morphism:
    """f_{mu lam} = f_mu o p_{phi(mu) lam}, defined for lam >= phi(mu).

    Composed once per morphism and cached on it, like the source's bonds;
    a lam below phi(mu) raises ValueError and caches nothing.  On a sequence
    with f_{mu, lam-1} cached it is f_{mu, lam-1} o p_{lam-1, lam}, one
    compose and the same value (see the module docstring)."""
    table = f._restrictions
    r = table.get((mu, lam))
    if r is None:
        x = f.source
        prev = None if is_finite_index(x.index) else table.get((mu, lam - 1))
        if prev is not None:
            r = compose(prev, x.bond(lam - 1, lam))
        else:
            pm = f.phi(mu)
            if not x.index.leq(pm, lam):
                raise ValueError(f"restriction index {lam!r} is not >= phi({mu!r}) = {pm!r}")
            r = compose(f.f(mu), x.bond(pm, lam))
        table[(mu, lam)] = r
    return r


def validate_morphism(f: SystemMorphism, horizon: int = 8) -> list:
    """Component endpoints plus the coherence condition with the bonds.

    Coherence for (mu, mu'): some lam >= phi(mu), phi(mu') has
    f_{mu lam} = q_{mu mu'} o f_{mu' lam}.  Sequences check adjacent pairs
    (coherence composes up the chain), searching lam up to 2*horizon + 1,
    deep enough for witnesses like lam = 2*mu + 1.
    """
    lambda_horizon = 2 * horizon + 1
    out = []
    x, y = f.source, f.target
    for mu in y.index.above(limit=horizon):
        comp = f.f(mu)
        if comp.source != x.object_at(f.phi(mu)) or comp.target != y.object_at(mu):
            out.append(f"component at {mu!r} has wrong endpoints")
    if out:
        return out
    for mu, mu2 in _step_pairs(y.index, horizon):
        lows = (f.phi(mu), f.phi(mu2))
        # on the chain the candidates always reach the larger low
        limit = (lambda_horizon if is_finite_index(x.index)
                 else max(lambda_horizon, *lows))
        if not any(morphisms_equal(restrict(f, mu, lam),
                                   compose(y.bond(mu, mu2), restrict(f, mu2, lam)))
                   for lam in x.index.above(*lows, limit=limit)):
            out.append(f"coherence failure at ({mu!r}, {mu2!r})")
    return out


def violations(f: SystemMorphism) -> list:
    """What ``promov validate`` lists for f, computed once and kept on f:
    validate_system on the source and a distinct target, then
    validate_morphism."""
    if f._violations is None:
        out = []
        for x in (f.source,) if f.target is f.source else (f.source, f.target):
            out += validate_system(x)
        f._violations = out + validate_morphism(f)
    return f._violations


# ---------------------------------------------------------------------------
# the pro-category structure


def identity_morphism(x: InverseSystem) -> SystemMorphism:
    return SystemMorphism(x, x, lambda lam: lam,
                          lambda lam: identity(x.object_at(lam)),
                          name=f"1_{x.name}" if x.name else "identity")


def compose_morphisms(g: SystemMorphism, f: SystemMorphism) -> SystemMorphism:
    """(g_nu, psi) o (f_mu, phi) = (g_nu o f_{psi(nu)}, phi o psi)."""
    if g.source is not f.target and g.source != f.target:
        raise BackendError("composition endpoint mismatch")
    psi, phi = g.phi, f.phi
    return SystemMorphism(f.source, g.target, lambda nu: phi(psi(nu)),
                          lambda nu: compose(g.f(nu), f.f(psi(nu))),
                          name=f"{g.name}o{f.name}")


def are_equivalent(f: SystemMorphism, g: SystemMorphism,
                   mu_max: int = 6, lambda_max: int = 16) -> bool:
    """The pro-morphism equivalence: each mu admits lam' >= phi(mu), phi'(mu)
    with f_{mu lam'} = g_{mu lam'}.

    Exact on finite posets.  On sequences only the maximal in-range lam' is
    tested: equality at any smaller lam' propagates upward by composing both
    sides with a bond, so this is sound and horizon-complete.
    """
    if f.source != g.source or f.target != g.target:
        raise BackendError("equivalence requires identical endpoints")
    x, y = f.source, f.target
    for mu in y.index.above(limit=mu_max):
        lows = (f.phi(mu), g.phi(mu))
        cands = (x.index.above(*lows) if is_finite_index(x.index)
                 else [max(lambda_max, *lows)])
        if not any(morphisms_equal(restrict(f, mu, lam), restrict(g, mu, lam))
                   for lam in cands):
            return False
    return True
