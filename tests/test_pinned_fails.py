"""The exact Fails path of the checkers, pinned on hand-built invalid inputs.

No seeded corpus reaches Fails: on a valid finite system every morphism the
generators build is coherent, and the checkers then hold.  These three inputs
break the axioms on purpose, so the exact refutations are exercised:

- a non-coherent morphism on the 2-chain (Z/4, identity components, target
  bond x2);
- the identity of a non-functorial 3-chain on Z/4 (p_ab = p_bc = 1, p_ac = x2);
- a non-functorial 3-chain on Z/4 (q_ab = x2, q_bc = q_ac = 1) under the
  C0-relative checks.

Validating once per morphism will turn these inputs into refusals; until
then this test pins what ``verdict_to_dict`` writes for them.
"""

import hashlib
import json

from promov import checkers
from promov.categories import Z, abelian_scalar, identity
from promov.checkers import FAILS, HOLDS, PROPERTIES, check
from promov.cli import verdict_to_dict
from promov.families import constant_poset_system
from promov.indexsets import FiniteDirectedPoset, IndexMap
from promov.systems import InverseSystem, SystemMorphism, identity_morphism

PINNED_DIGEST = "ff5fd3dcee8f2feaf5dfeb6d76822fec9355c6bfc505426fd5581afd28fd6755"

Z4 = Z(4)


def _z4_chain(labels, scalars) -> InverseSystem:
    """Z/4 at every index of a chain; bond (lo, hi) is x scalars[(lo, hi)]."""
    bonds = {(a, a): identity(Z4) for a in labels}
    bonds.update({pair: abelian_scalar(Z4, c) for pair, c in scalars.items()})
    return InverseSystem(FiniteDirectedPoset.chain(labels),
                         objects={a: Z4 for a in labels}, bonds=bonds,
                         name="z4-chain")


def _non_coherent() -> SystemMorphism:
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b")), Z4)
    y = _z4_chain(("a", "b"), {("a", "b"): 2})
    return SystemMorphism(x, y, IndexMap.identity(x.index),
                          lambda mu: identity(Z4), name="non-coherent")


def _non_functorial_identity() -> SystemMorphism:
    return identity_morphism(_z4_chain(
        ("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2}))


def _c0_system() -> InverseSystem:
    return _z4_chain(("a", "b", "c"),
                     {("a", "b"): 2, ("b", "c"): 1, ("a", "c"): 1})


def _verdicts():
    for f in (_non_coherent(), _non_functorial_identity(),
              identity_morphism(_c0_system())):
        for prop in PROPERTIES:
            yield check(prop, f)
    yield checkers.c0_movable_system(_c0_system(), [Z(2)])
    yield checkers.c0_uniformly_movable_system(_c0_system(), [Z(2)])


def _status(v):
    return v.status, None if v.refutation is None else v.refutation.reason


def test_non_coherent_morphism_fails_movability():
    f = _non_coherent()
    assert _status(check("movable", f)) == (
        FAILS, "no factorization through the deeper bond")
    assert _status(check("strongly_movable", f)) == (
        FAILS, "no factorization through the deeper bond")
    assert _status(check("uniformly_movable", f)) == (
        FAILS, "no cone top-leg factorization")


def test_non_functorial_identity_fails_the_strong_properties():
    f = _non_functorial_identity()
    assert _status(check("strongly_movable", f)) == (
        FAILS, "no two-sided witness for any lambda*")
    assert _status(check("strongly_co_movable", f)) == (
        FAILS, "no two-sided co-witness for any lambda*")


def test_non_functorial_system_fails_c0_movability():
    v = checkers.c0_movable_system(_c0_system(), [Z(2)])
    assert _status(v) == (FAILS, "no relative movability witness")
    assert checkers.c0_uniformly_movable_system(_c0_system(), [Z(2)]).status == HOLDS


def test_exact_fails_output_is_pinned():
    h = hashlib.sha256()
    for v in _verdicts():
        h.update(json.dumps(verdict_to_dict(v), sort_keys=True).encode())
        h.update(b"\n")
    assert h.hexdigest() == PINNED_DIGEST
