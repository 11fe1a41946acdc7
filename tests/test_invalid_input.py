"""Invalid finite input: refused by every checker, decided by the oracle.

The checkers' shortcuts (probe only the greatest element, fix a cone by its
top leg, take lambda* = lambda) are sound only on inverse systems and their
morphisms.  So a finite-poset morphism is checked only once
``systems.violations`` is empty, and is refused with ValueError otherwise.
The oracle expands the literal definitions and stays unvalidated; on these
inputs it is the only source of Fails.  The three inputs break the axioms on
purpose:

- a non-coherent morphism on the 2-chain (Z/4, identity components, target
  bond x2);
- the identity of a non-functorial 3-chain on Z/4 (p_ab = p_bc = 1, p_ac = x2);
- a non-functorial 3-chain on Z/4 (q_ab = x2, q_bc = q_ac = 1), also under
  the C0-relative checks.
"""

import hashlib
import json

import pytest

from promov import checkers
from promov.categories import Z, abelian_scalar, identity
from promov.checkers import FAILS, HOLDS, PROPERTIES, check
from promov.cli import verdict_to_dict
from promov.families import constant_poset_system, constant_system
from promov.indexsets import FiniteDirectedPoset
from promov.oracle import oracle_check
from promov.systems import (
    InverseSystem,
    SystemFlags,
    SystemMorphism,
    identity_morphism,
    violations,
)

# sha256 of the oracle's verdicts on the three inputs, all seven properties
# each, one line per verdict as verdict_to_dict writes it
ORACLE_DIGEST = "f44d031306a5bd69cb8f7a24db2f8a34bc55999cbc8d38823cdab51230abfed6"

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
    return SystemMorphism(x, y, lambda mu: mu, lambda mu: identity(Z4),
                          name="non-coherent")


def _non_functorial_identity() -> SystemMorphism:
    return identity_morphism(_z4_chain(
        ("a", "b", "c"), {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 2}))


def _c0_system() -> InverseSystem:
    return _z4_chain(("a", "b", "c"),
                     {("a", "b"): 2, ("b", "c"): 1, ("a", "c"): 1})


def _assert_refused(f, violation, run):
    """f breaks the axioms with exactly the named violation, and run refuses
    it with those words."""
    assert violations(f) == [violation]
    with pytest.raises(ValueError) as err:
        run()
    assert str(err.value) == violation


def _assert_oracle(f, failing):
    """The oracle says Fails, at the first outer index, exactly for the
    properties in failing, and Holds for the others."""
    for prop in PROPERTIES:
        v = oracle_check(prop, f)
        if prop in failing:
            assert v.status == FAILS, prop
            assert (v.refutation.mu, v.refutation.reason) == (
                "a", "exhaustive search found no index")
        else:
            assert v.status == HOLDS and v.refutation is None, prop


def _check_all(f, violation):
    for prop in PROPERTIES:
        _assert_refused(f, violation, lambda: check(prop, f))


def test_non_coherent_morphism_is_refused_and_the_oracle_fails_movability():
    f = _non_coherent()
    _check_all(f, "coherence failure at ('a', 'b')")
    _assert_oracle(f, {"movable", "strongly_movable", "uniformly_movable"})


def test_non_functorial_identity_is_refused_and_oracle_fails_strong_uniform():
    f = _non_functorial_identity()
    _check_all(f, "functoriality violation at ('a','b','c')")
    _assert_oracle(f, {"strongly_movable", "strongly_co_movable",
                       "uniformly_movable", "uniformly_co_movable"})


def test_non_functorial_system_is_refused_by_the_c0_checks():
    violation = "functoriality violation at ('a','b','c')"
    f = identity_morphism(_c0_system())
    _check_all(f, violation)
    for c0_check in (checkers.c0_movable_system,
                     checkers.c0_uniformly_movable_system):
        for probes in ([Z(2)], []):
            _assert_refused(f, violation,
                            lambda: c0_check(_c0_system(), probes))
    _assert_oracle(f, {"strongly_movable", "strongly_co_movable",
                       "uniformly_movable", "uniformly_co_movable"})


def test_diagonal_bond_that_is_not_the_identity_is_refused_by_every_checker():
    # the Z/4 2-chain with p_bb = x3 breaks the identity axiom, and with it
    # functoriality at two triples and the coherence of its identity
    x = InverseSystem(FiniteDirectedPoset.chain(("a", "b")),
                      objects={"a": Z4, "b": Z4},
                      bonds={("a", "a"): identity(Z4),
                             ("b", "b"): abelian_scalar(Z4, 3),
                             ("a", "b"): identity(Z4)})
    f = identity_morphism(x)
    assert violations(f)[0] == "bond p['b','b'] is not the identity"
    for prop in PROPERTIES:
        with pytest.raises(ValueError) as err:
            check(prop, f)
        assert str(err.value) == "; ".join(violations(f))


def test_mixed_index_kinds_are_refused_by_every_checker():
    # a finite-poset system (here flagged eventually periodic, which only a
    # sequence may be) into a sequence, and a sequence into a finite-poset
    # system: the checkers decide one index kind at a time
    chain = FiniteDirectedPoset.chain(("a", "b"))
    x = InverseSystem(chain, objects={"a": Z4, "b": Z4},
                      bonds={(a, b): identity(Z4)
                             for a in "ab" for b in chain.above(a)},
                      flags=SystemFlags(eventually_periodic=(0, 1)))
    y = constant_system(Z4)
    for f in (SystemMorphism(x, y, lambda n: "b",
                             lambda n: identity(Z4)),
              SystemMorphism(y, x, lambda a: 0,
                             lambda a: identity(Z4))):
        for prop in PROPERTIES:
            with pytest.raises(ValueError, match="index kinds differ"):
                check(prop, f)


def test_oracle_output_on_invalid_input_is_pinned():
    h = hashlib.sha256()
    for f in (_non_coherent(), _non_functorial_identity(),
              identity_morphism(_c0_system())):
        for prop in PROPERTIES:
            h.update(json.dumps(verdict_to_dict(oracle_check(prop, f)),
                                sort_keys=True).encode())
            h.update(b"\n")
    assert h.hexdigest() == ORACLE_DIGEST
