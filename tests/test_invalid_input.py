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

A finite-poset document that carries flags is refused at the door (exit 2),
and each malformed library call (a shape, size or endpoint that no
valid input has) raises its own error type and message.
"""

import hashlib
import io
import json

import pytest

from promov import checkers
from promov.categories import (
    BackendError,
    PointedFiniteSet,
    PointedMap,
    Z,
    abelian_scalar,
    enumerate_homs,
    forgetful_object,
    identity,
    zero,
)
from promov.checkers import FAILS, HOLDS, PROPERTIES, check
from promov.cli import EXIT_PARSE, main, verdict_to_dict
from promov.families import (
    constant_poset_system,
    constant_system,
    random_abelian_sequence,
    random_set_sequence,
)
from promov.indexsets import FiniteDirectedPoset, NatIndex, validate_poset
from promov.intlinalg import IntMatrix, solve_congruence_system
from promov.oracle import oracle_check
from promov.systems import (
    InverseSystem,
    SystemMorphism,
    are_equivalent,
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
    # a finite-poset system into a sequence, and a sequence into a
    # finite-poset system: the checkers decide one index kind at a time
    chain = FiniteDirectedPoset.chain(("a", "b"))
    x = InverseSystem(chain, objects={"a": Z4, "b": Z4},
                      bonds={(a, b): identity(Z4)
                             for a in "ab" for b in chain.above(a)})
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


def test_finite_system_flagged_periodic_is_refused_by_every_checker(tmp_path, capsys):
    # periodicity and epimorphy are read off a system, never declared, so a
    # document that carries flags is refused before anything is built
    z4 = {"kind": "abelian", "factors": ["4"]}
    doc = {"index": {"kind": "finite", "elements": ["a", "b"],
                     "pairs": [["a", "b"]]},
           "objects": {"a": z4, "b": z4},
           "bonds": [["a", "b", {"kind": "abelian_map", "source": z4,
                                 "target": z4, "matrix": [["1"]]}]],
           "flags": {"eventually_periodic": ["0", "1"]}}
    path = tmp_path / "flagged.json"
    path.write_text(json.dumps(doc))
    for command in [["validate"]] + [["check", prop] for prop in PROPERTIES]:
        out = io.StringIO()
        assert main(command + [str(path)], out) == EXIT_PARSE
        assert out.getvalue() == ""
        assert capsys.readouterr().err == ("error: a finite document cannot carry "
                                           "'flags'; its facts are read off its tables\n")


def _poset(labels, rows) -> FiniteDirectedPoset:
    return FiniteDirectedPoset(tuple(labels), tuple(map(tuple, rows)))


S2 = PointedFiniteSet(2)
T, F = True, False

# malformed library calls: (call, error type, message)
REFUSALS = {
    "order of Z": (lambda: Z(0).order(), BackendError, "object is infinite"),
    "pointed set of size 0": (
        lambda: PointedFiniteSet(0), ValueError,
        "a pointed set has at least the basepoint"),
    "pointed map table too short": (
        lambda: PointedMap(S2, S2, (0,)), BackendError,
        "image table length does not match source size"),
    "pointed map image out of range": (
        lambda: PointedMap(S2, S2, (0, 2)), BackendError, "image out of range"),
    "homs from Z to Z": (
        lambda: next(enumerate_homs(Z(0), Z(0))), BackendError,
        "hom-set is infinite"),
    "homs from a group to a pointed set": (
        lambda: next(enumerate_homs(Z(2), S2)), BackendError,
        "cannot count homs across backends"),
    "homs from a pointed set to a group": (
        lambda: next(enumerate_homs(S2, Z(2))), BackendError,
        "cannot count homs across backends"),
    "C0 probe of the other backend, pointed sets": (
        lambda: checkers.c0_movable_system(random_set_sequence(3), [Z(2)]),
        BackendError, "cannot count homs across backends"),
    "C0 probe of the other backend, groups": (
        lambda: checkers.c0_movable_system(random_abelian_sequence(5), [S2]),
        BackendError, "cannot count homs across backends"),
    "homs over the cap": (
        lambda: next(enumerate_homs(PointedFiniteSet(20), S2)), BackendError,
        "hom-set size 524288 exceeds enumeration cap"),
    "forget Z": (
        lambda: forgetful_object(Z(0)), BackendError,
        "cannot forget an infinite group to a finite set"),
    "poset table shape": (
        lambda: _poset("ab", [[T, T]]), ValueError,
        "leq table shape must match element count"),
    "empty poset": (
        lambda: _poset("", []), ValueError,
        "a directed poset needs at least one element"),
    "poset labels repeat": (
        lambda: _poset("aa", [[T, T], [T, T]]), ValueError,
        "element labels must be distinct"),
    "mul shapes": (
        lambda: IntMatrix(2, 2, (1, 0, 0, 1)).mul(IntMatrix(3, 1, (1, 2, 3))),
        ValueError, "cannot multiply 2x2 by 3x1"),
    "mul_vector length": (
        lambda: IntMatrix(2, 2, (1, 0, 0, 1)).mul_vector([1, 2, 3]),
        ValueError, "vector length mismatch"),
    "det of a non-square matrix": (
        lambda: IntMatrix(1, 2, (1, 2)).det(), ValueError,
        "determinant of non-square matrix"),
    "congruence dimensions": (
        lambda: solve_congruence_system(IntMatrix(1, 1, (1,)), [1, 2], [0]),
        ValueError, "dimension mismatch between matrix, rhs and moduli"),
    "finite system without tables": (
        lambda: InverseSystem(FiniteDirectedPoset.chain(("a",)),
                              objects={"a": Z4}),
        ValueError, "finite-poset systems need objects and bonds tables"),
    "epimorphy declared with tables": (
        lambda: InverseSystem(FiniteDirectedPoset.chain(("a",)),
                              objects={"a": Z4}, bonds={("a", "a"): identity(Z4)},
                              all_bondings_epimorphic=True),
        ValueError, "only a rule-built sequence declares epimorphy"),
    "sequence system without rules": (
        lambda: InverseSystem(NatIndex(), object_rule=lambda n: Z4), ValueError,
        "sequence systems need object and step rules"),
    "bond of a non-comparable pair": (
        lambda: InverseSystem(
            FiniteDirectedPoset.from_pairs("abc", [("a", "c"), ("b", "c")]),
            objects={}, bonds={}).bond("a", "b"),
        ValueError, "bond requested for non-comparable pair ('a', 'b')"),
    "bond of a reversed pair on a chain": (
        lambda: InverseSystem(FiniteDirectedPoset.chain(("a", "b")),
                              objects={}, bonds={}).bond("b", "a"),
        ValueError, "bond requested for reversed pair ('b', 'a')"),
    "bond of a reversed pair on NAT": (
        lambda: constant_system(Z4).bond(5, 3),
        ValueError, "bond requested for reversed pair (5, 3)"),
    "presentation with a negative offset": (
        lambda: InverseSystem.periodic([Z4], [identity(Z4)], -1), ValueError,
        "offset must be an int in [0, 1), not -1"),
    "presentation with a non-int offset": (
        lambda: InverseSystem.periodic([Z4], [identity(Z4)], True), ValueError,
        "offset must be an int in [0, 1), not True"),
    "presentation with an empty period": (
        lambda: InverseSystem.periodic([Z4], [identity(Z4)], 1), ValueError,
        "offset must be an int in [0, 1), not 1"),
    "presentation with a step too few": (
        lambda: InverseSystem.periodic([Z4, Z4], [identity(Z4)], 0), ValueError,
        "2 objects need as many steps, not 1"),
    "presentation whose last step misses X_offset": (
        # X_2 is X_1, so the step into X_1 must start at Z/4, not Z/2
        lambda: InverseSystem.periodic(
            [Z(2), Z4], [zero(Z4, Z(2)), zero(Z(2), Z4)], 1), ValueError,
        "step 1 has wrong endpoints"),
    "presentation with a step into the wrong object": (
        lambda: InverseSystem.periodic(
            [Z(2), Z4], [zero(Z4, Z4), identity(Z4)], 1), ValueError,
        "step 0 has wrong endpoints"),
    "equivalence across endpoints": (
        lambda: are_equivalent(identity_morphism(constant_system(Z4)),
                               identity_morphism(constant_system(Z(2)))),
        BackendError, "equivalence requires identical endpoints"),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_malformed_library_calls_are_refused(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error and str(err.value) == message


@pytest.mark.parametrize("rows, report", [
    ([[F, T], [F, T]], ["reflexivity fails at 'a'"]),
    # a <= b <= c, not a <= c, with d on top
    ([[T, T, F, T], [F, T, T, T], [F, F, T, T], [F, F, F, T]],
     ["transitivity fails at ('a', 'b', 'c')"]),
])
def test_validate_poset_reports_reflexivity_and_transitivity(rows, report):
    assert validate_poset(_poset("abcd"[:len(rows)], rows)) == report
