"""Directed index sets: posets and the natural chain."""

import pytest

from promov.indexsets import (
    NAT,
    FiniteDirectedPoset,
    is_finite_index,
    validate_poset,
)


def test_chain_construction():
    p = FiniteDirectedPoset.chain(("a", "b", "c"))
    assert p.leq("a", "c") and not p.leq("c", "a")
    assert p.greatest() == "c"
    assert validate_poset(p) == []


def test_label_lookup():
    p = FiniteDirectedPoset.chain(("a", "b", "c"))
    # the position map is derived state: equal tables are equal posets
    assert p == FiniteDirectedPoset.from_pairs("abc", [("a", "b"), ("b", "c")])
    assert hash(p) == hash(FiniteDirectedPoset.chain("abc"))
    assert "_pos" not in repr(p)
    with pytest.raises(ValueError):
        p.leq("a", "z")


def test_from_pairs_closure():
    p = FiniteDirectedPoset.from_pairs(("x", "y", "z"), [("x", "y"), ("y", "z")])
    assert p.leq("x", "z")  # transitive closure
    assert p.leq("x", "x")  # reflexive closure
    assert validate_poset(p) == []


def test_vee_shape():
    p = FiniteDirectedPoset.from_pairs(("a", "b", "c"), [("a", "c"), ("b", "c")])
    assert not p.leq("a", "b") and not p.leq("b", "a")
    assert p.greatest() == "c"
    assert p.above("a") == ["a", "c"]
    assert p.above("a", "b") == ["c"]
    assert p.above() == ["a", "b", "c"]


def test_invalid_posets_reported():
    # antisymmetry violation
    bad = FiniteDirectedPoset(("a", "b"), ((True, True), (True, True)))
    assert any("antisymmetry" in v for v in validate_poset(bad))
    # no upper bound for the two maximal elements
    bad = FiniteDirectedPoset(("a", "b"), ((True, False), (False, True)))
    assert any("upper bound" in v for v in validate_poset(bad))


def test_nat_index():
    assert NAT.leq(3, 7) and not NAT.leq(7, 3)
    assert NAT.above(limit=3) == range(4)
    assert NAT.above(2, 5, limit=7) == range(5, 8)
    assert not NAT.above(9, limit=7)
    assert not is_finite_index(NAT)
    assert is_finite_index(FiniteDirectedPoset.chain((0,)))


def test_greatest_requires_directedness():
    bad = FiniteDirectedPoset(("a", "b"), ((True, False), (False, True)))
    with pytest.raises(ValueError):
        bad.greatest()
