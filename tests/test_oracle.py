"""Brute-force reference checker: domain guards and sanity verdicts."""

import ast
import hashlib
import json
from pathlib import Path

import pytest

from promov import oracle
from promov.categories import Z
from promov.checkers import FAILS, HOLDS, PROPERTIES
from promov.cli import verdict_to_dict
from promov.families import (
    bounded_phi_morphism,
    cofinal_decreasing_phi_instance,
    constant_poset_system,
    example_2_27,
    finite_instance_corpus,
)
from promov.indexsets import FiniteDirectedPoset
from promov.oracle import (
    OracleCapExceeded,
    OracleInputError,
    oracle_check,
)
from promov.systems import identity_morphism


def test_refuses_sequences():
    F, G, f = example_2_27()
    with pytest.raises(OracleInputError):
        oracle_check("movable", f)


def test_refuses_infinite_objects():
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b")), Z(0))
    with pytest.raises(OracleInputError):
        oracle_check("movable", identity_morphism(x))


def test_constant_identity_holds_everywhere():
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b", "c")), Z(2))
    for prop in PROPERTIES:
        v = oracle_check(prop, identity_morphism(x))
        assert v.status == HOLDS


def test_admissible_sets_are_recorded_and_upward_closed():
    m = finite_instance_corpus(21, 1)[0]
    v = oracle_check("movable", m)
    assert v.status in (HOLDS, FAILS)
    if v.status == HOLDS:
        poset = m.source.index
        for rec in v.witnesses:
            adm = set(rec.extra["admissible"])
            assert adm
            for lam in adm:
                for lam2 in poset.above(lam):
                    assert lam2 in adm


def test_cap_refusal():
    x = constant_poset_system(FiniteDirectedPoset.chain(("a", "b")), Z(8))
    with pytest.raises(OracleCapExceeded):
        oracle_check("movable", identity_morphism(x), cap=3)


def test_unknown_property_rejected():
    x = constant_poset_system(FiniteDirectedPoset.chain(("a",)), Z(2))
    with pytest.raises(ValueError):
        oracle_check("nope", identity_morphism(x))


# (uniformly_movable, uniformly_co_movable) work units per instance of
# finite_instance_corpus(11, 40), with the constrained cone leg placed first;
# the cap decides the same instances while these hold.  Instance 14 is left
# out, as in the other oracle pins.
CONE_SEARCH_WORK = {
    0: (30, 56), 1: (28, 27), 2: (38, 36), 3: (23, 23), 4: (26, 24),
    5: (19, 19), 6: (78, 30), 7: (5, 5), 8: (122, 157), 9: (30, 35),
    10: (48, 57), 11: (105, 129), 12: (21, 26), 13: (81, 81),
    15: (293, 385), 17: (123, 273), 25: (190, 229), 27: (136, 214),
    39: (123, 54),
}


def test_cone_search_work_is_pinned(monkeypatch):
    budgets = []

    class Recording(oracle._Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    monkeypatch.setattr(oracle, "_Budget", Recording)
    corpus = finite_instance_corpus(11, 40)
    work = {}
    for i in CONE_SEARCH_WORK:
        row = []
        for prop in ("uniformly_movable", "uniformly_co_movable"):
            oracle_check(prop, corpus[i])
            row.append(budgets[-1].used)
        work[i] = tuple(row)
    assert work == CONE_SEARCH_WORK


# One digest over every oracle verdict (as ``verdict_to_dict`` writes it) and
# the budget units it spent, for all seven properties, and over which of those
# checks a cap of 200 units refuses.  A changed verdict, a changed admissible
# set or one budget unit spent more, less or elsewhere shows up here.
ORACLE_DIGEST = "5c1a95e488ed8c93922ad16481c76837bd4a3982c5ba65f4c15a8f66583b4036"
ORACLE_SMALL_CAP = 200
ORACLE_SMALL_CAP_REFUSALS = 48


def _oracle_pin_corpus():
    corpus = [m for i, m in enumerate(finite_instance_corpus(11, 40)) if i != 14]
    corpus += [bounded_phi_morphism(s) for s in range(20)]
    corpus += [cofinal_decreasing_phi_instance(s) for s in range(20)]
    return corpus


def test_oracle_verdicts_and_work_are_pinned(monkeypatch):
    budgets = []

    class Recording(oracle._Budget):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            budgets.append(self)

    monkeypatch.setattr(oracle, "_Budget", Recording)
    h = hashlib.sha256()
    refused = 0
    for i, m in enumerate(_oracle_pin_corpus()):
        for prop in PROPERTIES:
            v = oracle_check(prop, m)
            h.update(json.dumps(verdict_to_dict(v), sort_keys=True).encode())
            h.update(f"|{budgets[-1].used}|".encode())
            try:
                oracle_check(prop, m, cap=ORACLE_SMALL_CAP)
            except OracleCapExceeded:
                refused += 1
                h.update(f"refused {i} {prop}|".encode())
    assert refused == ORACLE_SMALL_CAP_REFUSALS
    assert h.hexdigest() == ORACLE_DIGEST


def test_oracle_stays_literal_and_separate():
    # the oracle is a reference only while it shares no decision code with
    # the checkers: no solver, subobject or canonical form may enter it
    imported = {}  # module's last dotted part -> names taken, "*" for all
    tree = ast.parse(Path(oracle.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.setdefault(alias.name.rsplit(".", 1)[-1], set()).add("*")
        elif isinstance(node, ast.ImportFrom):
            module = (node.module or "").rsplit(".", 1)[-1]
            for alias in node.names:
                if module in ("", "promov"):  # from . import <module>
                    imported.setdefault(alias.name, set()).add("*")
                else:
                    imported.setdefault(module, set()).add(alias.name)
    assert "intlinalg" not in imported
    assert imported.get("checkers", set()) <= {
        "FAILS", "HOLDS", "Refutation", "Verdict", "WitnessRecord"}
    assert imported.get("categories", set()) <= {
        "FgAbelianObject", "FgAbelianMorphism", "PointedFiniteSet",
        "PointedMap", "compose", "enumerate_homs", "morphisms_equal"}
