"""Metamorphic box relation: a larger box never refutes a certified tail.

HoldsStabilized at a box B certifies the property past every box, so no box
whose four bounds are all >= B's may give FailsAtHorizon for the same check.
The relation is run on every check (the seven morphism properties, plus the
three system checks on a system's identity) over a sample of the random
sequence corpus, the domination pairs, constant systems and inputs that
have broken it, at boxes that include a lambda_max above muprime_max and
the three ladder rungs.  ROADMAP item 2 keeps the inputs still open.
"""

from __future__ import annotations

from itertools import product

import pytest

from promov.categories import FgAbelianMorphism, Z, abelian_scalar, zero
from promov.checkers import (
    FAILS_AT_HORIZON,
    HOLDS_STABILIZED,
    PROPERTIES,
    Horizon,
    HorizonError,
    check,
    movable_system,
    strongly_movable_system,
    uniformly_movable_system,
)
from promov.families import (
    constant_system,
    domination_pair,
    random_sequence_morphism,
)
from promov.indexsets import NAT
from promov.intlinalg import IntMatrix
from promov.systems import InverseSystem

BOXES = (Horizon(0, 12, 5, 13), Horizon(), Horizon(6, 20, 13, 13),
         Horizon(6, 20, 21, 21), Horizon(10, 30, 31, 31), Horizon(14, 30, 31, 31),
         Horizon(16, 30, 31, 31), Horizon(14, 52, 53, 53))

SYSTEM_CHECKS = (movable_system, strongly_movable_system, uniformly_movable_system)


def _inside(a: Horizon, b: Horizon) -> bool:
    return all(getattr(a, k) <= getattr(b, k)
               for k in ("mu_max", "lambda_max", "muprime_max", "cone_max"))


def _checks(f):
    """(name, check(h)) for every check on f."""
    out = [(prop, lambda h, prop=prop: check(prop, f, h)) for prop in PROPERTIES]
    if f is f.source.identity_morphism:
        out += [(c.__name__, lambda h, c=c: c(f.source, h)) for c in SYSTEM_CHECKS]
    return out


def _broken(f) -> list:
    """(check, B, B') for each check HoldsStabilized at B and FailsAtHorizon
    at a box B' containing B."""
    out = []
    for name, run in _checks(f):
        status = {}
        for h in BOXES:
            try:
                status[h] = run(h).status
            except HorizonError:
                pass
        out += [(name, a, b) for a, b in product(status, repeat=2)
                if _inside(a, b) and status[a] == HOLDS_STABILIZED
                and status[b] == FAILS_AT_HORIZON]
    return out


def _key_tail():
    # (Z, x2) presented with offset 0 and period 1
    return InverseSystem.periodic([Z(0)], [abelian_scalar(Z(0), 2)], 0)


def _late(late_object, late_step):
    # Z/1 through 13, joined by zero steps, then the given tower from 14 on
    def obj(n):
        return Z(1) if n < 14 else late_object(n)

    return InverseSystem(NAT, object_rule=obj, step_rule=lambda n: (
        zero if n < 14 else late_step)(obj(n + 1), obj(n)))


def _late_doubling():
    # then (Z, x2)
    return _late(lambda n: Z(0), lambda a, b: abelian_scalar(a, 2))


def _late_g():
    # then example 2.27's G: Z/2^(n-13) with reduction bonds
    return _late(lambda n: Z(2 ** (n - 13)),
                 lambda a, b: FgAbelianMorphism(a, b, IntMatrix.from_rows([[1]])))


def _morphisms():
    for backend in ("abelian", "pointed_set"):
        for seed in range(0, 256, 64):
            yield f"{backend}/{seed}", random_sequence_morphism(seed, backend)
    for seed in range(3):
        for f in domination_pair(seed):
            yield f"domination/{seed}/{f.name}", f
    for obj in (Z(0), Z(4)):
        yield f"constant/{obj.factors}", constant_system(obj).identity_morphism
    yield "key tail", _key_tail().identity_morphism


MORPHISMS = dict(_morphisms())


@pytest.mark.parametrize("name", list(MORPHISMS))
def test_a_larger_box_never_refutes_a_certified_tail(name):
    assert _broken(MORPHISMS[name]) == []


@pytest.mark.parametrize("build", [
    pytest.param(_late_doubling, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: late doubling, zero-map mu tail")),
    pytest.param(_late_g, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 2: late G, mu tail on finite objects")),
])
def test_open_inputs_break_the_box_relation(build):
    assert _broken(build().identity_morphism) == []
