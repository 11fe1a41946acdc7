"""The full structured output of the checkers, pinned by two digests.

PINNED_DIGEST covers every field ``verdict_to_dict`` writes: statuses,
witness indices, rules, witness morphisms, ``lambda_star`` / ``cone_top``
extras, refutations and notes.  It was recorded before the six morphism
checkers were folded into one search, so any change to what a verdict says
shows up here.

STATUS_DIGEST covers the same verdicts with every witness morphism dropped
and its key kept.  A change that only picks a different particular solution
of a factorization problem moves PINNED_DIGEST, which must then be
re-recorded, and must leave STATUS_DIGEST as it is.
"""

import hashlib
import json
from functools import cache

from promov import checkers
from promov.categories import PointedFiniteSet, Z
from promov.checkers import PROPERTIES, Horizon, check
from promov.cli import verdict_to_dict
from promov.families import (
    constant_poset_system,
    constant_system,
    domination_pair,
    example_2_27,
    finite_instance_corpus,
    random_sequence_morphism,
    retraction_with_section,
)
from promov.indexsets import FiniteDirectedPoset
from promov.systems import identity_morphism

PINNED_DIGEST = "d69ff410d5b92003440303f06d768a971ffabcc43c9fdf7892a2848f0e2e0c12"
STATUS_DIGEST = "48fdf9addd799be88aeb004c1048917d045743cdf418a6d43487680dadd4be2d"

HORIZONS = (Horizon(), Horizon(10, 30, 31, 31))


def _morphism_verdicts():
    for f in finite_instance_corpus(7, 120):
        for prop in PROPERTIES:
            yield check(prop, f, Horizon())
    for s in range(4):
        for f in (domination_pair(s)[0], retraction_with_section(s)[0]):
            for prop in PROPERTIES:
                yield check(prop, f, Horizon())
    for backend in ("abelian", "pointed_set"):
        for s in range(24):
            f = random_sequence_morphism(s, backend)
            for prop in PROPERTIES:
                yield check(prop, f, Horizon())
    for h in HORIZONS:
        F, G, f = example_2_27()
        for m in (f, identity_morphism(F), identity_morphism(G)):
            for prop in PROPERTIES:
                yield check(prop, m, h)


def _system_verdicts():
    F, G, _ = example_2_27()
    systems = (F, G, constant_system(Z(2)), constant_system(PointedFiniteSet(3)),
               constant_poset_system(FiniteDirectedPoset.chain(("a", "b", "c")), Z(4)))
    for h in HORIZONS:
        for x in systems:
            yield checkers.movable_system(x, h)
            yield checkers.strongly_movable_system(x, h)
            yield checkers.uniformly_movable_system(x, h)
    probes = ((G, [Z(2)]), (G, [Z(2), Z(4)]), (F, [Z(2)]),
              (constant_system(PointedFiniteSet(3)), [PointedFiniteSet(2)]),
              (constant_poset_system(FiniteDirectedPoset.chain(("a", "b")), Z(4)),
               [Z(2)]))
    for x, c0 in probes:
        yield checkers.c0_movable_system(x, c0, Horizon())
        yield checkers.c0_uniformly_movable_system(x, c0, Horizon())


def _without_witness_morphisms(d: dict) -> dict:
    return {**d, "witnesses": [{**w, "witnesses": [k for k, _ in w["witnesses"]]}
                               for w in d["witnesses"]]}


@cache
def structured_output_digests() -> tuple:
    """(full digest, status digest) over one pass of the verdicts."""
    full, status = hashlib.sha256(), hashlib.sha256()
    for v in (*_morphism_verdicts(), *_system_verdicts()):
        d = verdict_to_dict(v)
        for h, doc in ((full, d), (status, _without_witness_morphisms(d))):
            h.update(json.dumps(doc, sort_keys=True).encode())
            h.update(b"\n")
    return full.hexdigest(), status.hexdigest()


def test_structured_output_is_pinned():
    assert structured_output_digests()[0] == PINNED_DIGEST


def test_status_output_is_pinned():
    assert structured_output_digests()[1] == STATUS_DIGEST
