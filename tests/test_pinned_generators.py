"""Every seeded generator's output, pinned by one digest.

Each generated instance is written out in full through index 8: names, flags,
objects, bonds, phi and components, serialised with the CLI codecs.  The
digest was recorded before the generators' shared steps were folded into
common helpers, so any change to what a seed produces, including the order
of the random draws, shows up here.  It was re-recorded once, when abelian
matrices began to be stored in canonical residues: the new digest equals
the old code's digest with every abelian morphism written reduced, so only
the representation moved.
"""

import hashlib
import json

from promov.cli import morphism_to_dict, object_to_dict
from promov.families import (
    bounded_phi_morphism,
    cofinal_decreasing_phi_instance,
    finite_instance_corpus,
    random_abelian_sequence,
    random_sequence_morphism,
    random_set_sequence,
)
from promov.indexsets import is_finite_index

PINNED_DIGEST = "a5d415bda1060b747c1fb0ef50acbf12d35ab191045d9412611d395d72148df4"

DEPTH = 8


def _indices(x):
    return x.index.members() if is_finite_index(x.index) else range(DEPTH + 1)


def system_doc(x) -> dict:
    idx = _indices(x)
    return {
        "name": x.name,
        "flags": [x.flags.all_bondings_epimorphic, x.flags.eventually_periodic],
        "objects": [[lam, object_to_dict(x.object_at(lam))] for lam in idx],
        "bonds": [[lo, hi, morphism_to_dict(x.bond(lo, hi))]
                  for lo in idx for hi in idx if x.index.leq(lo, hi)],
    }


def morphism_doc(f) -> dict:
    idx = _indices(f.target)
    return {
        "name": f.name,
        "source": system_doc(f.source),
        "target": system_doc(f.target),
        "phi": [[mu, f.phi(mu)] for mu in idx],
        "f": [[mu, morphism_to_dict(f.f(mu))] for mu in idx],
    }


def _generated():
    for f in finite_instance_corpus(0, 480):
        yield morphism_doc(f)
    for s in range(60):
        yield morphism_doc(bounded_phi_morphism(s))
        yield morphism_doc(cofinal_decreasing_phi_instance(s))
    for s in range(30):
        for period in (2, 3):
            yield system_doc(random_set_sequence(s, period=period))
            yield system_doc(random_abelian_sequence(s, period=period))
        for backend in ("abelian", "pointed_set"):
            yield morphism_doc(random_sequence_morphism(s, backend))


def generator_digest() -> str:
    h = hashlib.sha256()
    for doc in _generated():
        h.update(json.dumps(doc, sort_keys=True).encode())
        h.update(b"\n")
    return h.hexdigest()


def test_generators_are_pinned():
    assert generator_digest() == PINNED_DIGEST
