"""Executable movability theory for inverse systems.

Two exact backends (finitely generated abelian groups, pointed finite sets),
inverse systems over finite directed posets or the natural-number chain, and
decision procedures for the movability-type properties of systems and their
morphisms, with witness certificates and horizon-bounded refutations.
"""

from .categories import (
    FgAbelianMorphism,
    FgAbelianObject,
    PointedFiniteSet,
    PointedMap,
    Z,
    compose,
    identity,
    morphisms_equal,
    solve_factorization,
)
from .checkers import (
    Horizon,
    Verdict,
    check,
    co_movable_morphism,
    c0_movable_system,
    c0_uniformly_movable_system,
    mittag_leffler,
    movable_morphism,
    movable_system,
    strongly_co_movable_morphism,
    strongly_movable_morphism,
    strongly_movable_system,
    uniformly_co_movable_morphism,
    uniformly_movable_morphism,
    uniformly_movable_system,
)
from .indexsets import NAT, FiniteDirectedPoset, NatIndex
from .intlinalg import IntMatrix, snf, solve_congruence_system
from .oracle import oracle_check
from .systems import (
    InverseSystem,
    SystemMorphism,
    are_equivalent,
    compose_morphisms,
    identity_morphism,
    restrict,
    validate_morphism,
    validate_system,
    violations,
)

__all__ = [name for name in dir() if not name.startswith("_")]
