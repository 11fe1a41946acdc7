"""Backend categories: objects, homs, factorization, subobjects, functor."""

import random
import subprocess
import sys
from math import gcd, prod
from pathlib import Path

import pytest

import promov
from promov import categories
from promov.categories import (
    BackendError,
    FactorizationProblem,
    FgAbelianMorphism,
    FgAbelianObject,
    PointedFiniteSet,
    PointedMap,
    Z,
    abelian_scalar,
    check_solution,
    compose,
    enumerate_homs,
    forgetful_object,
    forgetful_to_sets,
    hom_count,
    identity,
    image_subobject,
    is_epimorphism,
    is_zero_morphism,
    morphisms_equal,
    solve_factorization,
    zero,
)
from promov.intlinalg import IntMatrix


def reduction(s, t):
    return FgAbelianMorphism(s, t, IntMatrix.from_rows([[1]]))


def test_object_basics():
    assert Z(0).rank == 1 and not Z(0).is_finite()
    assert Z(4).order() == 4
    g = FgAbelianObject((2, 4))
    assert g.order() == 8 and g.rank == 2
    s = PointedFiniteSet(3)
    assert s.size == 3


def test_morphism_well_definedness():
    # x -> x is not well defined Z/2 -> Z/4 (2*1 != 0 mod 4)
    with pytest.raises(BackendError):
        FgAbelianMorphism(Z(2), Z(4), IntMatrix.from_rows([[1]]))
    # but doubling is
    m = FgAbelianMorphism(Z(2), Z(4), IntMatrix.from_rows([[2]]))
    assert not is_zero_morphism(m)


def test_abelian_morphisms_are_stored_canonically():
    z4 = Z(4)
    times5, times_m3 = abelian_scalar(z4, 5), abelian_scalar(z4, -3)
    # unreduced and negative entries land in 0..e-1
    assert times5.matrix.entries == (1,) and times_m3.matrix.entries == (1,)
    assert times5 == times_m3 == identity(z4)
    assert hash(times5) == hash(times_m3) == hash(identity(z4))
    assert abelian_scalar(z4, -4) == zero(z4, z4)
    assert is_zero_morphism(abelian_scalar(z4, -4))
    # a Z row (factor 0) is left as given, a finite row beside it reduced
    m = FgAbelianMorphism(Z(0), FgAbelianObject((0, 4)),
                          IntMatrix.from_rows([[-7], [-7]]))
    assert m.matrix.entries == (-7, 1)
    assert abelian_scalar(Z(0), -3).matrix.entries == (-3,)
    # moduli at the 2^53 scale reduce exactly
    big = Z(2 ** 53)
    assert abelian_scalar(big, 2 ** 53 + 5).matrix.entries == (5,)
    assert abelian_scalar(big, -1).matrix.entries == (2 ** 53 - 1,)
    assert abelian_scalar(big, 3 * 2 ** 53) == zero(big, big)
    # Z/2 -> Z/4: doubling, written three ways, is one value
    doubling = [FgAbelianMorphism(Z(2), z4, IntMatrix.from_rows([[v]]))
                for v in (2, 6, -2)]
    assert len(set(doubling)) == 1 and doubling[0].matrix.entries == (2,)
    # a matrix that is not well defined still raises, reduced or not
    for v in (1, 5, -3):
        with pytest.raises(BackendError,
                           match=r"matrix entry \(0,0\) does not respect source relations"):
            FgAbelianMorphism(Z(2), z4, IntMatrix.from_rows([[v]]))
    with pytest.raises(BackendError, match="matrix shape"):
        FgAbelianMorphism(Z(2), z4, IntMatrix.from_rows([[2, 0]]))


def test_pointed_map_basepoint():
    with pytest.raises(BackendError):
        PointedMap(PointedFiniteSet(2), PointedFiniteSet(2), (1, 0))
    m = PointedMap(PointedFiniteSet(3), PointedFiniteSet(2), (0, 1, 1))
    assert compose(m, identity(PointedFiniteSet(3))) == m


def test_compose_and_equality():
    r42 = reduction(Z(4), Z(2))
    r84 = reduction(Z(8), Z(4))
    assert morphisms_equal(compose(r42, r84), reduction(Z(8), Z(2)))
    # equality is modulo the target relations
    a = FgAbelianMorphism(Z(0), Z(2), IntMatrix.from_rows([[1]]))
    b = FgAbelianMorphism(Z(0), Z(2), IntMatrix.from_rows([[3]]))
    assert morphisms_equal(a, b)


def _random_abelian_hom(rng, a, b):
    """A random well-defined a -> b with unreduced, possibly negative
    entries; Z summands (factor 0) included."""
    ent = []
    for e in b.factors:
        for d in a.factors:
            if e == 0:
                ent.append(rng.randrange(-9, 10) if d == 0 else 0)
            else:
                step = 1 if d == 0 else e // gcd(d, e)
                ent.append(step * rng.randrange(-3 * e, 3 * e + 1))
    return FgAbelianMorphism(a, b, IntMatrix(b.rank, a.rank, tuple(ent)))


def test_compose_matches_reduced_product():
    rng = random.Random(7)
    # the rank-0 object, and moduli at the 2^53 scale of the deep ladder rungs
    pool = [(0,), (2,), (4,), (6,), (0, 3), (2, 0), (4, 6), (0, 0), (9, 2, 0),
            (), (2 ** 53,), (2 ** 52, 0), (3 ** 34, 2 ** 53)]
    for _ in range(300):
        a, b, c = (FgAbelianObject(rng.choice(pool)) for _ in range(3))
        f, g = _random_abelian_hom(rng, a, b), _random_abelian_hom(rng, b, c)
        got = compose(g, f)
        # the raw product, made canonical by the constructor
        assert got == FgAbelianMorphism(a, c, g.matrix.mul(f.matrix))
        # and the product entry by entry, reduced mod the target factor
        for i, e in enumerate(c.factors):
            for j in range(a.rank):
                v = sum(g.matrix.at(i, k) * f.matrix.at(k, j) for k in range(b.rank))
                assert got.matrix.at(i, j) == (v % e if e else v)


REFUSALS = {
    "compose across backends": (
        compose, identity(Z(2)), identity(PointedFiniteSet(2))),
    "compose across mismatched endpoints": (
        compose, reduction(Z(4), Z(2)), identity(Z(8))),
    "compare across backends": (
        morphisms_equal, identity(Z(2)), identity(PointedFiniteSet(2))),
    "compare across mismatched endpoints": (
        morphisms_equal, identity(Z(2)), identity(Z(4))),
}


@pytest.mark.parametrize("case", list(REFUSALS))
def test_mismatched_pairs_are_refused_with_or_without_a_compose_memo(case):
    fn, a, b = REFUSALS[case]
    with pytest.raises(BackendError) as outside:
        fn(a, b)
    with categories.value_memo() as memo:
        # a refused pair is never stored, so it is refused again
        for _ in range(2):
            with pytest.raises(BackendError) as inside:
                fn(a, b)
            assert str(inside.value) == str(outside.value)
    assert memo == {}


@pytest.mark.parametrize("obj", [FgAbelianObject((4, 6)), PointedFiniteSet(4)],
                         ids=["abelian", "pointed"])
def test_a_compose_memo_shares_equal_composites_only_inside_its_scope(obj):
    def make():
        return (abelian_scalar(obj, 5) if isinstance(obj, FgAbelianObject)
                else PointedMap(obj, obj, (0, 2, 3, 1)))

    g, g2 = make(), make()
    assert g == g2 and g is not g2
    # outside a scope compose keeps nothing
    assert compose(g, g) is not compose(g, g)
    with categories.value_memo() as memo:
        h = compose(g, g)
        assert compose(g2, g2) is h and list(memo.values()) == [h]
    assert categories._memo.get() is None
    assert compose(g2, g2) == h and compose(g2, g2) is not h


def test_value_classes_carry_no_instance_dict():
    # restrictions are cached per morphism; slotted values keep that small
    for v in (Z(2), identity(Z(2)), PointedFiniteSet(2),
              identity(PointedFiniteSet(2)), IntMatrix.identity(1)):
        assert not hasattr(v, "__dict__")


def test_equal_morphisms_built_apart_hash_equal():
    z4, p3 = Z(4), PointedFiniteSet(3)
    # identity(Z/4) four ways, two with entries the constructor reduces
    ones = [identity(z4), abelian_scalar(z4, 5), abelian_scalar(z4, -3),
            FgAbelianMorphism(Z(4), Z(4), IntMatrix.from_rows([[9]]))]
    maps = [PointedMap(p3, PointedFiniteSet(2), (0, 1, 1)),
            PointedMap(PointedFiniteSet(3), PointedFiniteSet(2), tuple([0, 1, 1]))]
    for equal in (ones, maps):
        assert all(m == equal[0] and m is not equal[0] for m in equal[1:])
        # each value computes and keeps its own hash, and they agree
        assert len({hash(m) for m in equal}) == 1
    # a value key is found by an equal value built later
    assert {ones[0]: "id"}[abelian_scalar(Z(4), 13)] == "id"


@pytest.mark.parametrize("make", [
    lambda: abelian_scalar(FgAbelianObject((4, 6)), 5),
    lambda: PointedMap(PointedFiniteSet(4), PointedFiniteSet(4), (0, 2, 3, 1))],
    ids=["abelian", "pointed"])
def test_a_morphism_keeps_its_hash_out_of_repr_and_eq(make):
    m, fresh = make(), make()
    text = repr(m)
    h = hash(m)
    assert m._hash == h and fresh._hash is None
    assert all(hash(m) == h for _ in range(3))
    # the kept hash changes neither what it prints nor what it equals
    assert repr(m) == repr(fresh) == text and "_hash" not in text
    assert m == fresh and not m != fresh
    assert m != compose(m, m)


def _counting_hashes(monkeypatch, classes) -> dict:
    """Calls of each class's __hash__ from now on, by class name."""
    counts = dict.fromkeys((c.__name__ for c in classes), 0)
    for c in classes:
        def counting(self, real=c.__hash__, name=c.__name__):
            counts[name] += 1
            return real(self)
        monkeypatch.setattr(c, "__hash__", counting)
    return counts


@pytest.mark.parametrize("obj", [FgAbelianObject((4, 6)), PointedFiniteSet(4)],
                         ids=["abelian", "pointed"])
def test_a_compose_memo_hit_hashes_no_endpoint_or_matrix(monkeypatch, obj):
    if isinstance(obj, FgAbelianObject):
        g, f = abelian_scalar(obj, 5), abelian_scalar(obj, 7)
    else:
        g = PointedMap(obj, obj, (0, 2, 3, 1))
        f = PointedMap(obj, obj, (0, 1, 1, 2))
    counts = _counting_hashes(monkeypatch, (type(obj), IntMatrix))
    with categories.value_memo():
        h = compose(g, f)
        assert sum(counts.values()) > 0  # the miss hashed g and f once
        counts.update(dict.fromkeys(counts, 0))
        for _ in range(3):
            assert compose(g, f) is h
    # each hit found the pair by the hashes g and f kept
    assert counts == dict.fromkeys(counts, 0)


def test_zero_and_epi():
    assert is_zero_morphism(zero(Z(4), Z(2)))
    assert is_epimorphism(reduction(Z(8), Z(2)))
    assert not is_epimorphism(FgAbelianMorphism(Z(2), Z(4),
                                                IntMatrix.from_rows([[2]])))
    assert is_epimorphism(PointedMap(PointedFiniteSet(3), PointedFiniteSet(2),
                                     (0, 1, 0)))
    assert not is_epimorphism(zero(PointedFiniteSet(3), PointedFiniteSet(2)))


def test_factorization_worked_example():
    # no u : Z/4 -> Z/8 with (reduction) o u = reduction Z/4 -> Z/2 ... but
    # there IS no obstruction there; the classic failure: u with
    # (Z/8 -> Z/4) o u = id_{Z/4} would make Z/4 a retract of Z/8
    q = reduction(Z(8), Z(4))
    prob = FactorizationProblem(q, identity(Z(4)))
    assert (prob.source, prob.target) == (Z(4), Z(8))
    assert solve_factorization(prob) is None
    # multiplication by 2 factors: u = x (Z/4 -> Z/8 doubling), q o u = 2x
    prob = FactorizationProblem(q, abelian_scalar(Z(4), 2))
    u = solve_factorization(prob)
    assert u is not None and check_solution(prob, u)


def test_pointed_factorization():
    s3, s2 = PointedFiniteSet(3), PointedFiniteSet(2)
    surj = PointedMap(s3, s2, (0, 1, 1))
    # factor surj through itself: u with surj o u = surj
    prob = FactorizationProblem(surj, surj)
    u = solve_factorization(prob)
    assert u is not None and check_solution(prob, u)
    # u sends each element to its least surj-preimage: 2 goes to 1
    assert u.images == (0, 1, 1)
    # constant cannot factor a surjection
    prob = FactorizationProblem(zero(s3, s2), surj)
    assert solve_factorization(prob) is None
    # L and R must share their target and their backend
    with pytest.raises(BackendError):
        FactorizationProblem(surj, identity(s3))
    with pytest.raises(BackendError):
        FactorizationProblem(identity(Z(2)), surj)


def brute_force_solution(prob):
    for u in enumerate_homs(prob.source, prob.target):
        if check_solution(prob, u):
            return u
    return None


def _random_abelian(rng):
    return FgAbelianObject(rng.choice(
        [(2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4)]))


def _random_pointed(rng):
    return PointedFiniteSet(rng.randrange(1, 5))


def _random_hom(rng, a, b):
    homs = list(enumerate_homs(a, b))
    return homs[rng.randrange(len(homs))]


def _random_solver_abelian(rng):
    # the finite pool plus a Z summand (u's entries out of it are free, into
    # it forced to 0) and the rank-0 group
    return FgAbelianObject(rng.choice(
        [(2,), (3,), (4,), (2, 2), (6,), (8,), (2, 4), (0,), (0, 2), (4, 0), ()]))


def _object_after(rng, rand_obj, *sources):
    """A random object b with Hom(a, b) finite for every a in sources, so
    never Hom(Z, Z)."""
    while True:
        b = rand_obj(rng)
        if all(hom_count(a, b) is not None for a in sources):
            return b


@pytest.mark.parametrize("backend", ["abelian", "pointed"])
def test_solver_vs_enumeration(backend):
    rng = random.Random(42 if backend == "abelian" else 43)
    rand_obj = _random_solver_abelian if backend == "abelian" else _random_pointed
    agreements = 0
    shapes = set()
    for _ in range(250):
        src = rand_obj(rng)
        tgt = _object_after(rng, rand_obj, src)
        # L o u = R with L : tgt -> mid and R : src -> mid
        mid = _object_after(rng, rand_obj, src, tgt)
        if backend == "abelian":
            shapes.add("rank 0" if () in (src.factors, tgt.factors, mid.factors)
                       else "Z source" if not src.is_finite()
                       else "Z target" if not tgt.is_finite() else "finite")
        prob = FactorizationProblem(_random_hom(rng, tgt, mid),
                                    _random_hom(rng, src, mid))
        got = solve_factorization(prob)
        ref = brute_force_solution(prob)
        assert (got is None) == (ref is None)
        if got is not None:
            assert check_solution(prob, got)
        agreements += 1
    assert agreements == 250
    if backend == "abelian":
        assert shapes == {"rank 0", "Z source", "Z target", "finite"}


def test_solver_builds_only_constraint_rows(monkeypatch):
    # u's well-definedness is in its unknowns, so the congruence system of
    # L o u = R (L : T -> W, R : S -> W) has W.rank * S.rank rows over
    # T.rank * S.rank unknowns, and nothing else
    systems = []
    solve = categories.solve_congruence_system

    def recording(a, b, moduli):
        systems.append((a, list(b), list(moduli)))
        return solve(a, b, moduli)

    monkeypatch.setattr(categories, "solve_congruence_system", recording)
    # q o u = 2 on Z/4 -> Z/8 with q the reduction Z/8 -> Z/4: one row, one
    # unknown y with u = 2y (4u = 0 in Z/8), where writing 4u = 0 as a row
    # of its own would make two
    q = FgAbelianMorphism(Z(8), Z(4), IntMatrix.from_rows([[1]]))
    prob = FactorizationProblem(q, abelian_scalar(Z(4), 2))
    u = solve_factorization(prob)
    assert u is not None and u.matrix.entries[0] % 2 == 0
    assert systems == [(IntMatrix.from_rows([[2]]), [2], [4])]

    rng = random.Random(44)
    for _ in range(100):
        systems.clear()
        src = _random_solver_abelian(rng)
        tgt = _object_after(rng, _random_solver_abelian, src)
        mid = _object_after(rng, _random_solver_abelian, src, tgt)
        prob = FactorizationProblem(_random_hom(rng, tgt, mid),
                                    _random_hom(rng, src, mid))
        solve_factorization(prob)
        rows = mid.rank * src.rank
        if rows:
            [(a, _, _)] = systems
            assert (a.rows, a.cols) == (rows, tgt.rank * src.rank)
        else:
            assert systems == []


def test_image_subobjects():
    # image of doubling Z -> Z/4 is {0, 2}
    dbl = FgAbelianMorphism(Z(0), Z(4), IntMatrix.from_rows([[2]]))
    img = image_subobject(dbl)
    assert img != image_subobject(zero(Z(0), Z(4)))
    # canonical: the same subgroup from different generators presents equally
    other = FgAbelianMorphism(FgAbelianObject((2,) * 2), Z(4),
                              IntMatrix.from_rows([[2, 2]]))
    assert img == image_subobject(other)


def test_pointed_image():
    m = PointedMap(PointedFiniteSet(3), PointedFiniteSet(4), (0, 2, 2))
    assert image_subobject(m) == (0, 2)


def test_hom_count_and_enumeration():
    assert hom_count(Z(4), Z(6)) == 2
    assert len(list(enumerate_homs(Z(4), Z(6)))) == 2
    assert hom_count(Z(0), Z(0)) is None  # infinite
    s = PointedFiniteSet(3)
    assert hom_count(s, PointedFiniteSet(2)) == 4
    assert len(list(enumerate_homs(s, PointedFiniteSet(2)))) == 4


def test_forgetful_functor():
    g = FgAbelianObject((2, 3))
    u = forgetful_object(g)
    assert u.size == 6
    # functorial: U(g o f) = U(g) o U(f) on random pairs
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (_random_abelian(rng) for _ in range(3))
        f = _random_hom(rng, a, b)
        h = _random_hom(rng, b, c)
        lhs = forgetful_to_sets(compose(h, f))
        rhs = compose(forgetful_to_sets(h), forgetful_to_sets(f))
        assert lhs == rhs
    # worked example: doubling on Z/4 becomes (0, 2, 0, 2)
    assert forgetful_to_sets(abelian_scalar(Z(4), 2)).images == (0, 2, 0, 2)


def test_forgetful_images_follow_the_mixed_radix_places():
    # element (c_1, ..., c_r) of Z/d_1 + ... + Z/d_r sits at place
    # sum c_i * d_{i+1} * ... * d_r; the swap Z/2 + Z/3 -> Z/3 + Z/2 sends
    # (0,1) to (1,0) at place 2, (1,0) to (0,1) at place 1, and so on
    swap = FgAbelianMorphism(FgAbelianObject((2, 3)), FgAbelianObject((3, 2)),
                             IntMatrix.from_rows([[0, 1], [1, 0]]))
    assert forgetful_to_sets(swap).images == (0, 2, 4, 1, 3, 5)

    def place(coords, factors):
        return sum(c * prod(factors[i + 1:]) for i, c in enumerate(coords))

    def element(i, factors):
        return [i // prod(factors[j + 1:]) % d for j, d in enumerate(factors)]

    rng = random.Random(11)
    for _ in range(40):
        a, b = _random_abelian(rng), _random_abelian(rng)
        f = _random_abelian_hom(rng, a, b)
        images = forgetful_to_sets(f).images
        assert len(images) == a.order()
        for i, image in enumerate(images):
            out = f.matrix.mul_vector(element(i, a.factors))
            assert image == place([v % e for v, e in zip(out, b.factors)], b.factors)


def test_identity_dispatch():
    assert identity(FgAbelianObject((2, 0))).matrix == IntMatrix.identity(2)
    assert identity(PointedFiniteSet(3)).images == (0, 1, 2)


def test_witness_check_survives_optimize_flag():
    # solve_factorization re-verifies the solver's witness with a check that
    # python -O cannot strip; a wrong witness must raise, not be returned
    code = (
        "from promov import categories as cat\n"
        "assert False, 'asserts should be stripped under -O'\n"
        "cat._solve_abelian = lambda p: cat.zero(p.source, p.target)\n"
        "p = cat.FactorizationProblem(cat.identity(cat.Z(0)),\n"
        "                             cat.identity(cat.Z(0)))\n"
        "try:\n"
        "    cat.solve_factorization(p)\n"
        "except AssertionError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(3)\n"
    )
    src = str(Path(promov.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-O", "-c", code],
                          env={"PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"},
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
