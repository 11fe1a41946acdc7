"""Exact integer kernel: Smith normal form and congruence solving."""

import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from promov.intlinalg import (
    IntMatrix,
    snf,
    solve_congruence_system,
)


def check_snf_invariants(a: IntMatrix):
    dec = snf(a)
    # U * A * V = D
    assert dec.U.mul(a).mul(dec.V).entries == dec.D.entries
    # unimodular transforms
    assert dec.U.det() in (1, -1)
    assert dec.V.det() in (1, -1)
    # nonnegative divisor chain
    diag = dec.diagonal()
    assert all(d >= 0 for d in diag)
    for i in range(len(diag) - 1):
        if diag[i] == 0:
            assert diag[i + 1] == 0
        else:
            assert diag[i + 1] % diag[i] == 0
    # off-diagonal zeros
    for i in range(dec.D.rows):
        for j in range(dec.D.cols):
            if i != j:
                assert dec.D.at(i, j) == 0


def test_snf_worked_example():
    dec = snf(IntMatrix.from_rows([[2, 4], [6, 8]]))
    assert dec.diagonal() == [2, 4]


def test_snf_identity_and_zero():
    assert snf(IntMatrix.identity(3)).diagonal() == [1, 1, 1]
    assert snf(IntMatrix.zero(2, 3)).diagonal() == [0, 0]


def test_snf_single_entry():
    assert snf(IntMatrix.from_rows([[-6]])).diagonal() == [6]


def test_snf_random_small():
    rng = random.Random(1)
    for _ in range(300):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        a = IntMatrix.from_rows(
            [[rng.randrange(-20, 21) for _ in range(cols)]
             for _ in range(rows)])
        check_snf_invariants(a)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.lists(st.integers(-20, 20), min_size=1, max_size=6),
                min_size=1, max_size=6).filter(
                    lambda r: len({len(x) for x in r}) == 1))
def test_snf_invariants_hypothesis(rows):
    check_snf_invariants(IntMatrix.from_rows(rows))


@st.composite
def _snf_with_carried(draw):
    rows, cols = draw(st.integers(0, 5)), draw(st.integers(0, 5))
    k, k2 = draw(st.integers(0, 3)), draw(st.integers(0, 3))

    def matrix(r, c):
        return IntMatrix(r, c, tuple(draw(st.lists(
            st.integers(-20, 20), min_size=r * c, max_size=r * c))))

    return matrix(rows, cols), matrix(rows, k), matrix(k2, cols)


@settings(max_examples=100, deadline=None)
@given(_snf_with_carried())
def test_snf_carries_left_and_right(case):
    # the row operations act on left and the column operations on right,
    # with D untouched, 0-row and 0-column shapes included
    a, left, right = case
    plain, carried = snf(a), snf(a, left, right)
    assert carried.U == plain.U.mul(left)
    assert carried.D == plain.D
    assert carried.V == right.mul(plain.V)


def test_snf_refuses_mismatched_carried_shapes():
    a = IntMatrix.identity(2)
    with pytest.raises(ValueError):
        snf(a, left=IntMatrix.identity(3))
    with pytest.raises(ValueError):
        snf(a, right=IntMatrix.zero(2, 3))


def test_linear_solver():
    a = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert solve_congruence_system(a, [4, 9], [0, 0]) == [2, 3]
    assert solve_congruence_system(a, [1, 0], [0, 0]) is None
    # underdetermined
    a = IntMatrix.from_rows([[1, 2]])
    x = solve_congruence_system(a, [5], [0])
    assert x[0] + 2 * x[1] == 5


def test_congruence_worked_examples():
    # 2x = 2 (mod 4) has the solution x = 1
    a = IntMatrix.from_rows([[2]])
    x = solve_congruence_system(a, [2], [4])
    assert (2 * x[0] - 2) % 4 == 0
    # 2x = 1 over Z has none
    assert solve_congruence_system(a, [1], [0]) is None


def test_congruence_mixed_moduli():
    a = IntMatrix.from_rows([[1, 1], [1, -1]])
    x = solve_congruence_system(a, [1, 0], [2, 3])
    assert (x[0] + x[1] - 1) % 2 == 0
    assert (x[0] - x[1]) % 3 == 0


def brute_force_congruence(a, b, moduli, lo, hi):
    from itertools import product
    for cand in product(range(lo, hi), repeat=a.cols):
        vals = a.mul_vector(list(cand))
        ok = True
        for v, rhs, m in zip(vals, b, moduli):
            if m == 0:
                if v != rhs:
                    ok = False
                    break
            elif (v - rhs) % m != 0:
                ok = False
                break
        if ok:
            return list(cand)
    return None


def test_congruence_vs_exhaustive():
    from math import lcm
    rng = random.Random(7)
    checked = 0
    for _ in range(200):
        n = rng.randrange(1, 4)
        m = rng.randrange(1, 4)
        a = IntMatrix.from_rows(
            [[rng.randrange(-6, 7) for _ in range(n)] for _ in range(m)])
        b = [rng.randrange(-6, 7) for _ in range(m)]
        moduli = [rng.choice([0, 2, 3, 4, 5, 6, 8, 12]) for _ in range(m)]
        got = solve_congruence_system(a, b, moduli)
        if all(mm != 0 for mm in moduli):
            # purely modular: the residue cube modulo the lcm is complete
            box = lcm(*moduli)
            if box ** n > 200_000:
                continue
            ref = brute_force_congruence(a, b, moduli, 0, box)
            assert (got is None) == (ref is None)
        else:
            # with exact rows only solution-existence transfers one way
            ref = brute_force_congruence(a, b, moduli, -13, 14)
            if ref is not None:
                assert got is not None
        if got is not None:
            vals = a.mul_vector(got)
            for v, rhs, mm in zip(vals, b, moduli):
                if mm == 0:
                    assert v == rhs
                else:
                    assert (v - rhs) % mm == 0
            checked += 1
    assert checked > 50


def test_matrix_validation():
    with pytest.raises(ValueError):
        IntMatrix(2, 2, (1, 2, 3))
    with pytest.raises(ValueError):
        IntMatrix.from_rows([[1, 2], [3]])
    with pytest.raises(ValueError):
        solve_congruence_system(IntMatrix.from_rows([[1]]), [1], [-2])


def test_det_matches_bareiss_cofactor():
    rng = random.Random(3)
    for _ in range(50):
        a = IntMatrix.from_rows(
            [[rng.randrange(-5, 6) for _ in range(3)] for _ in range(3)])
        r = a.to_rows()
        cof = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
               - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
               + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
        assert a.det() == cof


def test_det_of_empty_and_of_a_zero_pivot_column():
    assert IntMatrix(0, 0, ()).det() == 1
    # no row can supply a pivot for column 0, so the determinant is 0
    assert IntMatrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 7]]).det() == 0


def _snf_digest_corpus():
    """Seeded matrices covering the shapes and entry mixes snf meets: empty
    shapes, sparse blocks, many unit entries (early pivots), wide ranges, and
    congruence systems with one slack column per nonzero modulus."""
    rng = random.Random(2024)
    mats = [IntMatrix(0, 3, ()), IntMatrix(2, 0, ()), IntMatrix(0, 0, ())]
    for k in range(600):
        rows, cols = rng.randrange(1, 8), rng.randrange(1, 10)
        kind = k % 4
        if kind == 0:
            ent = [rng.choice((0, 0, 0, rng.randrange(-9, 10))) for _ in range(rows * cols)]
        elif kind == 1:
            ent = [rng.randrange(-2, 3) for _ in range(rows * cols)]
        elif kind == 2:
            ent = [rng.randrange(-10**6, 10**6) for _ in range(rows * cols)]
        else:
            moduli = [rng.choice((0, 2, 4, 8, 9, 12)) for _ in range(rows)]
            slack = [i for i, m in enumerate(moduli) if m]
            core = [[rng.randrange(-6, 7) for _ in range(cols)] for _ in range(rows)]
            mats.append(IntMatrix.from_rows(
                [r + [moduli[j] if j == i else 0 for j in slack]
                 for i, r in enumerate(core)]))
            continue
        mats.append(IntMatrix(rows, cols, tuple(ent)))
    return mats


def test_snf_transforms_are_pinned():
    # the documented pivot rule fixes U and V exactly, so a digest of every
    # (U, D, V) over the corpus catches any change to the pivot order or to
    # how the transforms are built
    h = hashlib.sha256()
    for a in _snf_digest_corpus():
        dec = snf(a)
        for m in (dec.U, dec.D, dec.V):
            h.update(repr((m.rows, m.cols, m.entries)).encode())
    assert h.hexdigest()[:32] == "984c097c6579997dd540ce03959dd925"


def _solver_digest_corpus():
    """Seeded (A, b, moduli) systems covering what the solvers meet: 0-row
    systems, only zero moduli, moduli up to 2**53, unsolvable systems, and
    more unknowns than rows as well as fewer."""
    rng = random.Random(2025)
    systems = []
    for k in range(600):
        kind = k % 6
        rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
        if kind == 0:
            rows = 0
        elif kind == 3:
            rows = cols + rng.randrange(1, 4)
        elif kind == 4:
            cols = rows + rng.randrange(1, 4)
        span = 10**6 if kind == 2 else 7
        a = IntMatrix(rows, cols, tuple(
            rng.choice((0, rng.randrange(-span, span + 1)))
            for _ in range(rows * cols)))
        if kind == 1:
            moduli = [0] * rows
        elif kind == 2:
            moduli = [rng.choice((0, rng.randrange(1, 2**53 + 1), 2**53))
                      for _ in range(rows)]
        else:
            moduli = [rng.choice((0, 0, 2, 3, 4, 6, 8, 12)) for _ in range(rows)]
        if (k // 6) % 2:
            # in the image of A, so solvable
            b = a.mul_vector([rng.randrange(-5, 6) for _ in range(cols)])
        else:
            b = [rng.randrange(-span, span + 1) for _ in range(rows)]
        systems.append((a, b, moduli))
    return systems


def test_congruence_solutions_are_pinned():
    # x is fixed by the pivot rule and by which rows of V the solvers read,
    # so a digest of every answer catches a changed solution or verdict
    h = hashlib.sha256()
    seen = {"congruence": [0, 0], "linear": [0, 0]}
    for a, b, moduli in _solver_digest_corpus():
        for kind, x in (("congruence", solve_congruence_system(a, b, moduli)),
                        ("linear", solve_congruence_system(a, b, [0] * len(b)))):
            seen[kind][x is None] += 1
            h.update(repr((kind, x)).encode())
    # both solvers answer both ways on the corpus
    assert all(solved and unsolvable for solved, unsolvable in seen.values())
    assert h.hexdigest()[:32] == "8d81dc758cf4536831aebd0b2d75c70c"
