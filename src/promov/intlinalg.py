"""Exact integer matrix kernel: Smith normal form and congruence solving.

Everything here works over arbitrary-precision Python ints.  The two entry
points used by the rest of the library are :func:`snf` (a full U*A*V = D
decomposition with unimodular U, V) and :func:`solve_congruence_system`
(an exact solver for mixed linear congruences, where modulus 0 means an
equation over the integers).

:func:`snf` applies its row operations to a ``left`` matrix and its column
operations to a ``right`` one, the identities by default.  The solver passes
the right-hand side b as ``left``, so the Smith form carries U*b instead of
U, and as ``right`` only the first ``a.cols`` identity rows, so V*w gives x
and never the slack unknowns.  An integer linear system A*x = b is the
congruence system with every modulus 0.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Optional, Sequence


@dataclass(frozen=True, slots=True)
class IntMatrix:
    rows: int
    cols: int
    entries: tuple  # row-major, length rows*cols

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"entry count {len(self.entries)} != {self.rows}x{self.cols}"
            )

    @staticmethod
    def from_rows(rows_data: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = len(rows_data)
        cols = len(rows_data[0]) if rows else 0
        flat = []
        for r in rows_data:
            if len(r) != cols:
                raise ValueError("ragged row data")
            flat.extend(int(x) for x in r)
        return IntMatrix(rows, cols, tuple(flat))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    @staticmethod
    def zero(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    def at(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> tuple:
        return self.entries[j::self.cols]

    def to_rows(self) -> list:
        return [list(self.row(i)) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        cols = [other.col(j) for j in range(other.cols)]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for cj in cols:
                out.append(sum(map(operator.mul, ri, cj)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, v: Sequence[int]) -> list:
        if self.cols != len(v):
            raise ValueError("vector length mismatch")
        return [sum(x * y for x, y in zip(self.row(i), v)) for i in range(self.rows)]

    def det(self) -> int:
        """Exact determinant by fraction-free (Bareiss) elimination."""
        if self.rows != self.cols:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return 1
        m = self.to_rows()
        sign = 1
        prev = 1
        for k in range(n - 1):
            if m[k][k] == 0:
                for i in range(k + 1, n):
                    if m[i][k] != 0:
                        m[k], m[i] = m[i], m[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SnfDecomposition:
    """U*A*V = D with U, V unimodular and D = diag(d1 | d2 | ... | dr), di >= 0.

    When :func:`snf` is given ``left`` / ``right``, U and V hold U*left and
    right*V instead."""
    U: IntMatrix
    D: IntMatrix
    V: IntMatrix

    def diagonal(self) -> list:
        n = min(self.D.rows, self.D.cols)
        return [self.D.at(i, i) for i in range(n)]


def snf(a: IntMatrix, left: Optional[IntMatrix] = None,
        right: Optional[IntMatrix] = None) -> SnfDecomposition:
    """Smith normal form with transforms.

    Pivot choice is the smallest-absolute-value nonzero entry in the
    remaining block, first in row-major scan order on ties, so the
    decomposition is deterministic.

    Every row operation on A is also applied to ``left`` (a.rows rows,
    default the identity), and every column operation to ``right`` (a.cols
    columns, default the identity).  The returned U is the transformed
    ``left`` and V the transformed ``right``: U*left and right*V for the
    transforms U, V of ``snf(a)``, which ``snf(a)`` itself returns.
    """
    rows, cols = a.rows, a.cols
    if left is not None and left.rows != rows:
        raise ValueError(f"left has {left.rows} rows, the matrix {rows}")
    if right is not None and right.cols != cols:
        raise ValueError(f"right has {right.cols} columns, the matrix {cols}")
    left = IntMatrix.identity(rows) if left is None else left
    right = IntMatrix.identity(cols) if right is None else right
    m = a.to_rows()
    u = left.to_rows()
    v = right.to_rows()

    def swap_rows(i, j):
        m[i], m[j] = m[j], m[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in m:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(dst, src, c):
        # row dst += c * row src
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(dst, src, c):
        for r in m:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def negate_row(i):
        m[i] = [-x for x in m[i]]
        u[i] = [-x for x in u[i]]

    def find_pivot(t):
        best = None
        for i in range(t, rows):
            row = m[i]
            for j in range(t, cols):
                x = row[j]
                if x != 0 and (best is None or abs(x) < abs(best[2])):
                    best = (i, j, x)
                    if abs(x) == 1:
                        # nothing later is strictly smaller
                        return best
        return best

    def clear_pivot(t):
        # reduce row/column t by the current submatrix minimum, re-selecting
        # the pivot after every pass; keeps intermediate entries small
        while True:
            piv = find_pivot(t)
            if piv is None:
                return False
            i, j, _ = piv
            if i != t:
                swap_rows(t, i)
            if j != t:
                swap_cols(t, j)
            dirty = False
            for i in range(t + 1, rows):
                if m[i][t] != 0:
                    add_row(i, t, -(m[i][t] // m[t][t]))
                    dirty = True
            for j in range(t + 1, cols):
                if m[t][j] != 0:
                    add_col(j, t, -(m[t][j] // m[t][t]))
                    dirty = True
            if not dirty:
                break
        if m[t][t] < 0:
            negate_row(t)
        return True

    t = 0
    while t < min(rows, cols):
        if not clear_pivot(t):
            break
        t += 1

    # fix up the divisibility chain: fold each offender into the previous
    # pivot position and re-reduce (only rows/cols k..k+1 carry nonzeros)
    n = min(rows, cols)
    changed = True
    while changed:
        changed = False
        for k in range(n - 1):
            a_k, a_n = m[k][k], m[k + 1][k + 1]
            if a_k != 0 and a_n % a_k != 0:
                add_col(k, k + 1, 1)
                clear_pivot(k)
                clear_pivot(k + 1)
                changed = True

    d = [0] * (rows * cols)
    for k in range(n):
        d[k * cols + k] = m[k][k]
    return SnfDecomposition(
        U=IntMatrix(rows, left.cols, tuple(x for r in u for x in r)),
        D=IntMatrix(rows, cols, tuple(d)),
        V=IntMatrix(right.rows, cols, tuple(x for r in v for x in r)),
    )


def solve_congruence_system(a: IntMatrix, b: Sequence[int],
                            moduli: Sequence[int]) -> Optional[list]:
    """One x with (A*x)_i == b_i (mod m_i), m_i = 0 meaning exact equality.

    None is a proof of non-existence: the congruences are rewritten as an
    integer linear system E*y = b with one slack unknown per nonzero modulus
    and decided exactly through the Smith form.  With U*E*V = D the system
    becomes D*w = U*b, each equation of which is divisibility, and y = V*w.
    The Smith form carries b as its ``left``, so it returns U*b, and only
    the first ``a.cols`` identity rows as its ``right``, so it returns only
    the rows of V that give x; the slack unknowns are never computed.
    """
    if a.rows != len(b) or a.rows != len(moduli):
        raise ValueError("dimension mismatch between matrix, rhs and moduli")
    if any(m < 0 for m in moduli):
        raise ValueError("moduli must be nonnegative")
    slack = sum(1 for m in moduli if m != 0)
    ext, k = [], 0
    for i, m in enumerate(moduli):
        ext += a.row(i)
        tail = [0] * slack
        if m != 0:
            tail[k] = m
            k += 1
        ext += tail
    width = a.cols + slack
    dec = snf(IntMatrix(a.rows, width, tuple(ext)),
              IntMatrix(a.rows, 1, tuple(b)),
              IntMatrix(a.cols, width, tuple(1 if i == j else 0
                                             for i in range(a.cols)
                                             for j in range(width))))
    ub = dec.U.entries
    diag = dec.diagonal()
    w = [0] * width
    for i in range(a.rows):
        d = diag[i] if i < len(diag) else 0
        if d == 0:
            if ub[i] != 0:
                return None
        else:
            if ub[i] % d != 0:
                return None
            w[i] = ub[i] // d
    return dec.V.mul_vector(w)
