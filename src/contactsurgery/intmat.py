"""Exact integer matrix kernels: determinant and Smith normal form.

Two independent routes to the same torsion data keep each other honest:
`determinant` is fraction-free Bareiss elimination, `smith_normal_form`
is a full diagonalization with unimodular row and column transforms.
For any square integer matrix the product of the Smith diagonal entries
must reproduce |det| exactly.

The Smith form is one elimination that carries its transforms beside
the matrix: each row of A travels with the same row of S, and T is kept
by columns, so every row move lands in S and every column move in T,
and D = S A T is read off at the end.  Each entry is cleared by
Euclid's algorithm against the pivot run to the end before the next
entry is touched.  Least-magnitude pivoting alone does not bound
coefficient growth: interleaving unfinished Euclid steps across a row
and a column took the entries of a 5x5 four-fiber Seifert core from 10
to 23,495 bits in ten passes (Kannan and Bachem, SIAM J. Comput. 8
(1979), on why Smith-form elimination must control growth).

The left transform is the piece consumers need: with D = S A T, the
cokernel Z^n / A Z^n is identified with Z^n / D Z^n by x -> S x, so
column j of S gives the coordinates of the j-th standard generator in
the diagonalized quotient.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import ConditionViolation

__all__ = ["SmithForm", "determinant", "smith_normal_form"]


def determinant(matrix) -> int:
    """Determinant of a square integer matrix by Bareiss elimination.

    Every intermediate value is an exact integer (the divisions in the
    Bareiss recurrence are exact), so there is no overflow or rounding at
    any size.
    """
    m = [[operator.index(x) for x in row] for row in matrix]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ConditionViolation("matrix must be square")
    if n == 0:
        return 1
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
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


@dataclass(frozen=True)
class SmithForm:
    """Diagonalization D = S A T with S, T unimodular.

    diagonal holds d_1 | d_2 | ... | d_r followed by zeros, all
    nonnegative.  left is S as a tuple of rows; right is T.
    """

    diagonal: tuple[int, ...]
    left: tuple[tuple[int, ...], ...]
    right: tuple[tuple[int, ...], ...]


def smith_normal_form(matrix) -> SmithForm:
    """Smith normal form of an integer matrix with transform tracking.

    Returns (diagonal, S, T) with diag = S A T, each d_i >= 0 and
    d_i | d_{i+1}.  Each row of the working matrix holds a row of A
    followed by the same row of S, so a row move acts on both; T is
    kept by columns, so a column move on A is one move on a column of
    T.  Before step k the first k rows and columns are zero off the
    diagonal, so a column move touches only rows k and below.  At
    step k a least-magnitude nonzero entry of the trailing block becomes
    the pivot, the first in row-major order, so the scan stops at the
    first unit.  Column k is cleared, then row k, each entry by Euclid's
    algorithm against the pivot run to the end before the next entry is
    touched.  The two passes repeat only while a column swap, made when
    the pivot shrank, refilled column k.  A pivot that fails to divide
    the rest of the trailing block takes the offending row added to row
    k and is chosen again; a unit pivot divides everything, so its scan
    is skipped.
    """
    m = [[*map(operator.index, row)] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ConditionViolation("matrix rows must have equal length")
    for i, row in enumerate(m):  # row i of A, then row i of S = I
        row += [int(i == j) for j in range(rows)]
    t = [[int(i == j) for i in range(cols)] for j in range(cols)]  # t[j]: column j of T
    size = min(rows, cols)
    k = 0
    while k < size:
        least = 0
        for i in range(k, rows):
            row = m[i]
            for j in range(k, cols):
                x = abs(row[j])
                if x and (not least or x < least):
                    least, pi, pj = x, i, j
                    if x == 1:
                        break
            if least == 1:
                break
        if not least:
            break
        m[k], m[pi] = m[pi], m[k]
        if pj != k:
            for row in m[k:]:
                row[k], row[pj] = row[pj], row[k]
            t[k], t[pj] = t[pj], t[k]
        # a column swap puts a smaller pivot and a fresh column at k
        refilled = True
        while refilled:
            refilled = False
            for i in range(k + 1, rows):
                while m[i][k]:
                    q = m[i][k] // m[k][k]
                    m[i] = [x - q * y for x, y in zip(m[i], m[k])]
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
            top = m[k]
            for j in range(k + 1, cols):
                while top[j]:
                    q = top[j] // top[k]
                    for row in m[k:]:
                        row[j] -= q * row[k]
                    t[j] = [x - q * y for x, y in zip(t[j], t[k])]
                    if top[j]:
                        for row in m[k:]:
                            row[k], row[j] = row[j], row[k]
                        t[k], t[j] = t[j], t[k]
                        refilled = True
        # divisibility: d_k must divide every remaining entry
        pivot = m[k][k]
        if pivot not in (1, -1):
            offender = next(
                (i for i in range(k + 1, rows) if any(m[i][j] % pivot for j in range(k + 1, cols))),
                None,
            )
            if offender is not None:
                m[k] = [x + y for x, y in zip(m[k], m[offender])]
                continue
        if pivot < 0:
            m[k] = [-x for x in m[k]]
        k += 1
    return SmithForm(
        diagonal=tuple(m[i][i] for i in range(size)),
        left=tuple(tuple(row[cols:]) for row in m),
        right=tuple(zip(*t)),
    )
