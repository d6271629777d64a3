"""Exact integer matrix kernels: determinant and Smith normal form.

Two independent routes to the same torsion data keep each other honest:
`determinant` is fraction-free Bareiss elimination, `smith_normal_form`
is a full diagonalization with unimodular row and column transforms.
For any square integer matrix the product of the Smith diagonal entries
must reproduce |det| exactly.

The left transform is the piece consumers need: with D = S A T, the
cokernel Z^n / A Z^n is identified with Z^n / D Z^n by x -> S x, so
column j of S gives the coordinates of the j-th standard generator in
the diagonalized quotient.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

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
        raise ValueError("matrix must be square")
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
    d_i | d_{i+1}.  Pivoting always selects a least-magnitude nonzero
    entry, so coefficient growth stays tame at the sizes this package
    produces (star-shaped plumbing matrices).
    """
    a = [[operator.index(x) for x in row] for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(row) != cols for row in a):
        raise ValueError("matrix rows must have equal length")
    s = [[int(i == j) for j in range(rows)] for i in range(rows)]
    t = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(i: int, j: int, c: int) -> None:
        a[i] = [x + c * y for x, y in zip(a[i], a[j])]
        s[i] = [x + c * y for x, y in zip(s[i], s[j])]

    def add_col(i: int, j: int, c: int) -> None:
        for row in a:
            row[i] += c * row[j]
        for row in t:
            row[i] += c * row[j]

    def swap_rows(i: int, j: int) -> None:
        a[i], a[j] = a[j], a[i]
        s[i], s[j] = s[j], s[i]

    def swap_cols(i: int, j: int) -> None:
        for row in a:
            row[i], row[j] = row[j], row[i]
        for row in t:
            row[i], row[j] = row[j], row[i]

    def negate_row(i: int) -> None:
        a[i] = [-x for x in a[i]]
        s[i] = [-x for x in s[i]]

    k = 0
    while k < min(rows, cols):
        # move a least-magnitude nonzero entry of the trailing block to (k, k)
        pivot = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0 and (pivot is None or abs(a[i][j]) < abs(a[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(k, pivot[0])
        swap_cols(k, pivot[1])
        # clear row and column k; swaps shrink the pivot, so this terminates
        while True:
            stable = True
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    add_row(i, k, -(a[i][k] // a[k][k]))
                    if a[i][k] != 0:
                        swap_rows(i, k)
                        stable = False
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    add_col(j, k, -(a[k][j] // a[k][k]))
                    if a[k][j] != 0:
                        swap_cols(j, k)
                        stable = False
            if stable:
                break
        # divisibility: d_k must divide every remaining entry
        offender = None
        for i in range(k + 1, rows):
            if any(a[i][j] % a[k][k] != 0 for j in range(k + 1, cols)):
                offender = i
                break
        if offender is not None:
            add_row(k, offender, 1)
            continue
        if a[k][k] < 0:
            negate_row(k)
        k += 1
    diagonal = tuple(a[i][i] for i in range(min(rows, cols)))
    return SmithForm(
        diagonal=diagonal,
        left=tuple(tuple(row) for row in s),
        right=tuple(tuple(row) for row in t),
    )
