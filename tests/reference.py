"""Reference kernels that the tests compare the package against.

`admissible_points` flattens `homology.admissible_blocks` into the
points (g, n, alpha, sign, r) of the grid, in its order; the package
itself only ever walks whole blocks.

`determinant` is fraction-free Bareiss elimination with row pivoting.
The package runs no determinant: `lattice.is_negative_definite` is its
one Bareiss pass, and it stops at the first leading minor of the wrong
sign.  The tests use this one to check the Smith diagonal products, the
torsion orders of H1 and the leading minors behind that definiteness
test, so it is kept here, beside the code it checks, and not in `src`.

`_smith_form` is the exact Smith elimination with a left transform,
returning (diagonal, S) as `intmat._smith_form_mod` does.  The package
runs no exact elimination: `homology` hands a singular fiber block to
the modular kernel through `homology._singular_block`.  The tests run
this one on whole linking matrices and on the Seifert core as the
reference that H1 is checked against.  Each entry is cleared by
Euclid's algorithm against the pivot run to the end before the next
entry is touched.  Least-magnitude pivoting alone does not bound
coefficient growth: interleaving unfinished Euclid steps across a row
and a column took the entries of a 5x5 four-fiber Seifert core from 10
to 23,495 bits in ten passes (Kannan and Bachem, SIAM J. Comput. 8
(1979), on why Smith-form elimination must control growth).  Its left
transform still grows on dense or many-fiber input, so the tests keep
it to small matrices.

`render_json` is the standard library's encoder with the options that
`cli.render_json` once called it with.  CPython's `json` runs its
pure-Python encoder whenever `indent` is set, so the package writes the
same bytes in one joined pass of its own; the tests hold it to these.
"""

from __future__ import annotations

import json
import operator

from contactsurgery.errors import ConditionViolation
from contactsurgery.homology import admissible_blocks


def admissible_points(g, n, alpha):
    """Every point of the (g, n, alpha) grid: sign +1 with r ascending, then sign -1."""
    for sign, rs in admissible_blocks(g, n, alpha):
        for r in rs:
            yield g, n, alpha, sign, r


def render_json(document) -> str:
    """document as indented JSON, rationals and other objects as their str."""
    return json.dumps(document, indent=2, default=str) + "\n"


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


def _smith_form(matrix) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Smith normal form of an integer matrix with a left transform.

    Returns (diagonal, S) with diag = S A T for some unimodular T that
    is not kept, each d_i >= 0 and d_i | d_{i+1}.  Each row of the
    working matrix holds a row of A followed by the same row of S, so a
    row move acts on both.  Before step k the first k rows and columns
    are zero off the diagonal, so a column move touches only rows k and
    below.  At step k a least-magnitude nonzero entry of the trailing
    block becomes the pivot, the first in row-major order, so the scan
    stops at the first unit.  Column k is cleared, then row k, each
    entry by Euclid's algorithm against the pivot run to the end before
    the next entry is touched.  The two passes repeat only while a
    column swap, made when the pivot shrank, refilled column k.  A
    pivot that fails to divide the rest of the trailing block takes the
    offending row added to row k and is chosen again; a unit pivot
    divides everything, so its scan is skipped.
    """
    m = [[*map(operator.index, row)] for row in matrix]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    if any(len(row) != cols for row in m):
        raise ConditionViolation("matrix rows must have equal length")
    for i, row in enumerate(m):  # row i of A, then row i of S = I
        row += [int(i == j) for j in range(rows)]
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
                    if top[j]:
                        for row in m[k:]:
                            row[k], row[j] = row[j], row[k]
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
    return tuple(m[i][i] for i in range(size)), tuple(tuple(row[cols:]) for row in m)
