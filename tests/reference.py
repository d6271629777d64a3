"""Reference kernels that the tests compare the package against.

`determinant` is fraction-free Bareiss elimination with row pivoting.
The package runs no determinant: `lattice.is_negative_definite` is its
one Bareiss pass, and it stops at the first leading minor of the wrong
sign.  The tests use this one to check the Smith diagonal products, the
torsion orders of H1 and the leading minors behind that definiteness
test, so it is kept here, beside the code it checks, and not in `src`.
"""

from __future__ import annotations

import operator

from contactsurgery.errors import ConditionViolation


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
