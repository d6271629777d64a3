"""The one integer matrix kernel: Smith normal form modulo |det|.

The package exports nothing from here; `homology` runs the kernel
privately.  `_smith_form_mod` returns (diagonal, S): the invariant
factors of a nonsingular square matrix A and a left transform S with
Z^n / A Z^n identified with the sum of the Z/d_i by x -> S x, so
column j of S gives the coordinates of the j-th standard generator in
the diagonalized quotient.  No consumer reads the right transform T,
so the kernel keeps none: it eliminates left-only, each row of A
travelling with the same row of S while columns move unseen.  It runs
modulo |det A|, which the caller supplies, so no entry of the matrix
or of S outgrows it.  `homology` runs it on the k x k fiber block of
every star whose Euler numerator E is nonzero, with modulus |E|, and on
a singular block (E = 0) on the nonsingular matrix with the same
torsion that `homology._singular_block` builds from the legs' ends, so
no exact elimination runs in the package.

The module runs no determinant and no exact elimination: the tests
check the product of the Smith diagonal entries against |det| by the
Bareiss elimination of `tests/reference.py`, and run the exact
elimination kept there, `_smith_form`, on whole linking matrices as
the reference.  The package's one Bareiss pass is
`lattice.is_negative_definite`.
"""

from __future__ import annotations

import math
import operator

from .errors import ConditionViolation

__all__ = []


def _bezout(p: int, x: int) -> tuple[int, int, int]:
    """(g, u, v) with g = gcd(p, x) = u p + v x > 0, for p and x not both 0.

    The extended Euclid loop: after its first two steps every number is
    at most min(|p|, |x|), so a small entry against a large one is cheap.
    """
    u, u1, v, v1 = 1, 0, 0, 1
    while x:
        q = p // x
        p, x = x, p - q * x
        u, u1 = u1, u - q * u1
        v, v1 = v1, v - q * v1
    return (p, u, v) if p > 0 else (-p, -u, -v)


def _smith_form_mod(matrix, modulus: int) -> tuple[tuple[int, ...], tuple[tuple[int, ...], ...]]:
    """Invariant factors and a left transform of a square A, modulo M = |det A|.

    Returns (diagonal, S): d_1 | d_2 | ... with Z^n / A Z^n identified
    with the sum of the Z/d_i by x -> S x, every entry of S in [0, M).
    adj(A) A = det(A) I puts M Z^n inside A Z^n, so the cokernel is that
    of [A | M I], and every entry of A and of S may be reduced modulo M,
    since each d_i divides M (Domich, Kannan and Trotter, Math. Oper. Res.
    12, 1987; Cohen, GTM 138, Alg. 2.4.14).  Each row of A travels with
    its row of S and columns move unseen.  At step k the entry of column
    k with the least symmetric residue (the representative in
    (-M/2, M/2]) becomes the pivot p; the pivot search writes each
    entry's residue into column k once, and the row moves read it there.
    The column is cleared below the pivot by row moves on those
    residues: a quotient step when p divides the entry x, else one Bezout
    move [[u, v], [-x/g, p/g]] with g = gcd(p, x) = u p + v x, after
    which g is the pivot.  The pivot then becomes gcd(p, M), a column
    move against M e_k, and row k is cleared by column moves, which are
    free while column k is zero below the pivot: each entry is reduced
    modulo the pivot, and a nonzero remainder takes one Bezout column
    move, which refills column k and makes the pivot a proper divisor of
    itself, so the two passes run at most log2 M times per step.  Last,
    gcd/lcm moves on pairs, each carried on S by the unimodular
    [[u, v], [-b/g, a/g]] that takes diag(a, b) to diag(g, lcm), put the
    diagonal in divisibility order.  Raises AssertionError unless the
    product of the d_i is M: for M a multiple of |det A| that product is
    |det A|, so a proper multiple fails.
    """
    m = operator.index(modulus)
    if m <= 0:
        raise ConditionViolation("modulus must be a positive integer")
    a = [[operator.index(x) % m for x in row] for row in matrix]
    size = len(a)
    if any(len(row) != size for row in a):
        raise ConditionViolation("matrix must be square")
    unit = 1 % m
    for i, row in enumerate(a):  # row i of A, then row i of S = I
        row += [unit if i == j else 0 for j in range(size)]
    half = m // 2
    for k in range(size):
        while True:
            least, pivot = 0, k
            for i in range(k, size):
                row = a[i]
                x = row[k]
                if x > half:
                    x -= m
                    row[k] = x
                if x and (not least or abs(x) < least):
                    least, pivot = abs(x), i
            if pivot != k:
                a[k], a[pivot] = a[pivot], a[k]
            top = a[k]
            p = top[k]
            for i in range(k + 1, size):
                row = a[i]
                x = row[k]
                if not x:
                    continue
                if not x % p:
                    q = x // p
                    a[i] = [(y - q * z) % m for y, z in zip(row, top)]
                    continue
                g, u, v = _bezout(p, x)
                p, x = p // g, x // g
                a[i] = [(p * y - x * z) % m for y, z in zip(row, top)]
                top = a[k] = [(u * z + v * y) % m for y, z in zip(row, top)]
                p = g
            p = top[k] = math.gcd(top[k], m)
            for j in range(k + 1, size):
                x = top[j] % p
                if x:
                    break
                top[j] = 0
            else:
                break
            g, u, v = _bezout(p, x)
            p, x = p // g, x // g
            for row in a[k + 1 :]:
                y, z = row[k], row[j]
                row[k], row[j] = (u * y + v * z) % m, (p * z - x * y) % m
            top[k], top[j] = g, 0
    diagonal = [a[k][k] for k in range(size)]
    left = [row[size:] for row in a]
    for i in range(size):
        for j in range(i + 1, size):
            p, x = diagonal[i], diagonal[j]
            if x % p:
                g, u, v = _bezout(p, x)
                diagonal[i], diagonal[j] = g, p // g * x
                p, x = p // g, x // g
                si, sj = left[i], left[j]
                left[i] = [(u * y + v * z) % m for y, z in zip(si, sj)]
                left[j] = [(p * z - x * y) % m for y, z in zip(si, sj)]
    if math.prod(diagonal) != m:
        raise AssertionError("invariant factors do not multiply to the modulus")
    return tuple(diagonal), tuple(map(tuple, left))
