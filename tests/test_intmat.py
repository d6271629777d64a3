"""Smith normal form, exact and modulo |det|, against the reference determinant.

The determinant and the exact elimination `_smith_form` are the
references of `reference`, which the package does not run;
TestDeterminant checks the first, every other class reads the product
of a Smith diagonal against it, and the exact elimination is pinned
against the frozen block-matrix kernel below.
"""

import math
import random

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from contactsurgery.errors import ConditionViolation
from contactsurgery.intmat import _smith_form_mod

from reference import _smith_form, determinant


def mat_mul(a, b):
    return [
        [sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


small_matrix = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=1,
        max_size=4,
    )
)

# dense rectangular matrices past the toy sizes; the default deadline fails
# a call slowed by coefficient growth
dense_matrix = st.tuples(st.integers(1, 8), st.integers(1, 8)).flatmap(
    lambda shape: st.lists(
        st.lists(st.integers(-99, 99), min_size=shape[1], max_size=shape[1]),
        min_size=shape[0],
        max_size=shape[0],
    )
)

# zeros, units and a few non-units, so that pivots of 1 and of 2, 3 or 6
# both occur
sparse_matrix = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda shape: st.lists(
        st.lists(
            st.sampled_from((0, 0, 0, 1, -1, 2, -3, 6)), min_size=shape[1], max_size=shape[1]
        ),
        min_size=shape[0],
        max_size=shape[0],
    )
)


def _block_matrix_smith_form(matrix):
    """The kernel as it was before it dropped the block matrix, frozen:
    one elimination on [[A, I], [I, 0]], every column move applied to
    every row.  It fixes the moves, so it fixes S and T, and with them
    every coordinate that homology reads off S.  The package's kernel
    keeps no T; the checks here read it from this reference."""
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [row + [int(i == j) for j in range(rows)] for i, row in enumerate(a)]
    m += [[int(i == j) for j in range(cols)] + [0] * rows for i in range(cols)]
    k = 0
    while k < min(rows, cols):
        nonzero = [(abs(m[i][j]), i, j) for i in range(k, rows) for j in range(k, cols) if m[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        m[k], m[i] = m[i], m[k]
        for row in m:
            row[k], row[j] = row[j], row[k]
        refilled = True
        while refilled:
            refilled = False
            for i in range(k + 1, rows):
                while m[i][k]:
                    q = m[i][k] // m[k][k]
                    m[i] = [x - q * y for x, y in zip(m[i], m[k])]
                    if m[i][k]:
                        m[k], m[i] = m[i], m[k]
            for j in range(k + 1, cols):
                while m[k][j]:
                    q = m[k][j] // m[k][k]
                    for row in m:
                        row[j] -= q * row[k]
                    if m[k][j]:
                        for row in m:
                            row[k], row[j] = row[j], row[k]
                        refilled = True
        offender = next(
            (i for i in range(k + 1, rows) if any(m[i][j] % m[k][k] for j in range(k + 1, cols))),
            None,
        )
        if offender is not None:
            m[k] = [x + y for x, y in zip(m[k], m[offender])]
            continue
        if m[k][k] < 0:
            m[k] = [-x for x in m[k]]
        k += 1
    return (
        tuple(m[i][i] for i in range(min(rows, cols))),
        tuple(tuple(row[cols:]) for row in m[:rows]),
        tuple(tuple(row[:cols]) for row in m[rows:]),
    )


# [DERIVED] the Seifert core of (g, n) = (1, 1) with fibers (719, 628),
# (422, 331), (172, 121), (742, 597): generator rows x_0, t_1..t_4,
# relation columns n x_0 + sum beta_i t_i and x_0 - alpha_i t_i
FOUR_FIBER_CORE = (
    (1, 1, 1, 1, 1),
    (628, -719, 0, 0, 0),
    (331, 0, -422, 0, 0),
    (121, 0, 0, -172, 0),
    (597, 0, 0, 0, -742),
)


class TestDeterminant:
    def test_entries_must_be_exact_integers(self):
        # [[1.5]] had determinant 1, its entry silently truncated
        with pytest.raises(TypeError):
            determinant([[1.5]])
        with pytest.raises(TypeError):
            _smith_form([[2, 0], [0, 1.5]])

    def test_identity(self):
        # [TRIVIAL] det I = 1
        assert determinant([[1, 0], [0, 1]]) == 1
        assert determinant([[1]]) == 1
        assert determinant([]) == 1

    def test_two_by_two(self):
        # [TRIVIAL] ad - bc
        assert determinant([[2, 1], [1, -3]]) == -7
        assert determinant([[4, 1], [1, -3]]) == -13

    def test_three_by_three(self):
        # [DERIVED] cofactor expansion along the first row:
        # 2*(6 - 1) - 1*(-2 - 0) = 12
        assert determinant([[2, 1, 0], [1, -3, 1], [0, 1, -2]]) == 12

    def test_zero_column(self):
        assert determinant([[0, 1], [0, 5]]) == 0
        assert determinant([[1, 2, 3], [2, 4, 6], [0, 0, 1]]) == 0

    def test_row_swap_sign(self):
        # [TRIVIAL] odd permutation of the identity
        assert determinant([[0, 1], [1, 0]]) == -1
        assert determinant([[0, 0, 1], [1, 0, 0], [0, 1, 0]]) == 1

    def test_triangular(self):
        # [TRIVIAL] product of the diagonal
        assert determinant([[3, 17, -4], [0, -2, 9], [0, 0, 5]]) == -30

    def test_rejects_non_square(self):
        with pytest.raises(ConditionViolation):
            determinant([[1, 2, 3], [4, 5, 6]])

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_transpose_invariance(self, m):
        # [TRIVIAL] det A = det A^T
        t = [list(col) for col in zip(*m)]
        assert determinant(m) == determinant(t)


class TestSmithNormalForm:
    def test_diagonal_input(self):
        # [DERIVED] gcd(2, 3) = 1 and 2*3 = 6, so the form is (1, 6)
        assert _smith_form([[2, 0], [0, 3]])[0] == (1, 6)

    def test_single_entry(self):
        assert _smith_form([[2]])[0] == (2,)
        assert _smith_form([[0]])[0] == (0,)
        assert _smith_form([[-5]])[0] == (5,)

    def test_rectangular(self):
        assert _smith_form([[2, 4, 4]])[0] == (2,)
        assert _smith_form([[2], [4]])[0] == (2,)

    def test_rejects_ragged(self):
        with pytest.raises(ConditionViolation):
            _smith_form([[1, 2], [3]])

    def test_known_presentation(self):
        # [DERIVED] det = -7 and the matrix has a unit entry, so
        # coker = Z/7 and the form is (1, 7)
        assert _smith_form([[2, 1], [1, -3]])[0] == (1, 7)

    def check_invariants(self, m):
        """The kernel's (diagonal, S) against the reference's; returns the diagonal.

        The kernel keeps no T, so D = S A T is checked with the
        reference's T beside the kernel's S.
        """
        diagonal, left = _smith_form(m)
        reference = _block_matrix_smith_form(m)
        assert (diagonal, left) == reference[:2]
        right = reference[2]
        rows, cols = len(m), len(m[0])
        # transforms are unimodular
        assert abs(determinant([list(r) for r in left])) == 1
        assert abs(determinant([list(r) for r in right])) == 1
        # D = S A T exactly, with the claimed diagonal
        d = mat_mul(mat_mul([list(r) for r in left], m), [list(r) for r in right])
        for i in range(rows):
            for j in range(cols):
                assert d[i][j] == (diagonal[i] if i == j else 0)
        # nonnegative divisibility chain
        for x in diagonal:
            assert x >= 0
        for x, y in zip(diagonal, diagonal[1:]):
            assert y == 0 or (x != 0 and y % x == 0)
        return diagonal

    def test_invariants_on_examples(self):
        for m in (
            [[2, 1], [1, -3]],
            [[2, 1, 0], [1, -3, 1], [0, 1, -2]],
            [[6, 4], [4, 6]],
            [[0, 0], [0, 0]],
            [[1, 2, 3], [4, 5, 6], [7, 8, 9]],
        ):
            self.check_invariants(m)

    @given(small_matrix)
    def test_invariants_random(self, m):
        self.check_invariants(m)

    @given(dense_matrix)
    def test_invariants_dense(self, m):
        diagonal = self.check_invariants(m)
        if len(m) == len(m[0]):
            assert math.prod(diagonal) == abs(determinant(m))

    def test_four_fiber_seifert_core(self):
        # Interleaved partial Euclid steps grew its entries past 20,000 bits.
        core = [list(row) for row in FOUR_FIBER_CORE]
        diagonal = self.check_invariants(core)
        assert diagonal == (1, 1, 1, 2, 80658288870)
        assert math.prod(diagonal) == abs(determinant(core)) == 161316577740

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_diagonal_product_matches_determinant(self, m):
        # [DERIVED] |det| is invariant under unimodular transforms, so it
        # must equal the product of the Smith diagonal entries
        product = 1
        for x in _smith_form(m)[0]:
            product *= x
        assert product == abs(determinant(m))


class TestSameMovesAsTheBlockMatrix:
    """The kernel makes the block-matrix kernel's moves in the same order,
    so it returns the same diagonal and S, not just some Smith form."""

    def check(self, m):
        assert _smith_form(m) == _block_matrix_smith_form(m)[:2]

    @given(small_matrix)
    def test_small(self, m):
        self.check(m)

    @given(dense_matrix)
    def test_dense(self, m):
        self.check(m)

    @given(sparse_matrix)
    def test_sparse_with_units(self, m):
        # the early stops of the pivot scan and of the divisibility scan
        self.check(m)

    def test_four_fiber_seifert_core(self):
        self.check(FOUR_FIBER_CORE)

    def test_empty_shapes(self):
        for m in ([], [[]], [[], []], [[0]], [[0, 0], [0, 0]]):
            self.check(m)


def _square(entries, largest):
    return st.integers(1, largest).flatmap(
        lambda n: st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )


# units, zeros and small non-units, so that non-trivial diagonals beside
# the last one occur
SPARSE_ENTRIES = st.sampled_from((0, 0, 0, 1, -1, 2, -2, 3, 4, -6))


class TestSmithFormModDet:
    """The elimination modulo |det| against the exact kernel and Bareiss."""

    def check(self, m):
        """The kernel's diagonal and S at modulus |det m|; returns them.

        S kills every relation and is invertible modulo M, so x -> S x is
        onto the sum of the Z/d_i; with prod d_i = |det| = the order of
        the cokernel, the map is an isomorphism.
        """
        modulus = abs(determinant(m))
        diagonal, left = _smith_form_mod(m, modulus)
        assert math.prod(diagonal) == modulus
        assert all(b % a == 0 for a, b in zip(diagonal, diagonal[1:]))
        assert all(0 <= s < modulus for row in left for s in row)
        size = len(m)
        for r in range(size):
            for row, d in zip(left, diagonal):
                assert sum(row[j] * m[j][r] for j in range(size)) % d == 0
        assert determinant(left) % modulus in (1 % modulus, -1 % modulus)
        return diagonal, left

    @given(_square(st.integers(-99, 99), 12))
    def test_dense(self, m):
        assume(determinant(m))
        assert self.check(m)[0] == _smith_form(m)[0]

    @given(_square(SPARSE_ENTRIES, 12))
    def test_sparse(self, m):
        assume(determinant(m))
        assert self.check(m)[0] == _smith_form(m)[0]

    def test_four_fiber_seifert_core(self):
        diagonal, _ = self.check(FOUR_FIBER_CORE)
        assert diagonal == (1, 1, 1, 2, 80658288870)

    def test_dense_thirty(self):
        # [DERIVED] a seeded dense 30x30 matrix in +-99, |det| of 230 bits.
        # S stays below the modulus; the exact kernel's S on such matrices
        # reaches 10^4 to 10^6 bits and takes seconds, so the diagonal is
        # proved by check's isomorphism argument instead of compared
        rng = random.Random(30)
        m = [[rng.randint(-99, 99) for _ in range(30)] for _ in range(30)]
        diagonal, left = self.check(m)
        assert abs(determinant(m)).bit_length() == 230
        assert max(s.bit_length() for row in left for s in row) <= 230

    @given(_square(SPARSE_ENTRIES, 6), st.integers(2, 6))
    def test_proper_multiple_fails_the_product_check(self, m, factor):
        modulus = abs(determinant(m))
        assume(modulus)
        with pytest.raises(AssertionError, match="^invariant factors do not multiply"):
            _smith_form_mod(m, factor * modulus)

    def test_diagonal_order_by_gcd_and_lcm(self):
        # [DERIVED] Z/4 + Z/6 + Z/9 = Z/1 + Z/6 + Z/36: the pivots come out
        # as 4, 6, 9 and the fix-up carries S along
        diagonal, _ = self.check([[4, 0, 0], [0, 6, 0], [0, 0, 9]])
        assert diagonal == (1, 6, 36)

    def test_unit_determinant(self):
        diagonal, left = self.check([[2, 1], [1, 1]])
        assert (diagonal, left) == ((1, 1), ((0, 0), (0, 0)))

    @pytest.mark.parametrize("modulus", [0, -7])
    def test_rejects_a_modulus_below_one(self, modulus):
        with pytest.raises(ConditionViolation, match="^modulus must be a positive integer$"):
            _smith_form_mod([[7]], modulus)

    @pytest.mark.parametrize("m", [[[1, 2]], [[1, 2], [3]], [[1], [2]]])
    def test_rejects_non_square(self, m):
        with pytest.raises(ConditionViolation, match="^matrix must be square$"):
            _smith_form_mod(m, 1)

    # ragged: one row short of the size, or one row past it, in the middle
    @pytest.mark.parametrize(
        "m", [[[2, 1, 0], [1, 3], [0, 1, 2]], [[2, 1, 0], [1, 3, 1, 5], [0, 1, 2]]]
    )
    @pytest.mark.parametrize("modulus", [1, 7])
    def test_rejects_ragged_rows(self, m, modulus):
        with pytest.raises(ConditionViolation, match="^matrix must be square$"):
            _smith_form_mod(m, modulus)

    @pytest.mark.parametrize("m", [[[7.0]], [[2, 1], [1, 3.0]]])
    def test_rejects_a_float_entry(self, m):
        with pytest.raises(TypeError):
            _smith_form_mod(m, 7)
