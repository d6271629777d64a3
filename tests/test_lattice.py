"""Obstruction lattices and the certified diagonal embedding search."""

import math
import re
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from contactsurgery.errors import ConditionViolation, SearchExhausted
from contactsurgery.homology import IntegralPresentation, homology, mu_order, presentation
import contactsurgery.lattice as lattice_module
from contactsurgery.lattice import (
    DiagonalEmbedding,
    Lattice,
    _embeddings,
    _search,
    embeds_in_diagonal,
    is_negative_definite,
    lambda_q,
    lambda_q_certificate,
    nonfillability_obstruction,
)
from contactsurgery.seifert import SeifertInvariants

from reference import determinant


def _recursive_search(lattice: Lattice) -> DiagonalEmbedding | None:
    """The original search: one recursive call per column, the column
    histories rebuilt and the cut's row tails summed at every node."""
    gram = lattice.gram
    rank = lattice.rank
    columns = sum(-gram[i][i] for i in range(rank))
    placed = []

    def place(i):
        if i == rank:
            vectors = [tuple(v) for v in placed]
            used = max(
                (k + 1 for v in vectors for k, x in enumerate(v) if x != 0), default=1
            )
            return DiagonalEmbedding(vectors=tuple(v[:used] for v in vectors))
        norm = -gram[i][i]
        targets = [-gram[j][i] for j in range(i)]
        return extend(i, 0, norm, targets, [0] * columns)

    def extend(i, col, norm_left, dots_left, vector):
        if col == columns:
            if norm_left == 0 and all(d == 0 for d in dots_left):
                placed.append(vector[:])
                result = place(i + 1)
                if result is None:
                    placed.pop()
                return result
            return None
        history = tuple(v[col] for v in placed)
        bound = math.isqrt(norm_left)
        low, high = -bound, bound
        if col > 0 and tuple(v[col - 1] for v in placed) == history:
            high = min(high, vector[col - 1])
        if not any(history):
            low = max(low, 0)
        for value in range(low, high + 1):
            vector[col] = value
            new_dots = [d - value * h for d, h in zip(dots_left, history)]
            if feasible(norm_left - value * value, new_dots, col):
                result = extend(i, col + 1, norm_left - value * value, new_dots, vector)
                if result is not None:
                    return result
        vector[col] = 0
        return None

    def feasible(norm_left, dots_left, col):
        if norm_left < 0:
            return False
        for d, row in zip(dots_left, placed):
            tail = sum(x * x for x in row[col + 1 :])
            if d * d > tail * norm_left:
                return False
        return True

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3000))  # about rank * (columns + 1) frames
    try:
        return place(0)
    finally:
        sys.setrecursionlimit(limit)


def _frozen_embeddings(lattice: Lattice):
    """The search as it was before the zero-tail and forced-value cuts,
    frozen, with no node budget: every vector keeps coordinates, class
    marks and row tails over all m = sum |gram_ii| columns, tries 0 on a
    fresh column and every value in range on a column where a placed row
    ends.  It walks the subtrees the cuts skip, so it yields the same
    canonical embeddings in the same order, in more nodes."""
    gram = lattice.gram
    rank = lattice.rank
    if rank == 0:
        yield DiagonalEmbedding(vectors=()), 0
        return 0
    columns = sum(-gram[i][i] for i in range(rank))
    placed = []
    history = [[] for _ in range(columns)]
    tails = []
    levels = []
    stack = []

    def open_vector(i, same, fresh):
        levels.append(([0] * columns, same, fresh))
        norm = -gram[i][i]
        bound = math.isqrt(norm)
        targets = {j: -gram[j][i] for j in range(i) if gram[j][i]}
        stack.append([0, 0 if fresh[0] else -bound, bound, norm, targets])
        return levels[-1]

    vector, same, fresh = open_vector(0, [False] + [True] * (columns - 1), [True] * columns)
    nodes = 0
    while stack:
        nodes += 1
        frame = stack[-1]
        col, value, high, norm_left, dots = frame
        if value > high:
            stack.pop()
            vector[col] = 0
            if col == 0 and placed:
                levels.pop()
                tails.pop()
                for c, x in enumerate(placed.pop()):
                    if x:
                        history[c].pop()
                vector, same, fresh = levels[-1]
            continue
        frame[1] = value + 1
        vector[col] = value
        left = norm_left - value * value
        if value and history[col]:
            dots = dots.copy()
            for j, h in history[col]:
                d = dots.pop(j, 0) - value * h
                if d:
                    dots[j] = d
        if any(d * d > tails[j][col] * left for j, d in dots.items()):
            continue
        nxt = col + 1
        if left == 0:
            if nxt < columns and same[nxt] and value < 0:
                continue
            if len(placed) + 1 == rank:
                vectors = [*map(tuple, placed), tuple(vector)]
                used = max(i + 1 for v in vectors for i, x in enumerate(v) if x)
                yield DiagonalEmbedding(vectors=tuple(v[:used] for v in vectors)), nodes
                continue
            row = vector[:]
            placed.append(row)
            tail = [0] * columns
            after = 0
            for c in range(columns - 1, -1, -1):
                tail[c] = after
                if row[c]:
                    history[c].append((len(placed) - 1, row[c]))
                    after += row[c] * row[c]
            tails.append(tail)
            vector, same, fresh = open_vector(
                len(placed),
                [False] + [same[c] and row[c - 1] == row[c] for c in range(1, columns)],
                [f and not x for f, x in zip(fresh, row)],
            )
        elif nxt < columns:
            bound = math.isqrt(left)
            low = 0 if fresh[nxt] else -bound
            high = min(bound, value) if same[nxt] else bound
            stack.append([nxt, low, high, left, dots])
    return nodes


@st.composite
def planted_lattices(draw, max_rank=6):
    """Gram = -V V^T of integer rows: embeddable whenever definite."""
    rank = draw(st.integers(1, max_rank))
    width = draw(st.integers(1, 6))
    rows = draw(
        st.lists(
            st.lists(st.integers(-1, 1), min_size=width, max_size=width),
            min_size=rank,
            max_size=rank,
        )
    )
    gram = tuple(tuple(-sum(a * b for a, b in zip(u, v)) for v in rows) for u in rows)
    return Lattice(gram=gram, rank=rank)


@st.composite
def weighted_stars(draw):
    """Three-legged stars of weight -2 or -3 vertices, ranks 4..12; some
    (E6, E7, E8 and their reweightings) embed nowhere."""
    first = draw(st.integers(1, 9))
    second = draw(st.integers(1, 10 - first))
    legs = [first, second, draw(st.integers(1, 11 - first - second))]
    rank = 1 + sum(legs)
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = draw(st.sampled_from([-2, -2, -2, -3]))
    k = 1
    for length in legs:
        prev = 0  # each leg starts at the centre
        for _ in range(length):
            gram[prev][k] = gram[k][prev] = 1
            prev, k = k, k + 1
    return Lattice(gram=tuple(map(tuple, gram)), rank=rank)


@st.composite
def presentable_stars(draw):
    """Seifert invariants of 1..8 fibers alpha >= beta >= 1, alpha <= 40,
    so up to 313 vertices; beta = alpha - 1 half the time, a leg of
    alpha - 1 entries of -2, and n on either side of -sum beta / alpha."""
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        alpha = draw(st.integers(1, 40))
        beta = draw(st.one_of(st.just(max(alpha - 1, 1)), st.integers(1, alpha)))
        common = math.gcd(alpha, beta)
        pairs.append((alpha // common, beta // common))
    return SeifertInvariants(0, draw(st.integers(-len(pairs) - 1, 1)), tuple(pairs))


@st.composite
def dense_grams(draw):
    """Symmetric matrices with diagonal -1..-4 and entries -1..1 off it."""
    rank = draw(st.integers(1, 5))
    gram = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        gram[i][i] = -draw(st.integers(1, 4))
        for j in range(i):
            gram[i][j] = gram[j][i] = draw(st.integers(-1, 1))
    return Lattice(gram=tuple(map(tuple, gram)), rank=rank)


@st.composite
def sparse_grams(draw):
    """Paths, three-leg stars and trees of rank 1..40, weights -1..-4 and
    edges of either sign, with the vertices in a random order, so that
    rows wait through many elimination steps untouched; many of them
    reach a zero or positive leading minor part way."""
    rank = draw(st.integers(1, 40))
    shape = draw(st.sampled_from(["path", "star", "tree"]))
    if shape == "path":
        parents = [k - 1 for k in range(1, rank)]
    elif shape == "star":  # legs 1..a, a+1..b and b+1..rank-1 on vertex 0
        a = draw(st.integers(0, rank - 1))
        b = draw(st.integers(a, rank - 1))
        parents = [0 if k in (1, a + 1, b + 1) else k - 1 for k in range(1, rank)]
    else:
        parents = [draw(st.integers(0, k - 1)) for k in range(1, rank)]
    gram = [[0] * rank for _ in range(rank)]
    for k in range(rank):
        gram[k][k] = draw(st.sampled_from([-1, -2, -2, -3, -4]))
    for k, parent in enumerate(parents, start=1):
        gram[k][parent] = gram[parent][k] = draw(st.sampled_from([1, -1]))
    order = draw(st.permutations(range(rank)))
    return Lattice(gram=tuple(tuple(gram[i][j] for j in order) for i in order), rank=rank)


def leading_minors_alternate(gram) -> bool:
    """Sylvester's criterion by a separate determinant of each leading
    block, stopping at the first one of the wrong sign."""
    return all(
        determinant([row[:k] for row in gram[:k]]) * (-1) ** k > 0
        for k in range(1, len(gram) + 1)
    )


def root_star(*legs):
    """The Gram matrix of the star of (-2)-vectors with legs of the given
    lengths around vertex 0, each leg numbered outwards: D_k has legs
    1, 1, k - 3 and E_n has legs 1, 2, n - 4."""
    rank = 1 + sum(legs)
    gram = [[-2 * (i == j) for j in range(rank)] for i in range(rank)]
    k = 1
    for length in legs:
        prev = 0
        for _ in range(length):
            gram[prev][k] = gram[k][prev] = 1
            prev, k = k, k + 1
    return tuple(map(tuple, gram))


# E6 embeds in no diagonal lattice: the root lattices in a diagonal
# lattice are sums of A_n and D_n
E6 = root_star(1, 2, 2)


def assert_sound(embedding, lattice):
    for i in range(lattice.rank):
        for j in range(lattice.rank):
            assert embedding.pairing(i, j) == lattice.gram[i][j]


class TestLattice:
    def test_validation(self):
        with pytest.raises(ConditionViolation):
            Lattice(gram=((-2, 1), (0, -2)), rank=2)
        with pytest.raises(ConditionViolation):
            Lattice(gram=((-2,),), rank=2)

    def test_shape_is_checked_before_symmetry(self):
        with pytest.raises(ConditionViolation, match="^gram matrix must be rank x rank$"):
            Lattice(gram=((-2, 1), (0,)), rank=2)
        with pytest.raises(ConditionViolation, match="^gram matrix must be symmetric$"):
            Lattice(gram=((-2, 1, 0), (1, -2, 1), (0, 0, -2)), rank=3)

    def test_gram_entries_must_be_exact_integers(self):
        # -2.5 was silently truncated to -2
        with pytest.raises(TypeError):
            Lattice(gram=((-2.5,),), rank=1)

    def test_pairing_sign(self):
        # [TRIVIAL] rows (1,0) and (1,1) have Euclidean dot 1
        emb = DiagonalEmbedding(vectors=((1, 0), (1, 1)))
        assert emb.pairing(0, 1) == -1
        assert emb.pairing(1, 1) == -2


class TestLambdaQ:
    def test_q2_gram(self):
        # [DERIVED] path v1, v2, v3 of squares -2, w of square -1 on v2
        lat = lambda_q(2)
        assert lat.rank == 4
        assert lat.gram == (
            (-2, 1, 0, 0),
            (1, -2, 1, 1),
            (0, 1, -2, 0),
            (0, 1, 0, -1),
        )

    def test_q3_shape(self):
        # [DERIVED] all squares -2 with a length-5 path and w on its
        # middle vertex: the rank-6 tree with branch point at v_3
        lat = lambda_q(3)
        assert lat.rank == 6
        for i in range(6):
            assert lat.gram[i][i] == -2
        assert lat.gram[5][2] == 1
        assert lat.gram[5][4] == 0
        # [DERIVED] that tree's form has determinant 3
        assert determinant([list(r) for r in lat.gram]) == 3

    def test_w_square_grows(self):
        assert lambda_q(4).gram[7][7] == -3
        assert lambda_q(4).gram[7][3] == 1

    def test_degenerate_rejected(self):
        with pytest.raises(ConditionViolation, match="need q >= 2, got 1"):
            lambda_q(1)
        with pytest.raises(ConditionViolation, match="need q >= 2, got 0"):
            lambda_q(0)

    def test_matches_the_hand_built_path(self):
        # the loop lambda_q used before it read the star's presentation
        for q in range(2, 41):
            rank = 2 * q
            gram = [[0] * rank for _ in range(rank)]
            for i in range(rank - 1):
                gram[i][i] = -2
                if i + 1 < rank - 1:
                    gram[i][i + 1] = gram[i + 1][i] = 1
            gram[rank - 1][rank - 1] = 1 - q
            gram[rank - 1][q - 1] = gram[q - 1][rank - 1] = 1
            assert lambda_q(q).gram == tuple(map(tuple, gram))

    def test_determinant_is_the_star_torsion(self):
        for q in range(3, 41):
            star = SeifertInvariants(0, -2, ((q, q - 1), (q, q - 1), (q - 1, 1)))
            torsion = homology(presentation(star)).torsion
            det = determinant([list(row) for row in lambda_q(q).gram])
            assert abs(det) == q * (q - 2) == math.prod(torsion) == mu_order(star)

    def test_chain_bound(self):
        # each leg of the star is a chain of q - 1 entries
        message = "q = 3002 is above the chain bound q <= 3001 (g <= 4499999)"
        with pytest.raises(ConditionViolation, match=re.escape(message)):
            lambda_q(3002)


class TestNegativeDefinite:
    def test_accepts(self):
        assert is_negative_definite(Lattice(gram=((-1,),), rank=1))
        assert is_negative_definite(Lattice(gram=((-2, 1), (1, -2)), rank=2))
        assert is_negative_definite(lambda_q(3))
        assert is_negative_definite(lambda_q(4))

    def test_rejects(self):
        assert not is_negative_definite(Lattice(gram=((0,),), rank=1))
        assert not is_negative_definite(Lattice(gram=((1,),), rank=1))
        assert not is_negative_definite(Lattice(gram=((-1, 2), (2, -1)), rank=2))

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 6).flatmap(
            lambda n: st.tuples(
                st.lists(st.integers(-6, 1), min_size=n, max_size=n),
                st.lists(
                    st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                    min_size=n,
                    max_size=n,
                ),
            )
        )
    )
    def test_matches_leading_minors(self, drawn):
        # one Bareiss pass against a separate determinant of each block;
        # about a fifth of these matrices are negative definite
        diagonal, rows = drawn
        n = len(diagonal)
        gram = tuple(
            tuple(diagonal[i] if i == j else rows[min(i, j)][max(i, j)] for j in range(n))
            for i in range(n)
        )
        expected = all(
            determinant([row[:k] for row in gram[:k]]) * (-1) ** k > 0
            for k in range(1, n + 1)
        )
        assert is_negative_definite(Lattice(gram=gram, rank=n)) is expected

    def test_zero_pivot_stops_before_dividing(self):
        # [DERIVED] leading minors -1, 0, 1: the zero second minor fails
        # the test even though the full determinant has the right sign
        gram = ((-1, 1, 0), (1, -1, 1), (0, 1, -1))
        assert determinant([list(r) for r in gram]) == 1
        assert not is_negative_definite(Lattice(gram=gram, rank=3))

    @settings(max_examples=100, deadline=None)
    @given(sparse_grams())
    def test_sparse_matches_leading_minors(self, lattice):
        # the rows the pass skips are scaled when next touched; a wrong
        # scaling shows up as a minor of the wrong sign or an inexact
        # division further on
        assert is_negative_definite(lattice) is leading_minors_alternate(lattice.gram)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(2, 40))
    @example(40)
    def test_lambda_q_matches_leading_minors(self, q):
        lattice = lambda_q(q)
        assert is_negative_definite(lattice) is leading_minors_alternate(lattice.gram)

    def test_row_skipped_until_it_is_the_pivot(self):
        # [DERIVED] the path v0 - v1 - v2 of (-2)-vectors has leading
        # minors -2, 3, -4; v3 meets none of them, so its row waits
        # through three steps and then pivots at (-2)(-4) = 8 or, with
        # weight +1, at -4, the wrong sign for an even block
        path = ((-2, 1, 0, 0), (1, -2, 1, 0), (0, 1, -2, 0), (0, 0, 0, -2))
        assert [determinant([r[:k] for r in path[:k]]) for k in (1, 2, 3, 4)] == [-2, 3, -4, 8]
        assert is_negative_definite(Lattice(gram=path, rank=4))
        flipped = path[:3] + ((0, 0, 0, 1),)
        assert determinant([list(r) for r in flipped]) == -4
        assert not is_negative_definite(Lattice(gram=flipped, rank=4))

    def test_zero_pivot_after_skipped_rows(self):
        # [DERIVED] v2 and v3 (weights -1, joined) wait through the steps
        # of v0 - v1; v3 is touched once, at step 2, and then pivots at
        # 0, so the pass stops before step 4 would divide by it
        gram = (
            (-2, 1, 0, 0, 0),
            (1, -2, 0, 0, 0),
            (0, 0, -1, 1, 0),
            (0, 0, 1, -1, 1),
            (0, 0, 0, 1, -2),
        )
        minors = [determinant([r[:k] for r in gram[:k]]) for k in range(1, 6)]
        assert minors == [-2, 3, -3, 0, 3]
        assert not is_negative_definite(Lattice(gram=gram, rank=5))

    def test_q2_is_degenerate(self):
        # [DERIVED] det lambda_2 = 0, so the q = 2 form is only semidefinite
        lat = lambda_q(2)
        assert determinant([list(r) for r in lat.gram]) == 0
        assert not is_negative_definite(lat)

    @settings(deadline=None)
    @given(presentable_stars())
    @example(SeifertInvariants(0, -2, ((40, 39), (40, 39), (39, 1))))  # lambda_40's star
    @example(SeifertInvariants(0, -8, ((40, 39),) * 8))  # 313 vertices, e = -1/5
    def test_star_definite_exactly_when_its_euler_numerator_is_negative(self, inv):
        # [DERIVED] the Schur complement of the legs at the centre is
        # e = n + sum beta / alpha and each leg's chain is definite, so the
        # form is definite exactly when E = e prod alpha < 0 (Neumann-Raymond)
        matrix = presentation(inv).matrix
        euler = (inv.n + sum(Fraction(b, a) for a, b in inv.pairs)) * math.prod(
            a for a, _ in inv.pairs
        )
        assert is_negative_definite(Lattice(gram=matrix, rank=len(matrix))) is (euler < 0)


class TestEmbedsInDiagonal:
    def test_rank_one(self):
        # [TRIVIAL] (-1) is a coordinate vector
        emb = embeds_in_diagonal(Lattice(gram=((-1,),), rank=1))
        assert emb.vectors == ((1,),)
        emb = embeds_in_diagonal(Lattice(gram=((-2,),), rank=1))
        assert emb.vectors == ((1, 1),)

    def test_two_chain(self):
        # [DERIVED] canonical search order yields (1,1,0), (0,-1,1)
        lat = Lattice(gram=((-2, 1), (1, -2)), rank=2)
        emb = embeds_in_diagonal(lat)
        assert emb.vectors == ((1, 1, 0), (0, -1, 1))
        assert_sound(emb, lat)

    def test_zero_after_negative_in_a_class(self):
        # [DERIVED] columns 0 and 1 share the history (1), and (-1, 0)
        # would increase inside that class, so the second row is (0, -1)
        lat = Lattice(gram=((-2, 1), (1, -1)), rank=2)
        assert embeds_in_diagonal(lat).vectors == ((1, 1), (0, -1))

    def test_branched_rank_four(self):
        # [DERIVED] the branched tree of four (-2)-vectors embeds in Z^4:
        # e1-e2 with e2-e3, e2+e3, and (-1,0,0,1) for the three legs
        gram = (
            (-2, 1, 1, 1),
            (1, -2, 0, 0),
            (1, 0, -2, 0),
            (1, 0, 0, -2),
        )
        lat = Lattice(gram=gram, rank=4)
        emb = embeds_in_diagonal(lat)
        assert emb is not None
        assert_sound(emb, lat)

    def test_obstruction_lattices_do_not_embed(self):
        assert embeds_in_diagonal(lambda_q(3)) is None
        assert embeds_in_diagonal(lambda_q(4)) is None

    def test_requires_negative_definite(self):
        message = "embedding search needs a negative definite form"
        with pytest.raises(ConditionViolation, match=message):
            embeds_in_diagonal(Lattice(gram=((1,),), rank=1))
        with pytest.raises(ConditionViolation, match=message):
            embeds_in_diagonal(lambda_q(2))

    def test_deterministic(self):
        lat = Lattice(gram=((-2, 1), (1, -2)), rank=2)
        assert embeds_in_diagonal(lat) == embeds_in_diagonal(lat)

    @settings(max_examples=20, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(-1, 1), min_size=4, max_size=4),
            min_size=3,
            max_size=3,
        )
    )
    def test_planted_embeddings_are_found(self, rows):
        # a Gram matrix realized by actual integer vectors must be found
        # embeddable, and the returned embedding must reproduce it
        gram = tuple(
            tuple(-sum(a * b for a, b in zip(u, v)) for v in rows) for u in rows
        )
        lat = Lattice(gram=gram, rank=3)
        assume(is_negative_definite(lat))
        emb = embeds_in_diagonal(lat)
        assert emb is not None
        assert_sound(emb, lat)


class TestSearchMatchesRecursiveReference:
    """The iterative search returns exactly what the recursive one did:
    the same vectors, or None on both sides."""

    def check(self, lattice):
        found = embeds_in_diagonal(lattice)
        assert found == _recursive_search(lattice)
        return found

    @settings(max_examples=150, deadline=None)
    @given(planted_lattices())
    def test_planted(self, lattice):
        assume(is_negative_definite(lattice))
        found = self.check(lattice)
        assert found is not None
        assert_sound(found, lattice)

    @settings(max_examples=150, deadline=None)
    @given(weighted_stars())
    def test_weighted_stars(self, lattice):
        assume(is_negative_definite(lattice))
        self.check(lattice)

    @settings(max_examples=150, deadline=None)
    @given(dense_grams())
    def test_dense(self, lattice):
        assume(is_negative_definite(lattice))
        self.check(lattice)

    def test_rank_zero(self):
        assert self.check(Lattice(gram=(), rank=0)) == DiagonalEmbedding(vectors=())

    def test_e6_does_not_embed(self):
        assert self.check(Lattice(gram=E6, rank=6)) is None

    @pytest.mark.parametrize("q", range(3, 11))
    def test_lambda_q(self, q):
        assert self.check(lambda_q(q)) is None


# q: the nodes of the whole search of lambda_q, by the frozen search and
# by the search
LAMBDA_Q_NODES = {
    3: (241, 84),
    4: (429, 134),
    5: (677, 194),
    6: (969, 260),
    7: (1309, 334),
    8: (1697, 416),
    9: (2145, 510),
    10: (2651, 610),
}

# gram: the nodes to the first embedding, by the frozen search and by the
# search
FIXED_LATTICE_NODES = {
    (): (0, 0),
    ((-1,),): (2, 1),
    ((-2,),): (6, 2),
    ((-2, 1), (1, -2)): (23, 6),
    ((-2, 1), (1, -1)): (13, 5),
    ((-2, 1, 1, 1), (1, -2, 0, 0), (1, 0, -2, 0), (1, 0, 0, -2)): (68, 14),
    E6: (218, 78),
    # dense -V V^T forms, whose first embeddings put up to five nonzero
    # entries in one column: the first three with V entries in
    # {0, 1, -1} as the bench draws them, the last with +-2 among them
    ((-3, -1, -2, -1), (-1, -4, 0, -1), (-2, 0, -2, -1), (-1, -1, -1, -1)): (182, 66),
    (
        (-4, 2, 0, 0, -1),
        (2, -5, 1, -1, -1),
        (0, 1, -3, -2, -2),
        (0, -1, -2, -3, -2),
        (-1, -1, -2, -2, -3),
    ): (1640, 959),
    (
        (-5, 2, 1, 1, -1, 0),
        (2, -6, -2, 3, 1, -3),
        (1, -2, -5, -1, -1, -2),
        (1, 3, -1, -5, -1, 0),
        (-1, 1, -1, -1, -5, 0),
        (0, -3, -2, 0, 0, -4),
    ): (1552, 794),
    (
        (-5, 4, -2, 5, -4),
        (4, -4, 0, -4, 4),
        (-2, 0, -8, 2, -2),
        (5, -4, 2, -10, 0),
        (-4, 4, -2, 0, -9),
    ): (1934, 725),
}


def frozen_search(lattice):
    """_search by the frozen search: the first embedding, or None, and
    the nodes spent."""
    try:
        return next(_frozen_embeddings(lattice))
    except StopIteration as done:
        return None, done.value


class TestSearchNodeCounts:
    """The search visits as many nodes (steps of its loop) as pinned
    here, and the frozen search as many as it always has.  A cut that
    prunes less returns the same answers, so only these counts tell it
    apart."""

    @pytest.mark.parametrize(
        "q, frozen_nodes", [(q, frozen) for q, (frozen, _) in LAMBDA_Q_NODES.items()]
    )
    def test_lambda_q(self, q, frozen_nodes):
        assert frozen_search(lambda_q(q)) == (None, frozen_nodes)
        assert _search(lambda_q(q)) == (None, LAMBDA_Q_NODES[q][1])

    @pytest.mark.parametrize(
        "gram, frozen_nodes",
        [(gram, frozen) for gram, (frozen, _) in FIXED_LATTICE_NODES.items()],
    )
    def test_fixed_lattices(self, gram, frozen_nodes):
        lattice = Lattice(gram=gram, rank=len(gram))
        found = embeds_in_diagonal(lattice)
        assert frozen_search(lattice) == (found, frozen_nodes)
        assert _search(lattice) == (found, FIXED_LATTICE_NODES[gram][1])


# a planted rank-6 form, -V V^T, with V entries in {0, +-1, 2}: it
# embeds in Z^6 by construction, but the search needs millions of nodes
# (m = 48 columns) to reach an embedding
DENSE_RANK_SIX = (
    (2, -1, -1, 0, 1, 0),
    (1, 0, -1, 1, 1, -1),
    (2, 0, 2, 1, 0, 1),
    (0, 0, 0, 2, 2, 1),
    (0, 2, -1, 0, -1, 2),
    (0, 1, 0, 1, 1, 2),
)


class TestShallowStack:
    """The search keeps its own stack, so it needs only a few dozen Python
    frames above the caller at any rank."""

    @pytest.mark.parametrize("q, nodes", [(11, 716), (12, 830), (13, 956), (14, 1086)])
    def test_lambda_q(self, q, nodes):
        lattice = lambda_q(q)
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 60)
        try:
            found = _search(lattice)
        finally:
            sys.setrecursionlimit(limit)
        assert found == (None, nodes)


class TestNodeBudget:
    """The search gives up with SearchExhausted past a fixed node budget."""

    def test_dense_rank_six_gives_up(self):
        gram = tuple(
            tuple(-sum(a * b for a, b in zip(u, v)) for v in DENSE_RANK_SIX)
            for u in DENSE_RANK_SIX
        )
        lattice = Lattice(gram=gram, rank=6)
        assert is_negative_definite(lattice)
        assert_sound(DiagonalEmbedding(vectors=DENSE_RANK_SIX), lattice)
        with pytest.raises(SearchExhausted, match="^embedding search gave up after 1000000 nodes$"):
            embeds_in_diagonal(lattice)

    def test_budget_is_far_above_lambda_40(self):
        assert _search(lambda_q(40)) == (None, 7320)
        assert lattice_module._NODE_BUDGET >= 100 * 7320

    def test_the_last_node_within_the_budget_answers(self, monkeypatch):
        # [DERIVED] the whole search of lambda_3 takes 84 nodes: 4, 8, 14,
        # 24, 18 and 16 with v_1, v_2, v_3, v_4, v_5 and w the vector being
        # placed; v_1 = (1, 1) takes 4, one value and one give-up at each
        # of its two columns
        monkeypatch.setattr(lattice_module, "_NODE_BUDGET", 84)
        assert _search(lambda_q(3)) == (None, 84)
        monkeypatch.setattr(lattice_module, "_NODE_BUDGET", 83)
        with pytest.raises(SearchExhausted, match="after 83 nodes"):
            _search(lambda_q(3))

    def test_memory_follows_the_nodes_not_the_diagonal(self, monkeypatch):
        # w = -e_1 + e_2 + ... + e_(10^6) embeds ((-1, 1), (1, -10^6)), but
        # the search would reach it only at node 10^6 + 1: the search state
        # stays to the columns it reaches, not the 10^6 + 1 the diagonal
        # allows
        monkeypatch.setattr(lattice_module, "_NODE_BUDGET", 10**4)
        lattice = Lattice(gram=((-1, 1), (1, -(10**6))), rank=2)
        tracemalloc.start()
        try:
            with pytest.raises(SearchExhausted, match="after 10000 nodes"):
                embeds_in_diagonal(lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 10**6

    def test_a_fresh_run_past_the_budget_gives_up_at_once(self):
        # w = -e_1 + e_2 + ... + e_(10^7) is the first embedding, 10^7 - 1
        # nodes away once w's fresh columns open: the search gives up there,
        # before it holds a frame for any of them
        lattice = Lattice(gram=((-1, 1), (1, -(10**7))), rank=2)
        tracemalloc.start()
        try:
            with pytest.raises(SearchExhausted, match="^embedding search gave up after 1000000 nodes$"):
                embeds_in_diagonal(lattice)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 10**3


def canonical_embeddings(lattice, embeddings=_embeddings):
    """Every canonical embedding the search yields, in order, and the
    node count of the whole search."""
    found, search = [], embeddings(lattice)
    while True:
        try:
            found.append(next(search)[0])
        except StopIteration as done:
            return found, done.value


def chain(k):
    """A_k: the path of k (-2)-vectors with consecutive products 1."""
    return Lattice(
        gram=tuple(
            tuple(-2 if i == j else int(abs(i - j) == 1) for j in range(k)) for i in range(k)
        ),
        rank=k,
    )


class TestChainLemma:
    """The base of the chain lemma behind lambda_q_certificate, checked by
    the search: canonical embeddings are one per class under permuting
    and negating columns."""

    @pytest.mark.parametrize("k", range(1, 12))
    def test_a_k_embeds_one_way_except_a_3(self, k):
        found, _ = canonical_embeddings(chain(k))
        assert len(found) == (2 if k == 3 else 1)
        for embedding in found:
            assert_sound(embedding, chain(k))
        if k >= 4:
            # [DERIVED] the lemma's form v_i = e_i - e_{i+1}, with the
            # column signs the canonical order picks: e_1 + e_2, then
            # -e_i + e_{i+1}
            expected = [[0] * (k + 1) for _ in range(k)]
            for i in range(k):
                expected[i][i], expected[i][i + 1] = (-1 if i else 1), 1
            assert [list(v) for v in found[0].vectors] == expected
        if k == 3:
            # [DERIVED] beside the path form, e1 - e2, e2 - e3 and
            # -e1 - e2 up to column symmetry: the roots of D_3, on three
            # columns rather than four
            assert [len(e.vectors[0]) for e in found] == [3, 4]

    @pytest.mark.parametrize(
        "q, frozen_nodes", [(q, frozen) for q, (frozen, _) in LAMBDA_Q_NODES.items()]
    )
    def test_lambda_q_has_no_embedding(self, q, frozen_nodes):
        assert canonical_embeddings(lambda_q(q), _frozen_embeddings) == ([], frozen_nodes)
        assert canonical_embeddings(lambda_q(q)) == ([], LAMBDA_Q_NODES[q][1])

    def test_search_agrees_with_the_certificate(self):
        # the two routes to "lambda_q embeds nowhere", for every q the
        # old search limit allowed
        for q in range(3, 41):
            assert _search(lambda_q(q))[0] is None
            assert 1 + sum(map(len, lambda_q_certificate(q).legs)) == lambda_q(q).rank == 2 * q


class TestSameEmbeddingsAsTheFrozenSearch:
    """The search yields the frozen search's canonical embeddings, all of
    them and in the same order, in no more nodes: the zero-tail and
    forced-value cuts skip only subtrees that hold no embedding, and the
    state kept to the used columns changes no step."""

    def check(self, lattice):
        found, nodes = canonical_embeddings(lattice)
        frozen, frozen_nodes = canonical_embeddings(lattice, _frozen_embeddings)
        assert found == frozen
        assert nodes <= frozen_nodes
        return found

    @pytest.mark.parametrize("k", range(1, 12))
    def test_a_k(self, k):
        assert self.check(chain(k))

    @pytest.mark.parametrize("k", range(4, 11))
    def test_d_k(self, k):
        assert self.check(Lattice(gram=root_star(1, 1, k - 3), rank=k))

    @pytest.mark.parametrize("n", (6, 7, 8))
    def test_e_n(self, n):
        assert self.check(Lattice(gram=root_star(1, 2, n - 4), rank=n)) == []

    @pytest.mark.parametrize("q", range(3, 9))
    def test_lambda_q(self, q):
        assert self.check(lambda_q(q)) == []

    @settings(max_examples=150, deadline=None)
    @given(planted_lattices(max_rank=5))
    def test_planted(self, lattice):
        assume(is_negative_definite(lattice))
        assert self.check(lattice)


def _mutated_presentation(change):
    """presentation as lattice reads it, with one framing changed."""

    def mutated(inv):
        return change(presentation(inv))

    return mutated


def _w_framed_minus_3(star):
    return IntegralPresentation(star.n, (*star.legs[:2], (-3,)), star.free_rank)


class TestLambdaQCertificate:
    def test_returns_the_star_of_lambda_q(self):
        for q in (3, 4, 40, 1415, 3001):
            star = SeifertInvariants(0, -2, ((q, q - 1), (q, q - 1), (q - 1, 1)))
            assert lambda_q_certificate(q) == presentation(star)

    def test_above_the_chain_bound_builds_nothing(self, monkeypatch):
        def refuse(inv):
            raise AssertionError("a star was built")

        monkeypatch.setattr("contactsurgery.lattice.presentation", refuse)
        message = "q = 3002 is above the chain bound q <= 3001 (g <= 4499999)"
        with pytest.raises(ConditionViolation, match=re.escape(message)):
            lambda_q_certificate(3002)

    def test_no_star_below_q_2(self, monkeypatch):
        def refuse(inv):
            raise AssertionError("a star was built")

        monkeypatch.setattr("contactsurgery.lattice.presentation", refuse)
        for q in (1, 0, -3):
            for build in (lambda_q, lambda_q_certificate):
                with pytest.raises(ConditionViolation, match=f"^need q >= 2, got {q}$"):
                    build(q)

    @pytest.mark.parametrize(
        "change, hypothesis",
        [
            (lambda s: IntegralPresentation(-3, s.legs, s.free_rank), "the centre is framed -2"),
            (
                lambda s: IntegralPresentation(s.n, ((-2, -3), *s.legs[1:]), s.free_rank),
                "the first leg is 2 entries of -2",
            ),
            (
                lambda s: IntegralPresentation(s.n, (s.legs[0], (-3, -2), s.legs[2]), s.free_rank),
                "the second leg is 2 entries of -2",
            ),
            (_w_framed_minus_3, "w is one vertex framed -2"),
        ],
        ids=["centre", "first-leg", "second-leg", "w"],
    )
    def test_each_hypothesis_is_checked(self, monkeypatch, change, hypothesis):
        # lambda_3's star with one framing changed breaks that hypothesis
        # alone
        monkeypatch.setattr("contactsurgery.lattice.presentation", _mutated_presentation(change))
        message = f"lambda_3 certificate: the star breaks the hypothesis that {hypothesis}"
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            lambda_q_certificate(3)

    def test_q_2_breaks_the_chain_length(self):
        # [DERIVED] lambda_2's star meets every other hypothesis, but its
        # chain is A_3 = D_3, where the lemma fails: lambda_2 (a
        # degenerate form) does map into D_3, its chain as the roots
        # e1 - e2, e2 - e3, -e1 - e2 and w as e3
        star = presentation(SeifertInvariants(0, -2, ((2, 1), (2, 1), (1, 1))))
        assert (star.n, star.legs) == (-2, ((-2,), (-2,), (-1,)))
        d3 = DiagonalEmbedding(vectors=((1, -1, 0), (0, 1, -1), (-1, -1, 0), (0, 0, 1)))
        assert_sound(d3, lambda_q(2))
        message = (
            "lambda_2 certificate: the star breaks the hypothesis that "
            "the (-2)-chain has length 2q - 1 >= 5"
        )
        with pytest.raises(AssertionError, match=f"^{re.escape(message)}$"):
            lambda_q_certificate(2)


class TestNonfillabilityObstruction:
    def test_genus_one(self):
        result = nonfillability_obstruction(1)
        assert result["d"] == 1
        assert result["q"] == 3
        assert result["rank"] == 6
        assert result["embeddable"] is False
        assert result["embedding"] is None
        assert result["obstruction_holds"] is True
        assert "by the chain lemma" in result["narrative"]

    def test_genus_three(self):
        result = nonfillability_obstruction(3)
        assert result["d"] == 2
        assert result["q"] == 4
        assert result["obstruction_holds"] is True

    def test_gap_genus(self):
        # 2g = 4 falls between the d = 1 and d = 2 windows
        message = "no d with d(d+1) <= 2g <= d(d+2)-1 for g = 2"
        with pytest.raises(ConditionViolation, match=re.escape(message)):
            nonfillability_obstruction(2)

    def test_rejects_nonpositive_genus(self):
        with pytest.raises(ConditionViolation):
            nonfillability_obstruction(0)

    def test_genus_is_read_as_an_exact_integer(self):
        # True once came back as the document's "g": true
        result = nonfillability_obstruction(True)
        assert type(result["g"]) is int and result == nonfillability_obstruction(1)
        for g in (1.0, Fraction(1)):
            with pytest.raises(TypeError):
                nonfillability_obstruction(g)

    def test_an_embedding_is_a_broken_invariant(self, monkeypatch):
        # q = d + 2 >= 3, where the chain lemma rules out an embedding of
        # lambda_q; a star that breaks its hypotheses (here w framed -3,
        # not 1 - q = -2) is a bug, not a verdict
        monkeypatch.setattr(
            "contactsurgery.lattice.presentation", _mutated_presentation(_w_framed_minus_3)
        )
        with pytest.raises(AssertionError, match="^lambda_3 certificate: the star breaks"):
            nonfillability_obstruction(1)

    def test_calls_no_search(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("the obstruction searched")

        monkeypatch.setattr("contactsurgery.lattice.embeds_in_diagonal", refuse)
        monkeypatch.setattr("contactsurgery.lattice._search", refuse)
        monkeypatch.setattr("contactsurgery.lattice.lambda_q", refuse)
        assert nonfillability_obstruction(999000)["q"] == 1415
