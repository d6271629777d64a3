"""First homology presentations, tracked fiber classes, and Spin^c offsets."""

import gc
import importlib
import itertools
import json
import math
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

from contactsurgery.contfrac import _CHAIN_LIMIT
from contactsurgery.errors import ConditionViolation, SearchExhausted
from contactsurgery.homology import (
    FirstHomology,
    IntegralPresentation,
    SpinCClass,
    Witness,
    _validate_witness,
    admissible_blocks,
    check_admissible,
    distinct_witness,
    homology,
    mu_order,
    presentation,
    spinc_offset,
)
from contactsurgery.seifert import SeifertInvariants

from reference import _smith_form, admissible_points, determinant

# the package root rebinds `homology` to the function of that name
homology_module = importlib.import_module("contactsurgery.homology")


@st.composite
def normal_form_invariants(draw):
    g = draw(st.integers(0, 2))
    n = draw(st.integers(2 * g, 2 * g + 4))
    k = draw(st.integers(0, 3))
    pairs = []
    for _ in range(k):
        alpha = draw(st.integers(2, 12))
        beta = draw(
            st.integers(1, alpha - 1).filter(lambda b, a=alpha: math.gcd(a, b) == 1)
        )
        pairs.append((alpha, beta))
    return SeifertInvariants(g, n, tuple(pairs))


class TestPresentation:
    def test_single_fiber(self):
        # [DERIVED] -3/1 expands to the one-entry chain [-3]
        p = presentation(SeifertInvariants(1, 2, ((3, 1),)))
        assert p.matrix == ((2, 1), (1, -3))
        assert p.mu_index == 1
        assert p.free_rank == 2

    def test_no_fibers(self):
        p = presentation(SeifertInvariants(1, 2))
        assert p.matrix == ((2,),)
        assert p.mu_index == 0

    def test_two_step_chain(self):
        # [DERIVED] -5/2 = -3 + 1/2 expands to [-3, -2]
        p = presentation(SeifertInvariants(1, 2, ((5, 2),)))
        assert p.matrix == ((2, 1, 0), (1, -3, 1), (0, 1, -2))
        assert p.mu_index == 2

    def test_two_legs(self):
        # both chains hang off the central vertex, not off each other
        p = presentation(SeifertInvariants(0, 1, ((2, 1), (3, 1))))
        assert p.matrix == ((1, 1, 1), (1, -2, 0), (1, 0, -3))
        assert p.mu_index == 1
        assert p.free_rank == 0

    def test_unit_pair(self):
        # [DERIVED] the (1, 1) fiber is a single (-1)-framed vertex
        p = presentation(SeifertInvariants(1, 2, ((1, 1),)))
        assert p.matrix == ((2, 1), (1, -1))
        assert p.mu_index == 1

    def test_rejects_unpresentable_pairs(self):
        with pytest.raises(ConditionViolation):
            presentation(SeifertInvariants(1, 2, ((2, 3),)))
        with pytest.raises(ConditionViolation):
            presentation(SeifertInvariants(1, 2, ((4, 0),)))


class TestHomology:
    def test_rank_one_cokernel(self):
        # [DERIVED] coker [[2]] = Z/2, plus the Z^2 surface summand
        h = homology(presentation(SeifertInvariants(1, 2)))
        assert h.free_rank == 2
        assert h.torsion == (2,)

    def test_single_fiber_torsion(self):
        # [DERIVED] |det [[2,1],[1,-3]]| = 7
        h = homology(presentation(SeifertInvariants(1, 2, ((3, 1),))))
        assert h.torsion == (7,)
        assert h.free_rank == 2

    def test_cyclic_despite_longer_chain(self):
        # [DERIVED] det = 12 and a 2x2 minor equals 1, so one cyclic factor
        h = homology(presentation(SeifertInvariants(1, 2, ((5, 2),))))
        assert h.torsion == (12,)

    def test_raw_matrix(self):
        # [TRIVIAL] |det| = 13, prime, so coker = Z/13
        h = _whole_matrix_homology(((4, 1), (1, -3)))
        assert h.torsion == (13,)
        assert h.free_rank == 0

    def test_singular_matrix_adds_free_rank(self):
        h = homology(presentation(SeifertInvariants(0, 0)))
        assert h.torsion == ()
        assert h.free_rank == 1

    def test_class_map_coordinates_reduced(self):
        p = presentation(SeifertInvariants(1, 2, ((5, 2),)))
        h = homology(p)
        for coords in h.class_map:
            for c, d in zip(coords, h.torsion):
                assert 0 <= c < d

    @settings(max_examples=60)
    @given(normal_form_invariants())
    def test_torsion_product_matches_determinant(self, inv):
        # [DERIVED] unimodular transforms preserve |det|, so the torsion
        # subgroup order equals |det| whenever the matrix is nonsingular
        p = presentation(inv)
        h = homology(p)
        det = determinant([list(row) for row in p.matrix])
        if det != 0:
            assert h.free_rank == 2 * inv.g
            assert math.prod(h.torsion) == abs(det)
        else:
            assert h.free_rank > 2 * inv.g
        for x, y in zip(h.torsion, h.torsion[1:]):
            assert y % x == 0


class _WholeMatrixHomology(FirstHomology):
    """A FirstHomology whose vertex r is the block generator e_r itself."""

    def __init__(self, h: FirstHomology, size: int) -> None:
        super().__init__(h.free_rank, h.torsion, h.torsion_rows, h.free_rows, h.legs)
        object.__setattr__(self, "size", size)

    def _vertices(self):
        return ((r, 1) for r in range(self.size))

    def _vertex(self, j):
        if not -self.size <= j < self.size:
            raise ConditionViolation(f"no meridian generator {j} among {self.size} vertices")
        return j % self.size, 1


def _whole_matrix_homology(rows, free_rank=0):
    """H1 of a raw linking matrix: one exact Smith form (`reference`) of the whole matrix.

    Raw matrices (cycles, weight-2 edges, non-symmetric entries) are no
    star, so they skip the leg collapse and go straight to the cokernel,
    each generator tracked as itself.
    """
    size = len(rows)
    if any(len(row) != size for row in rows):
        raise ValueError("linking matrix must be square")
    diagonal, left = _smith_form(rows)
    h = FirstHomology(
        free_rank + diagonal.count(0),
        tuple(d for d in diagonal if d > 1),
        tuple(row for row, d in zip(left, diagonal) if d > 1),
        tuple(row for row, d in zip(left, diagonal) if d == 0),
        (),
    )
    return _WholeMatrixHomology(h, size)


def _raw(rows, free_rank=0):
    return tuple(map(tuple, rows)), free_rank


@st.composite
def raw_presentations(draw):
    """Small symmetric matrices: weighted graphs with trees, cycles, +-1 and 2 edges."""
    size = draw(st.integers(1, 7))
    m = [[0] * size for _ in range(size)]
    for i in range(size):
        m[i][i] = draw(st.integers(-4, 4))
        for j in range(i):
            m[i][j] = m[j][i] = draw(st.sampled_from((0, 0, 0, 1, -1, 2)))
    return _raw(m, draw(st.integers(0, 2)))


# raw (matrix, free_rank) pairs take the whole-matrix route; Seifert
# invariants take homology(presentation(inv)), the leg collapse
RAW_CASES = {
    "non_symmetric": _raw(((-2, 1, 0), (2, -3, 1), (0, 1, -2))),
    "four_cycle": _raw(((-2, 1, 0, 1), (1, -2, 1, 0), (0, 1, -2, 1), (1, 0, 1, -3))),
    # a triangle with a two-vertex tail
    "cycle_with_tail": _raw(
        ((-2, 1, 1, 1, 0), (1, -3, 1, 0, 0), (1, 1, -2, 0, 0), (1, 0, 0, -2, 1), (0, 0, 0, 1, -3))
    ),
    # vertex 0 hangs by a weight-2 edge
    "leaf_edge_weight_two": _raw(((3, 2, 0), (2, -2, 1), (0, 1, -3))),
    "minus_one_edges": _raw(((-2, -1, 0), (-1, 3, 1), (0, 1, -2))),
    "isolated_vertex": _raw(((0, 0, 0), (0, -2, 1), (0, 1, -3))),
    # a (1, 1) fiber: a one-vertex leg framed -1 beside a two-vertex leg
    "unit_pair": SeifertInvariants(1, 2, ((1, 1), (3, 2))),
    # one leg: a path whose both ends are leaves
    "single_leg": SeifertInvariants(0, 3, ((7, 3),)),
    "singular_one_vertex": SeifertInvariants(0, 0),
    # e = 0: singular, on a two-leg path
    "singular_path": SeifertInvariants(0, -1, ((2, 1), (2, 1))),
    # e = 0 on a three-leg star: singular 4x4 core
    "singular_star": SeifertInvariants(0, -2, ((2, 1), (3, 2), (6, 5))),
    # H1 = 0: no torsion row and no free row
    "trivial_group": SeifertInvariants(0, 1),
    # e = 0 with a torsion row beside the free row, (3,)
    "singular_with_torsion": SeifertInvariants(0, -1, ((3, 1), (3, 1), (3, 1))),
    # three torsion rows, (2, 2, 4)
    "three_torsion_rows": SeifertInvariants(0, -1, ((2, 1), (2, 1), (2, 1), (2, 1))),
    # two torsion rows on 46 leg vertices, (2, 80658288870)
    "two_torsion_rows": SeifertInvariants(1, 1, ((719, 628), (422, 331), (172, 121), (742, 597))),
}


def _leg_multiples(leg):
    """a_j with vertex j of the leg = a_j * t, its terminal vertex, c_1 first."""
    a = [0] * (len(leg) + 2)
    a[len(leg)] = 1
    for j in range(len(leg), 1, -1):
        a[j - 1] = -(leg[j - 1] * a[j] + a[j + 1])
    return a[1 : len(leg) + 1]


def _seifert_core(inv):
    """The (k+1) x (k+1) core on x_0, t_1, ..., t_k, from its definition.

    Generator rows, relation columns: the centre's relation
    n x_0 + sum beta_i t_i and each leg's head relation x_0 - alpha_i t_i.
    """
    k = len(inv.pairs)
    core = [[inv.n] + [1] * k]
    for i, (alpha, beta) in enumerate(inv.pairs, 1):
        row = [0] * (k + 1)
        row[0], row[i] = beta, -alpha
        core.append(row)
    return core


def _per_vertex_homology(inv):
    """H1 read vertex by vertex off the exact Smith form of the Seifert core.

    Vertex v = a * e_r (r its core generator, the centre on x_0) has
    torsion coordinate S[i][r] * a mod d_i on each torsion row i and
    S[i][r] * a on each free row, with D = S C T.  Returns (free_rank,
    torsion, class_map, free_map).
    """
    p = presentation(inv)
    diagonal, left = _smith_form(_seifert_core(inv))
    vertices = [(0, 1)] + [(r, a) for r, leg in enumerate(p.legs, 1) for a in _leg_multiples(leg)]
    torsion_rows = [i for i, d in enumerate(diagonal) if d > 1]
    free_rows = [i for i, d in enumerate(diagonal) if d == 0]
    return (
        2 * inv.g + len(free_rows),
        tuple(diagonal[i] for i in torsion_rows),
        tuple(tuple(left[i][r] * a % diagonal[i] for i in torsion_rows) for r, a in vertices),
        tuple(tuple(left[i][r] * a for i in free_rows) for r, a in vertices),
    )


def _assert_star_matches_full_smith_form(inv):
    p = presentation(inv)
    h = homology(p)
    # coordinates depend on the basis each elimination picks; the order of
    # every vertex's class does not
    free_rank, torsion, class_map, free_map = _per_vertex_homology(inv)
    assert (h.free_rank, h.torsion) == (free_rank, torsion)
    for j, (coordinates, free_coordinates) in enumerate(zip(class_map, free_map)):
        expected = _order_from_maps(torsion, coordinates, free_coordinates)
        assert _outcome(lambda: h.order(j)) == expected
    _assert_matches_full_smith_form(p.matrix, p.free_rank, h)


def _assert_raw_matches_full_smith_form(matrix, free_rank):
    _assert_matches_full_smith_form(matrix, free_rank, _whole_matrix_homology(matrix, free_rank))


def _assert_matches_full_smith_form(matrix, free_rank, h):
    """A tracked homology h of matrix against a Smith form of the whole matrix.

    Equal invariants, a class map that kills every relation, and a class
    map onto the group together force the induced map from the cokernel
    to be an isomorphism: a surjection between isomorphic finitely
    generated abelian groups is one.
    """
    diagonal, _ = _smith_form(matrix)
    assert h.torsion == tuple(d for d in diagonal if d > 1)
    assert h.free_rank == free_rank + diagonal.count(0)
    size = len(matrix)
    free = h.free_rank - free_rank
    images = [h.class_map[j] + h.free_map[j] for j in range(size)]
    assert all(len(v) == len(h.torsion) + free for v in images)
    moduli = h.torsion + (0,) * free
    for r in range(size):
        for t, d in enumerate(moduli):
            total = sum(matrix[i][r] * images[i][t] for i in range(size))
            assert (total % d if d else total) == 0
    for coords in h.class_map:
        assert all(0 <= c < d for c, d in zip(coords, h.torsion))
    if moduli:
        rows = [
            [v[t] for v in images] + [d if u == t else 0 for u, d in enumerate(h.torsion)]
            for t in range(len(moduli))
        ]
        assert _smith_form(rows)[0] == (1,) * len(moduli)


class TestCollapsedRoute:
    @settings(max_examples=150)
    @given(normal_form_invariants())
    def test_normal_forms(self, inv):
        _assert_star_matches_full_smith_form(inv)

    @settings(max_examples=150)
    @given(raw_presentations())
    def test_raw_matrices(self, raw):
        _assert_raw_matches_full_smith_form(*raw)

    @pytest.mark.parametrize("name", sorted(RAW_CASES))
    def test_hand_built(self, name):
        case = RAW_CASES[name]
        if isinstance(case, SeifertInvariants):
            _assert_star_matches_full_smith_form(case)
        else:
            _assert_raw_matches_full_smith_form(*case)

    def test_singular_core_has_free_coordinates(self):
        h = homology(presentation(RAW_CASES["singular_star"]))
        assert h.free_rank == 1
        assert any(any(v) for v in h.free_map)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            _whole_matrix_homology(((1, 2),))

    def test_reads_no_dense_matrix(self, monkeypatch):
        def refuse(self):
            raise AssertionError("homology read the dense matrix")

        monkeypatch.setattr(IntegralPresentation, "matrix", property(refuse))
        for inv in (
            SeifertInvariants(1, 2),
            SeifertInvariants(1, 2, ((1, 1), (3, 2))),
            SeifertInvariants(0, -2, ((2, 1), (3, 2), (6, 5))),
            SeifertInvariants(2, 5, ((7, 3), (5, 2), (401, 400))),
        ):
            p = presentation(inv)
            h = homology(p)
            assert len(h.class_map) == 1 + sum(map(len, p.legs))


def _order_from_maps(torsion, coordinates, free_coordinates):
    """order(j) as it was, read off class_map[j] and free_map[j]."""
    if any(free_coordinates):
        return "meridian class has infinite order"
    order = 1
    for c, d in zip(coordinates, torsion):
        order = math.lcm(order, d // math.gcd(c, d))
    return order


def _assert_order_matches_maps(h):
    class_map, free_map = h.class_map, h.free_map
    size = len(class_map)
    assert len(free_map) == size
    for j in range(size):
        expected = _order_from_maps(h.torsion, class_map[j], free_map[j])
        assert _outcome(lambda: h.order(j)) == expected
        assert _outcome(lambda: h.order(j - size)) == expected
    for j in (size, -size - 1):
        message = f"^no meridian generator {j} among {size} vertices$"
        with pytest.raises(ConditionViolation, match=message):
            h.order(j)


# three legs of 2,998, 2,997 and 2,996 vertices, 8,992 in all
LONG_STAR = SeifertInvariants(1, 2, ((2999, 2998), (2998, 2997), (2997, 2996)))
STARS = {name: case for name, case in RAW_CASES.items() if isinstance(case, SeifertInvariants)}


class TestCoordinatesOnDemand:
    """homology keeps the rows of S and the legs, and builds no vertex's
    coordinates; order(j) computes vertex j alone."""

    @pytest.fixture
    def no_maps(self, monkeypatch):
        def refuse(self):
            raise AssertionError("homology built every vertex's coordinates")

        monkeypatch.setattr(FirstHomology, "class_map", property(refuse))
        monkeypatch.setattr(FirstHomology, "free_map", property(refuse))

    def test_long_star_without_maps(self, no_maps):
        p = presentation(LONG_STAR)
        h = homology(p)
        assert (h.free_rank, h.torsion) == (2, (134703200959,))
        assert h.order(p.mu_index) == mu_order(LONG_STAR) == 134703200959

    @pytest.mark.parametrize("name", sorted(STARS))
    def test_stars_without_maps(self, no_maps, name):
        inv = STARS[name]
        p = presentation(inv)
        h = homology(p)
        assert (h.free_rank, h.torsion) == _per_vertex_homology(inv)[:2]
        assert _outcome(lambda: h.order(p.mu_index)) == _outcome(lambda: mu_order(inv))

    @pytest.mark.parametrize("name", sorted(RAW_CASES))
    def test_order_matches_maps_on_hand_built(self, name):
        case = RAW_CASES[name]
        if isinstance(case, SeifertInvariants):
            _assert_order_matches_maps(homology(presentation(case)))
        else:
            _assert_order_matches_maps(_whole_matrix_homology(*case))

    @settings(max_examples=60)
    @given(normal_form_invariants())
    def test_order_matches_maps_on_normal_forms(self, inv):
        _assert_order_matches_maps(homology(presentation(inv)))

    @settings(max_examples=60)
    @given(raw_presentations())
    def test_order_matches_maps_on_raw_matrices(self, raw):
        _assert_order_matches_maps(_whole_matrix_homology(*raw))

    def test_singular_star_raises(self):
        p = presentation(RAW_CASES["singular_star"])
        h = homology(p)
        with pytest.raises(ConditionViolation, match="^meridian class has infinite order$"):
            h.order(p.mu_index)
        free = [j for j, v in enumerate(h.free_map) if any(v)]
        assert p.mu_index in free
        for j in free:
            with pytest.raises(ConditionViolation):
                h.order(j)

    def test_order_needs_an_integer_index(self):
        h = homology(presentation(SeifertInvariants(1, 2, ((3, 1),))))
        with pytest.raises(TypeError):
            h.order(1.0)


class TestLargePresentations:
    """Sizes the dense Smith form needed seconds to a minute for."""

    def test_three_long_legs(self):
        inv = SeifertInvariants(1, 2, ((997, 1), (89, 88), (1003, 1002)))
        p = presentation(inv)
        assert len(p.matrix) == 1092
        h = homology(p)
        assert h.free_rank == 2
        assert math.prod(h.torsion) == abs(inv.e_invariant * 997 * 89 * 1003)

    def test_single_long_leg(self):
        inv = SeifertInvariants(1, 2, ((401, 400),))
        p = presentation(inv)
        assert len(p.matrix) == 401
        h = homology(p)
        assert math.prod(h.torsion) == abs(inv.e_invariant * 401)
        # [DERIVED] single fiber: the meridian has order n*alpha + beta
        assert mu_order(inv) == 2 * 401 + 400


class TestMuOrder:
    def test_anchor(self):
        # [DERIVED] smallest k with k*e_1 in the image of [[2,1],[1,-3]]:
        # 2a + b = 0 forces b = -2a, then a - 3b = 7a, so k = 7
        assert mu_order(SeifertInvariants(1, 2, ((3, 1),))) == 7

    def test_unit_pair(self):
        assert mu_order(SeifertInvariants(2, 4, ((1, 1),))) == 5

    def test_central_framing_above_2g(self):
        assert mu_order(SeifertInvariants(1, 3, ((2, 1),))) == 7
        assert mu_order(SeifertInvariants(1, 4, ((3, 1),))) == 13

    def test_closed_form_grid(self):
        for g in (1, 2):
            for alpha in (1, 7, 50):
                inv = SeifertInvariants(g, 2 * g, ((alpha, 1),))
                assert mu_order(inv) == 2 * g * alpha + 1

    def test_infinite_order_rejected(self):
        with pytest.raises(ConditionViolation):
            mu_order(SeifertInvariants(0, 0))

    def test_read_from_one_homology(self):
        inv = SeifertInvariants(2, 5, ((7, 3), (5, 2)))
        p = presentation(inv)
        h = homology(p)
        assert h.order(p.mu_index) == mu_order(inv)
        assert all(h.order(j) >= 1 for j in range(len(p.matrix)))


@st.composite
def wide_normal_forms(draw):
    """g 0..3, n in [-8, 8] and 0..4 normal-form fibers with alpha up to 10^3."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(-8, 8))
    pairs = []
    for _ in range(draw(st.integers(0, 4))):
        alpha = draw(st.integers(2, 1000))
        beta = draw(st.integers(1, alpha - 1).filter(lambda b, a=alpha: math.gcd(a, b) == 1))
        pairs.append((alpha, beta))
    return SeifertInvariants(g, n, tuple(pairs))


def _euler_numerator(inv):
    """E = e * prod alpha_j = n prod alpha_j + sum_j beta_j prod_{i != j} alpha_i."""
    alphas = [alpha for alpha, _ in inv.pairs]
    return inv.n * math.prod(alphas) + sum(
        beta * math.prod(alphas[:j] + alphas[j + 1 :]) for j, (_, beta) in enumerate(inv.pairs)
    )


class TestTorsionOrder:
    @given(wide_normal_forms())
    @example(SeifertInvariants(1, 2, ((2999, 2998), (2998, 2997), (2997, 2996))))
    def test_matches_euler_numerator(self, inv):
        # [DERIVED] |H1 torsion| = |E| when E != 0 (Neumann-Raymond 1978)
        e_numerator = _euler_numerator(inv)
        h = homology(presentation(inv))
        if e_numerator != 0:
            assert math.prod(h.torsion) == abs(e_numerator)
            assert h.free_rank == 2 * inv.g
        else:
            assert h.free_rank == 2 * inv.g + 1


def _outcome(route):
    try:
        return route()
    except ConditionViolation as error:
        return str(error)


class TestMuOrderSeifertRoute:
    """mu_order in closed form against the order read off the plumbing's H1."""

    @settings(max_examples=150, deadline=None)
    @given(wide_normal_forms())
    # e = 0: singular, on a path, on a three-leg star and with a long leg
    @example(SeifertInvariants(0, -1, ((2, 1), (2, 1))))
    @example(SeifertInvariants(1, -2, ((2, 1), (3, 2), (6, 5))))
    @example(SeifertInvariants(3, -1, ((997, 996), (997, 1))))
    @example(SeifertInvariants(2, 0))
    # four-fiber cores on which interleaved partial Euclid steps blew up
    @example(SeifertInvariants(1, 1, ((719, 628), (422, 331), (172, 121), (742, 597))))
    @example(SeifertInvariants(2, -8, ((875, 332), (113, 104), (527, 252), (440, 67))))
    # three legs of 2,998, 2,997 and 2,996 vertices, 8,992 in all
    @example(SeifertInvariants(1, 2, ((2999, 2998), (2998, 2997), (2997, 2996))))
    def test_matches_plumbing_homology(self, inv):
        def plumbing():
            p = presentation(inv)
            return homology(p).order(p.mu_index)

        expected = _outcome(plumbing)
        assert _outcome(lambda: mu_order(inv)) == expected
        if inv.e_invariant == 0:
            assert expected == "meridian class has infinite order"
        else:
            assert isinstance(expected, int)

    @given(
        st.integers(1, 1000).flatmap(
            lambda a: st.tuples(st.just(a), st.sampled_from((0, a + 1, 2 * a + 1)))
        ),
        st.integers(0, 2),
    )
    def test_unpresentable_pair_message(self, bad, position):
        pairs = [(3, 1), (5, 2)]
        pairs.insert(position, bad)
        inv = SeifertInvariants(1, 2, tuple(pairs))
        with pytest.raises(ConditionViolation) as expected:
            presentation(inv)
        assert "not presentable" in str(expected.value)
        with pytest.raises(ConditionViolation) as raised:
            mu_order(inv)
        assert str(raised.value) == str(expected.value)

    def test_builds_no_chain_and_no_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("mu_order built a chain, a matrix or a Smith form")

        for name in (
            "presentation",
            "_neg_cf_entries",
            "homology",
            "_fiber_block",
            "_singular_block",
            "_smith_form_mod",
        ):
            monkeypatch.setattr(homology_module, name, refuse)
        # [DERIVED] the leg of -3000001/3000000 has 3,000,000 entries; the
        # single-fiber closed form is |n*alpha + beta| = 6000002 + 3000000
        inv = SeifertInvariants(1, 2, ((3000001, 3000000),))
        assert 3000000 > _CHAIN_LIMIT
        assert mu_order(inv) == 9000002
        assert mu_order(SeifertInvariants(2, 4, ((1, 1),))) == 5
        assert mu_order(SeifertInvariants(1, 2)) == 2
        with pytest.raises(ConditionViolation, match="infinite order"):
            mu_order(SeifertInvariants(0, 0))


# the 16 three-digit and 24 two-digit fibers of the ROADMAP Baseline, on
# which the Smith form of the Seifert core took 13-16 s and over 20 s
SIXTEEN_FIBERS = (
    (470, 241), (592, 427), (332, 229), (105, 53), (974, 729), (365, 122), (750, 11), (403, 172),
    (782, 617), (417, 113), (717, 260), (120, 59), (713, 642), (820, 371), (364, 45), (456, 217),
)  # fmt: skip
TWENTY_FOUR_FIBERS = (
    (59, 54), (84, 25), (31, 22), (97, 12), (29, 26), (46, 1), (66, 47), (94, 5),
    (37, 21), (53, 48), (18, 5), (72, 37), (44, 13), (21, 19), (73, 20), (93, 19),
    (51, 31), (35, 9), (70, 29), (78, 11), (90, 41), (92, 51), (36, 5), (70, 47),
)  # fmt: skip


@st.composite
def many_fiber_normal_forms(draw, most=64, alphas=(2, 10**4)):
    """g 0..3, n in [-8, 8] and 8..most normal-form fibers with alpha in alphas."""
    g = draw(st.integers(0, 3))
    n = draw(st.integers(-8, 8))
    pairs = []
    for _ in range(draw(st.integers(8, most))):
        alpha = draw(st.integers(*alphas))
        # the nearest coprime beta at or below the draw: a filter rejects
        # too many of 64 draws
        beta = draw(st.integers(1, alpha - 1))
        while math.gcd(alpha, beta) != 1:
            beta -= 1
        pairs.append((alpha, beta))
    return SeifertInvariants(g, n, tuple(pairs))


def _fraction_solve(matrix, rhs):
    """x with matrix x = rhs by Gaussian elimination over Fraction; None if singular."""
    size = len(matrix)
    rows = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(matrix, rhs)]
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(col + 1, size):
            if rows[r][col]:
                factor = rows[r][col] / rows[col][col]
                rows[r] = [v - factor * w if w else v for v, w in zip(rows[r], rows[col])]
    x = [Fraction(0)] * size
    for r in reversed(range(size)):
        terms = (rows[r][c] * x[c] for c in range(r + 1, size) if rows[r][c])
        x[r] = (rows[r][size] - sum(terms)) / rows[r][r]
    return x


def _mu_order_by_elimination(inv):
    """Order of t_1 in the cokernel of the Seifert core, by a Fraction solve.

    The core's unknowns are ordered t_k, ..., t_1, x_0 and its equations
    to match, so elimination runs down the arrowhead with no fill-in.
    Equation j is the t_j row beta_j y_0 - alpha_j y_j = [j = 1], the
    last the centre's n y_0 + sum y_j = 0.
    """
    k = len(inv.pairs)
    matrix, rhs = [], []
    for j in range(k, 0, -1):
        alpha, beta = inv.pairs[j - 1]
        row = [0] * (k + 1)
        row[k - j], row[k] = -alpha, beta
        matrix.append(row)
        rhs.append(int(j == 1))
    matrix.append([1] * k + [inv.n])
    rhs.append(0)
    y = _fraction_solve(matrix, rhs)
    if y is None:
        return "meridian class has infinite order"
    return math.lcm(*(v.denominator for v in y))


class TestMuOrderManyFibers:
    """The closed form against a Fraction solve of C y = e_{t_1}, no Smith form."""

    @given(many_fiber_normal_forms())
    @example(SeifertInvariants(0, 1, SIXTEEN_FIBERS))
    @example(SeifertInvariants(0, 1, TWENTY_FOUR_FIBERS))
    # e = 0 with eight fibers
    @example(SeifertInvariants(0, -4, ((2, 1),) * 8))
    def test_matches_fraction_solve(self, inv):
        assert _outcome(lambda: mu_order(inv)) == _mu_order_by_elimination(inv)

    @pytest.mark.parametrize(
        "pairs, expected",
        [
            (SIXTEEN_FIBERS, 77508411988109660819023240190),
            (TWENTY_FOUR_FIBERS, 58109112580332781624277),
        ],
        ids=["16-fibers", "24-fibers"],
    )
    def test_baseline_values(self, pairs, expected):
        assert mu_order(SeifertInvariants(0, 1, pairs)) == expected


def _assert_many_fiber_homology(inv):
    assert max(alpha for alpha, _ in inv.pairs) - 1 <= _CHAIN_LIMIT
    p = presentation(inv)
    h = homology(p)
    e = _euler_numerator(inv)
    assert h.free_rank == 2 * inv.g + (e == 0)
    if e:
        assert math.prod(h.torsion) == abs(e)
    assert all(b % a == 0 for a, b in zip(h.torsion, h.torsion[1:]))
    assert _outcome(lambda: h.order(p.mu_index)) == _outcome(lambda: mu_order(inv))


class TestHomologyManyFibers:
    """H1 of 8-64 three-digit fibers: the elimination modulo |E| on the
    k x k fiber block, against the Euler numerator and mu_order."""

    # three-digit alpha keeps every leg (at most alpha - 1 vertices)
    # inside the chain bound of `contfrac`
    @given(many_fiber_normal_forms(most=24, alphas=(100, 999)))
    @example(SeifertInvariants(0, 1, SIXTEEN_FIBERS))
    @example(SeifertInvariants(0, 1, TWENTY_FOUR_FIBERS))
    # e = 0 with eight fibers: the singular block's stand-in, modulo its torsion order
    @example(SeifertInvariants(0, -4, ((2, 1),) * 8))
    def test_under_the_default_deadline(self, inv):
        _assert_many_fiber_homology(inv)

    def test_sixty_four_fibers(self):
        # a plain test, so no Hypothesis deadline applies
        rng = random.Random(64)
        pairs = []
        while len(pairs) < 64:
            alpha = rng.randint(100, 999)
            beta = rng.randint(1, alpha - 1)
            if math.gcd(alpha, beta) == 1:
                pairs.append((alpha, beta))
        _assert_many_fiber_homology(SeifertInvariants(1, 2, tuple(pairs)))


def _assert_matches_the_whole_matrix(p):
    """homology(p) against the exact Smith form of p's whole linking
    matrix: free rank, torsion and the order(j) outcome of every vertex."""
    h = homology(p)
    whole = _whole_matrix_homology(p.matrix, p.free_rank)
    assert (h.free_rank, h.torsion) == (whole.free_rank, whole.torsion)
    for j in range(len(p.matrix)):
        assert _outcome(lambda: h.order(j)) == _outcome(lambda: whole.order(j))
    _assert_matches_full_smith_form(p.matrix, p.free_rank, h)


# stars that `presentation` never builds: zero and positive framings, a
# head a_0 = 0 (a leg (0,)), singular and nonsingular blocks; E and the
# group are noted for each
HAND_BUILT_STARS = {
    # E = 2, Z/2
    "zero_head": IntegralPresentation(3, ((0,), (-2,)), 0),
    # E = 6, Z/6
    "zero_head_on_a_later_leg": IntegralPresentation(2, ((-3,), (0,), (-2,)), 0),
    # E = 0, free rank 1 + 2
    "zero_heads_singular": IntegralPresentation(1, ((0,), (0,)), 1),
    # E = -8, (2, 2, 2)
    "zero_head_and_positive_framings": IntegralPresentation(0, ((0,), (2,), (2,), (2,)), 0),
    # E = 21, Z/21
    "positive_framings": IntegralPresentation(5, ((3, 2), (1,), (2, 1, 4)), 2),
    # E = -32, (2, 2, 8)
    "positive_legs_zero_centre": IntegralPresentation(0, ((2,), (2,), (2,), (2,)), 0),
    # E = 0 with torsion (2, 2) beside the free row
    "positive_singular_with_torsion": IntegralPresentation(2, ((2,), (2,), (2,), (2,)), 0),
    # E = 0, free rank 1
    "positive_singular": IntegralPresentation(1, ((2,), (2,)), 0),
    # E = -20, Z/20: a zero framing inside a leg
    "zero_framing_inside_a_leg": IntegralPresentation(-1, ((-2, 0, -3), (0,), (-4,)), 1),
    # E = 36, (2, 18)
    "zero_framing_next_to_the_centre": IntegralPresentation(2, ((2,), (0, 4), (2,), (2,)), 0),
    # E = 0 and E = 6 with no leg
    "no_legs_zero_centre": IntegralPresentation(0, (), 0),
    "no_legs_positive_centre": IntegralPresentation(6, (), 3),
}


class TestHandBuiltStars:
    @pytest.mark.parametrize("name", sorted(HAND_BUILT_STARS))
    def test_against_the_whole_matrix(self, name):
        _assert_matches_the_whole_matrix(HAND_BUILT_STARS[name])

    @pytest.mark.parametrize("name", sorted(HAND_BUILT_STARS))
    def test_singular_exactly_when_the_determinant_vanishes(self, name):
        p = HAND_BUILT_STARS[name]
        h = homology(p)
        det = determinant(p.matrix)
        assert (h.free_rank > p.free_rank) == (det == 0)
        if det:
            assert math.prod(h.torsion) == abs(det)

    def test_a_wrong_modulus_fails_the_product_check(self, monkeypatch):
        # the product check guards the kernel against a wrong E
        block = homology_module._fiber_block

        def doubled(n, ends):
            matrix, euler = block(n, ends)
            return matrix, 2 * euler

        monkeypatch.setattr(homology_module, "_fiber_block", doubled)
        with pytest.raises(AssertionError, match="^invariant factors do not multiply"):
            homology(HAND_BUILT_STARS["positive_framings"])

    @pytest.mark.parametrize("name", ["positive_singular_with_torsion", "zero_heads_singular"])
    def test_a_wrong_singular_modulus_fails_the_product_check(self, monkeypatch, name):
        # the same check guards the modulus that _singular_block reads off the heads
        singular = homology_module._singular_block

        def doubled(block, ends):
            matrix, modulus, free_rows = singular(block, ends)
            return matrix, 2 * modulus, free_rows

        monkeypatch.setattr(homology_module, "_singular_block", doubled)
        with pytest.raises(AssertionError, match="^invariant factors do not multiply"):
            homology(HAND_BUILT_STARS[name])


def _head(leg):
    """a_0 of a leg, by the recurrence of `homology` written out here."""
    after, a = 0, 1
    for framing in reversed(leg):
        after, a = a, -(framing * a + after)
    return a


# every leg of one to three framings in -3..3 whose head a_0 is 0
ZERO_HEAD_LEGS = tuple(
    leg
    for size in (1, 2, 3)
    for leg in itertools.product(range(-3, 4), repeat=size)
    if _head(leg) == 0
)


def _closing_pair(g, pairs):
    """SeifertInvariants(g, n, pairs + the closing pair) with e = 0.

    n = -floor(s) - 1 for s the sum of beta/alpha over pairs, and the
    closing pair is beta/alpha = -(n + s), which lies in (0, 1].
    """
    rest = sum((Fraction(beta, alpha) for alpha, beta in pairs), Fraction(0))
    n = -math.floor(rest) - 1
    closing = -(n + rest)
    return SeifertInvariants(g, n, (*pairs, (closing.denominator, closing.numerator)))


@st.composite
def singular_normal_forms(draw):
    """e = 0: g 0..2, k - 1 <= 9 coprime pairs with alpha <= 12 and the closing pair."""
    pairs = []
    for _ in range(draw(st.integers(0, 9))):
        alpha = draw(st.integers(2, 12))
        beta = draw(st.integers(1, alpha - 1).filter(lambda b, a=alpha: math.gcd(a, b) == 1))
        pairs.append((alpha, beta))
    return _closing_pair(draw(st.integers(0, 2)), tuple(pairs))


@st.composite
def zero_head_stars(draw):
    """Hand-built stars with two or three zero heads (so E = 0) beside up
    to three legs of nonzero head, framings in -3..3: zero framings inside
    a leg and positive framings among them."""
    legs = draw(st.lists(st.sampled_from(ZERO_HEAD_LEGS), min_size=2, max_size=3))
    others = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(tuple).filter(_head)
    legs += draw(st.lists(others, max_size=3))
    legs = draw(st.permutations(legs))
    return IntegralPresentation(draw(st.integers(-3, 3)), tuple(legs), draw(st.integers(0, 2)))


@st.composite
def many_fiber_singular_stars(draw):
    """e = 0 with 8-31 fibers: 7-30 three-digit pairs and the closing pair."""
    inv = draw(many_fiber_normal_forms(most=31, alphas=(100, 999)))
    return _closing_pair(inv.g, inv.pairs[:-1])


# the 16-fiber e = 0 star of the CI step: 722 vertices, on which the exact
# elimination of the singular block took 7 to 14 s
SINGULAR_SIXTEEN = SeifertInvariants(0, -8, (
    (195, 53), (527, 450), (503, 52), (542, 465), (467, 402), (780, 773), (905, 292), (537, 203),
    (524, 175), (590, 63), (743, 719), (856, 173), (503, 467), (545, 106), (785, 116),
    (1188643900004262839476600351064, 569643975868827830828529517787),
))  # fmt: skip


class TestSingularStars:
    """H1 of a singular star (E = 0) by the modular kernel on the stand-in
    of `_singular_block`, against the exact elimination of `reference`."""

    @settings(max_examples=100)
    @given(singular_normal_forms())
    @example(RAW_CASES["singular_star"])
    @example(RAW_CASES["singular_with_torsion"])
    @example(SeifertInvariants(0, -1, ((1, 1),)))
    def test_presentation_built(self, inv):
        assert inv.e_invariant == 0
        assume(1 + sum(map(len, presentation(inv).legs)) <= 150)
        _assert_star_matches_full_smith_form(inv)

    @settings(max_examples=100)
    @given(zero_head_stars())
    @example(HAND_BUILT_STARS["zero_heads_singular"])
    @example(IntegralPresentation(-2, ((0,), (1, 1), (-1, -1), (2, 0, 2)), 1))
    def test_hand_built_with_zero_heads(self, p):
        assert determinant(p.matrix) == 0
        _assert_matches_the_whole_matrix(p)

    @given(many_fiber_singular_stars())
    @example(SINGULAR_SIXTEEN)
    def test_many_fibers_under_the_default_deadline(self, inv):
        try:
            p = presentation(inv)
        except ConditionViolation:  # the closing leg passes the chain bound of `contfrac`
            reject()
        h = homology(p)
        assert h.free_rank == 2 * inv.g + 1
        assert all(b % a == 0 for a, b in zip(h.torsion, h.torsion[1:]))
        assert _outcome(lambda: h.order(p.mu_index)) == "meridian class has infinite order"

    def test_the_sixteen_fiber_star(self):
        h = homology(presentation(SINGULAR_SIXTEEN))
        assert (h.free_rank, h.torsion) == (1, (10, 10, 20, 392340))


# class_map, free_map and order(j) for j in -size..size-1, generated by
# the route that built every vertex multiple inside `homology` (9d8b4a7)
HOMOLOGY_GOLDEN = json.loads(Path(__file__).with_name("homology_golden.json").read_text())
PINNED = {
    # 47 vertices, torsion (2, 80658288870)
    "four_fibers": RAW_CASES["two_torsion_rows"],
    # 102 vertices, a workload-sized leg of -2 to -5 framings beside two short ones
    "three_fibers": SeifertInvariants(
        2, 5, ((110081413156493234797605621011, 92972358013503184704439603671), (5, 2), (7, 5))
    ),
    # a head a_0 = 0 on the first leg: the centre is 0 * e_0
    "zero_head": HAND_BUILT_STARS["zero_head"],
    # E = 0: torsion (2, 2) and a free row
    "positive_singular_with_torsion": HAND_BUILT_STARS["positive_singular_with_torsion"],
}


class TestVertexDataOnRead:
    """The result of `homology` keeps the rows of S and the legs, no
    vertex multiple; a vertex's multiple is walked when it is read."""

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_every_vertex_as_pinned(self, name):
        case, pin = PINNED[name], HOMOLOGY_GOLDEN[name]
        p = case if isinstance(case, IntegralPresentation) else presentation(case)
        h = homology(p)
        size = 1 + sum(map(len, p.legs))
        assert len(pin["orders"]) == 2 * size
        assert (h.free_rank, list(h.torsion)) == (pin["free_rank"], pin["torsion"])
        assert [list(v) for v in h.class_map] == pin["class_map"]
        assert [list(v) for v in h.free_map] == pin["free_map"]
        assert [_outcome(lambda: h.order(j)) for j in range(-size, size)] == pin["orders"]

    def test_long_star_keeps_under_four_kilobytes(self):
        p = presentation(LONG_STAR)
        tracemalloc.start()
        try:
            h = homology(p)
            kept, _ = tracemalloc.get_traced_memory()
            assert h.order(p.mu_index) == h.order(0) == h.order(-1) == 134703200959
            assert len(h.class_map) == len(h.free_map) == 8992
            gc.collect()  # freed tuples wait on the free lists until a full collection
            after_reads, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the parent route kept 8,992 multiples, about 336 KB
        assert kept < 4096
        assert after_reads - kept < 1024

    def test_order_walks_from_the_terminal_vertex(self, monkeypatch):
        walked = []
        walk = homology_module._leg_end

        def counted(framings):
            walked.append(len(framings))
            return walk(framings)

        monkeypatch.setattr(homology_module, "_leg_end", counted)
        p = presentation(LONG_STAR)
        h = homology(p)
        assert walked == [2998, 2997, 2996]  # the ends (a_0, a_1) of each leg
        walked.clear()
        # the tracked meridian and every terminal vertex take no step
        for j in (p.mu_index, 2998 + 2997, -1):
            assert h.order(j) == 134703200959
        assert walked == [0, 0, 0]
        walked.clear()
        # the centre walks the first leg; a leg's head all of its leg but one step
        assert h.order(0) == h.order(1) == h.order(2999) == 134703200959
        assert walked == [2998, 2997, 2996]


class TestC1Class:
    # c1 = r * PD(mu) on M(g, 2g; (alpha, 1)), read off spinc_offset at n = 2g

    def test_anchor_values(self):
        # [DERIVED] offset = (r - alpha - 2)/2 = -2 = 5 mod 7
        cls = spinc_offset(1, 2, 3, 1, 1)
        assert cls.offset == 5
        assert cls.modulus == 7
        assert cls.c1_coefficient == 1
        assert cls.c1_order == 7

    def test_extreme_rotations(self):
        # r = alpha needs sign +1, r = -alpha sign -1; at n = 2g the signs agree
        assert spinc_offset(1, 2, 3, 1, 3).offset == 6
        assert spinc_offset(1, 2, 3, -1, -3).offset == 3
        assert spinc_offset(1, 2, 3, -1, -3).c1_coefficient == 4

    def test_order_drops_on_common_factor(self):
        # [DERIVED] modulus 15, c1 = 3, so the order is 15/3 = 5
        assert spinc_offset(1, 2, 7, 1, 3).c1_order == 5

    def test_parity_and_range(self):
        with pytest.raises(ConditionViolation):
            spinc_offset(1, 2, 3, 1, 0)
        with pytest.raises(ConditionViolation):
            spinc_offset(1, 2, 3, 1, 5)

    def test_requires_anchor_family(self):
        # c1 is pinned down only at central framing n = 2g, g >= 1
        with pytest.raises(ConditionViolation):
            spinc_offset(1, 3, 3, 1, 1).c1_order
        with pytest.raises(ConditionViolation):
            spinc_offset(0, 0, 3, 1, 1)


class TestSpinCOffset:
    def test_plus_anchor(self):
        cls = spinc_offset(1, 2, 3, 1, 1)
        assert (cls.offset, cls.modulus, cls.c1_coefficient) == (5, 7, 1)

    def test_minus_shift(self):
        # [DERIVED] shift = 2*alpha*(n - 2g) = 4, offset = (0 - 2 - 2 - 4)/2
        # = -4 = 3 mod 7; c1 is not pinned down away from n = 2g
        cls = spinc_offset(1, 3, 2, -1, 0)
        assert (cls.offset, cls.modulus) == (3, 7)
        assert cls.c1_coefficient is None
        with pytest.raises(ConditionViolation):
            cls.c1_order

    def test_plus_above_2g(self):
        cls = spinc_offset(1, 3, 2, 1, 0)
        assert (cls.offset, cls.modulus) == (5, 7)
        assert cls.c1_coefficient is None

    def test_signs_coincide_at_lowest_framing(self):
        # the minus shift vanishes at n = 2g, where both signs are defined
        for r in (-2, 0, 2):
            plus = spinc_offset(1, 2, 4, 1, r)
            minus = spinc_offset(1, 2, 4, -1, r)
            assert plus == minus

    def test_agrees_with_c1_formula(self):
        # at n = 2g: offset (r - alpha - 2)/2 and c1 = r, both mod 2g*alpha + 1
        for r in (-5, -3, -1, 1, 3, 5):
            cls = spinc_offset(2, 4, 5, 1 if r > -5 else -1, r)
            assert cls.offset == ((r - 5 - 2) // 2) % 21
            assert cls.c1_coefficient == r % 21
            assert cls.c1_order == 21 // math.gcd(r, 21)

    @given(
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(1, 12),
        st.sampled_from((1, -1)),
        st.data(),
    )
    def test_offset_determines_c1(self, g, extra, alpha, sign, data):
        n = 2 * g + extra
        low = -alpha + (1 if sign == 1 else 0)
        high = alpha - (0 if sign == 1 else 1)
        candidates = [r for r in range(low, high + 1) if (r - alpha) % 2 == 0]
        r = data.draw(st.sampled_from(candidates))
        cls = spinc_offset(g, n, alpha, sign, r)
        assert 0 <= cls.offset < cls.modulus
        assert cls.modulus == n * alpha + 1
        if n == 2 * g:
            # [DERIVED] c1 = (alpha + 2) + 2*offset as a multiple of PD(mu)
            assert cls.c1_coefficient == r % cls.modulus
            assert (alpha + 2 + 2 * cls.offset - cls.c1_coefficient) % cls.modulus == 0
        else:
            assert cls.c1_coefficient is None

    def test_admissibility_errors(self):
        for bad in (
            (0, 0, 3, 1, 1),
            (1, 1, 3, 1, 1),
            (1, 2, 0, 1, 0),
            (1, 2, 3, 2, 1),
            (1, 2, 3, 1, 2),
            (1, 2, 3, 1, -3),
            (1, 2, 3, -1, 3),
            (1, 2, 3, 1, 5),
        ):
            with pytest.raises(ConditionViolation):
                check_admissible(*bad)
        check_admissible(1, 2, 3, 1, 3)
        check_admissible(1, 2, 3, -1, -3)

    @pytest.mark.parametrize(
        "args",
        [(1, 2, Fraction(7, 2), 1, Fraction(3, 2)), (Fraction(3, 2), 3, 3, 1, 1),
         (1, 2, 3, 1, Fraction(1)), (1, 2, 3, 1.0, 1), (1, 2.0, 3, 1, 1)],
    )
    def test_check_admissible_takes_exact_integers(self, args):
        # every one of these points once passed the check
        with pytest.raises(TypeError):
            check_admissible(*args)

    def test_modulus_validation(self):
        with pytest.raises(ConditionViolation):
            SpinCClass(offset=0, modulus=0, c1_coefficient=None)
        assert SpinCClass(offset=0, modulus=1, c1_coefficient=None).modulus == 1

    @pytest.mark.parametrize(
        "args", [(1.0, 2, 3, 1, 1), (1, 2.0, 3, 1, 1), (1, 2, 3.0, 1, 1), (1, 2, 3, 1.0, 1),
                 (1, 2, 3, 1, 1.0), (1, 2, Fraction(3), 1, 1)]
    )
    def test_arguments_must_be_exact_integers(self, args):
        # spinc_offset(1, 2, 3.0, 1, 1) returned offset 5.0, modulus 7.0, c1 1.0
        with pytest.raises(TypeError):
            spinc_offset(*args)


class TestAdmissiblePoints:
    def test_matches_check_admissible(self):
        for g in (1, 2, 3):
            for n in range(2 * g, 2 * g + 3):
                for alpha in range(1, 13):
                    accepted = []
                    for sign in (1, -1):
                        for r in range(-alpha - 3, alpha + 4):
                            try:
                                check_admissible(g, n, alpha, sign, r)
                            except ConditionViolation:
                                continue
                            accepted.append((g, n, alpha, sign, r))
                    assert list(admissible_points(g, n, alpha)) == accepted
                    assert len(accepted) == 2 * alpha

    def test_points_are_the_blocks_flattened(self):
        for g in (1, 2):
            for n in range(2 * g, 2 * g + 3):
                for alpha in range(1, 13):
                    blocks = list(admissible_blocks(g, n, alpha))
                    assert [sign for sign, _ in blocks] == [1, -1]
                    assert all(isinstance(rs, range) and len(rs) == alpha for _, rs in blocks)

    def test_rejects_out_of_range(self):
        for g, n, alpha in ((0, 0, 3), (1, 1, 3), (1, 2, 0), (-1, 2, 3)):
            with pytest.raises(ConditionViolation):
                list(admissible_blocks(g, n, alpha))

    @pytest.mark.parametrize("args", [(1.0, 2, 1), (1, 2.0, 1), (1, 2, 1.0), (1, 2, Fraction(1))])
    def test_arguments_must_be_exact_integers(self, args):
        # a float n once came back in every point of the grid
        with pytest.raises(TypeError):
            list(admissible_blocks(*args))


def _trial_prime(p: int) -> bool:
    return p > 1 and all(p % d for d in range(2, math.isqrt(p) + 1))


def _witness_by_base_tuples(g: int, count: int, max_base: int, is_prime) -> Witness:
    """The earlier search: every (count - 1)-subset of the earlier primes
    2g*a + 1 at each new prime, lexicographically; raises as it did."""
    primes: list[int] = []
    for top in range(1, max_base + 1):
        p_top = 2 * g * top + 1
        if not is_prime(p_top):
            continue
        for rest in itertools.combinations(primes, count - 1):
            rotations = (*rest, p_top)
            a = (math.prod(rotations) - 1) // (2 * g)
            alpha = a if a % 2 == 1 else a * (2 * g + 1) + 1
            if p_top > alpha:
                continue
            modulus = 2 * g * alpha + 1
            return Witness(alpha, rotations, tuple(modulus // p for p in rotations))
        primes.append(p_top)
    raise SearchExhausted(f"no valid witness with base elements <= {max_base}")


def _witness_by_all_integers(g: int, count: int, max_base: int) -> Witness | None:
    """The original search: every integer tuple below the maximum base,
    primality filtered inside the loop; None where the search runs out."""
    for top in itertools.count(count):
        if top > max_base:
            return None
        if not _trial_prime(2 * g * top + 1):
            continue
        for rest in itertools.combinations(range(1, top), count - 1):
            primes = [2 * g * a + 1 for a in (*rest, top)]
            if not all(_trial_prime(p) for p in primes):
                continue
            a = (math.prod(primes) - 1) // (2 * g)
            alpha = a if a % 2 == 1 else a * (2 * g + 1) + 1
            if any(p > alpha for p in primes):
                continue
            modulus = 2 * g * alpha + 1
            return Witness(alpha, tuple(primes), tuple(modulus // p for p in primes))


class TestDistinctWitness:
    def test_frozen_values(self):
        # [DERIVED] g=1, count=1: base 1 gives alpha=1 < p=3, rejected;
        # base 2 gives p=5, a=2 even, alpha=2*3+1=7, orders (15/5,) = (3,)
        assert distinct_witness(1, 1) == Witness(7, (5,), (3,))
        # [DERIVED] bases (1,2): p=(3,5), a=7 odd, alpha=7, orders (5,3)
        assert distinct_witness(1, 2) == Witness(7, (3, 5), (5, 3))
        # [DERIVED] g=2: bases 1,3 give alpha too small, base 4 gives p=17,
        # a=4 even, alpha=4*5+1=21, order 85/17=5
        assert distinct_witness(2, 1) == Witness(21, (17,), (5,))
        # [DERIVED] bases (1,2,3): p=(3,5,7), a=52 even, alpha=157
        assert distinct_witness(1, 3) == Witness(157, (3, 5, 7), (105, 63, 45))

    def test_validity(self):
        for g in (1, 2):
            for count in (1, 2, 3):
                w = distinct_witness(g, count)
                assert len(w.rotations) == count
                assert len(set(w.orders)) == count
                assert list(w.rotations) == sorted(w.rotations)
                modulus = 2 * g * w.alpha + 1
                for p, order in zip(w.rotations, w.orders):
                    assert p % 2 == 1 and w.alpha % 2 == 1
                    assert p <= w.alpha
                    assert modulus % p == 0
                    assert order * p == modulus

    def test_orders_match_c1_oracle(self):
        w = distinct_witness(1, 2)
        orders = tuple(spinc_offset(1, 2, w.alpha, 1, p).c1_order for p in w.rotations)
        assert orders == w.orders

    def test_deterministic(self):
        assert distinct_witness(3, 2) == distinct_witness(3, 2)

    def test_exhaustion(self):
        with pytest.raises(SearchExhausted):
            distinct_witness(1, 1, max_base=1)
        with pytest.raises(SearchExhausted):
            distinct_witness(1, 2, max_base=1)

    def test_matches_all_integer_enumeration(self):
        exhausted = 0
        for g in range(1, 6):
            for count in range(1, 8):
                for max_base in (1, 2, 3, 5, 10, 20, 30):
                    try:
                        found = distinct_witness(g, count, max_base=max_base)
                    except SearchExhausted:
                        found = None
                        exhausted += 1
                    assert found == _witness_by_all_integers(g, count, max_base)
        assert 0 < exhausted < 245

    def test_exhaustion_skips_composite_bases(self):
        # [DERIVED] only 29 bases a <= 60 make 2a + 1 prime, so no
        # 50-tuple exists; the all-integer enumeration would walk
        # 29,304,651 tuples (maximum 51, 53, 54 or 56) before giving up
        with pytest.raises(SearchExhausted, match="<= 60"):
            distinct_witness(1, 50, max_base=60)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConditionViolation):
            distinct_witness(0, 1)
        with pytest.raises(ConditionViolation):
            distinct_witness(1, 0)

    @pytest.mark.parametrize(
        "args", [(1, 2.0), (1.0, 2), (1, 2, 100.0), (1, Fraction(2)), (1, "2")]
    )
    def test_arguments_must_be_exact_integers(self, args):
        # distinct_witness(1, 2.0) failed inside islice with its own message
        with pytest.raises(TypeError):
            distinct_witness(*args)

    def test_repeated_orders_fail_the_distinctness_check(self):
        # each order matches its rotation's c1 order, but the two coincide
        with pytest.raises(AssertionError, match="^witness orders are not pairwise distinct$"):
            _validate_witness(1, Witness(alpha=7, rotations=(3, 3), orders=(5, 5)))

    def test_matches_base_tuple_search(self):
        # a sieve up to the largest candidate, 2*8*10000 + 1
        limit = 2 * 8 * 10000 + 2
        sieve = bytearray([1]) * limit
        sieve[:2] = b"\0\0"
        for d in range(2, math.isqrt(limit) + 1):
            if sieve[d]:
                sieve[d * d :: d] = bytes(len(range(d * d, limit, d)))
        inputs = exhausted = 0
        for g in range(1, 9):
            for count in range(1, 14):
                for max_base in (*range(1, 80), 100, 300, 1000, 10000):
                    inputs += 1
                    try:
                        expected = _witness_by_base_tuples(g, count, max_base, sieve.__getitem__)
                    except SearchExhausted as error:
                        exhausted += 1
                        with pytest.raises(SearchExhausted) as raised:
                            distinct_witness(g, count, max_base=max_base)
                        assert str(raised.value) == str(error)
                    else:
                        assert distinct_witness(g, count, max_base=max_base) == expected
        assert inputs == 8632
        assert 0 < exhausted < inputs

    def test_count_two_and_more_take_the_first_primes(self):
        # prod p_i >= (2g + 1) * p_count, so the first candidate is valid
        for g in (1, 2, 7, 1000):
            for count in (2, 3, 6):
                candidates = (2 * g * a + 1 for a in itertools.count(1))
                primes = itertools.islice(filter(_trial_prime, candidates), count)
                assert distinct_witness(g, count).rotations == tuple(primes)

    def test_search_exhausted_is_invalid_input(self):
        with pytest.raises(SearchExhausted, match="<= 1"):
            distinct_witness(1, 2, max_base=1)

    @pytest.mark.parametrize(
        "g, count, max_base",
        [
            (10**12 + 1, 2, 10000),
            (10**1000, 2, 10000),
            (1, 101, 10000),
            (1, 10**6, 10000),
            (1, 2, 10**6 + 1),
            (1, 20000, 300000),
        ],
        ids=["g", "g-1001-digits", "count", "count-10^6", "max-base", "count-and-max-base"],
    )
    def test_bounds_refused_before_search(self, g, count, max_base, monkeypatch):
        def no_search(n):
            raise AssertionError("searched")

        monkeypatch.setattr(homology_module, "_is_prime", no_search)
        with pytest.raises(ConditionViolation, match="witness needs g <= 10\\^12"):
            distinct_witness(g, count, max_base=max_base)

    def test_largest_accepted_parameters(self):
        w = distinct_witness(10**12, 100, max_base=10**6)
        assert len(set(w.orders)) == 100
        assert max(w.rotations) <= 2 * 10**18 + 1
        assert len(str(w.alpha)) < 4300


class TestIsPrime:
    def test_matches_trial_division(self):
        assert [n for n in range(-2, 3000) if homology_module._is_prime(n)] == [
            n for n in range(-2, 3000) if _trial_prime(n)
        ]

    def test_strong_pseudoprime_to_bases_up_to_37(self):
        # [DERIVED] psi_12 = 399165290221 * 798330580441 passes Miller-Rabin
        # at every prime base up to 37 (Sorenson-Webster); base 41 exposes it
        psi_12 = 318665857834031151167461
        assert psi_12 == 399165290221 * 798330580441
        assert not homology_module._is_prime(psi_12)
        assert homology_module._is_prime(798330580441)
        assert homology_module._is_prime(2**61 - 1)  # a Mersenne prime near 2.3 * 10^18
