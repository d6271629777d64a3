"""Seifert invariants, normal form, and the surgery coefficient dictionary."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactsurgery.errors import ConditionViolation
from contactsurgery.gauge import moy_check
from contactsurgery.seifert import (
    SeifertInvariants,
    coefficients_from_seifert,
    d_range,
    normalize,
    rolfsen_twist,
    seifert_from_coefficients,
)


class TestInvariants:
    def test_e_invariant(self):
        # [TRIVIAL] 2 + 1/5
        inv = SeifertInvariants(2, 2, ((5, 1),))
        assert inv.e_invariant == Fraction(11, 5)

    def test_validation(self):
        with pytest.raises(ConditionViolation):
            SeifertInvariants(-1, 0)
        with pytest.raises(ConditionViolation):
            SeifertInvariants(0, 0, ((0, 1),))
        with pytest.raises(ConditionViolation):
            SeifertInvariants(0, 0, ((4, 2),))
        # beta = 0 is allowed regardless of alpha
        SeifertInvariants(0, 0, ((4, 0),))

    @pytest.mark.parametrize("pair", [(3.9, 1), (3, 1.0), (Fraction(3), 1), ("3", 1)])
    def test_pairs_must_be_exact_integers(self, pair):
        # 3.9 was silently truncated to 3
        with pytest.raises(TypeError):
            SeifertInvariants(1, 2, (pair,))

    @pytest.mark.parametrize("g, n", [(0, 1.5), (1.0, 2), (1, 2.0), (Fraction(1), 2), (1, "2")])
    def test_genus_and_framing_must_be_exact_integers(self, g, n):
        # SeifertInvariants(0, 1.5, ((3, 1),)).e_invariant was the float 1.8333...
        with pytest.raises(TypeError):
            SeifertInvariants(g, n, ((3, 1),))


class TestTwist:
    def test_preserves_e(self):
        inv = SeifertInvariants(1, 3, ((5, 2), (3, 1)))
        for i in (0, 1):
            for direction in (1, -1):
                assert rolfsen_twist(inv, i, direction).e_invariant == inv.e_invariant

    def test_explicit(self):
        inv = SeifertInvariants(1, 3, ((5, 2),))
        up = rolfsen_twist(inv, 0, 1)
        assert up == SeifertInvariants(1, 2, ((5, 7),))

    @pytest.mark.parametrize("direction", [0, 2, -2])
    def test_rejects_other_directions(self, direction):
        with pytest.raises(ConditionViolation, match=r"^direction must be \+1 or -1$"):
            rolfsen_twist(SeifertInvariants(1, 3, ((5, 2),)), 0, direction)


class TestNormalize:
    def test_already_normal(self):
        inv = SeifertInvariants(1, 2, ((3, 1),))
        assert normalize(inv) == inv

    def test_large_beta(self):
        # [DERIVED] (5, 12): 12 = 2*5 + 2, so two downward twists
        inv = SeifertInvariants(0, 1, ((5, 12),))
        assert normalize(inv) == SeifertInvariants(0, 3, ((5, 2),))

    def test_negative_beta(self):
        # [DERIVED] (3, -1): one upward twist to (3, 2), n drops by 1
        inv = SeifertInvariants(2, 4, ((3, -1),))
        assert normalize(inv) == SeifertInvariants(2, 3, ((3, 2),))

    def test_trivial_pair_dropped(self):
        inv = SeifertInvariants(0, 1, ((1, 4), (2, 1)))
        assert normalize(inv) == SeifertInvariants(0, 5, ((2, 1),))

    @given(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=-5, max_value=5),
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=12),
                st.integers(min_value=-30, max_value=30),
            ),
            max_size=4,
        ),
    )
    def test_properties(self, g, n, raw_pairs):
        from math import gcd

        pairs = tuple((a, b) for a, b in raw_pairs if b == 0 or gcd(a, b) == 1)
        inv = SeifertInvariants(g, n, pairs)
        out = normalize(inv)
        assert out.e_invariant == inv.e_invariant
        assert all(a > b >= 1 for a, b in out.pairs)
        assert normalize(out) == out


class TestCoefficientDictionary:
    def test_base_family(self):
        # [DERIVED] g=1, n=2, single (alpha, 1) pair:
        # r1 = (alpha + 1)/(2 alpha + 1)
        for alpha in (1, 2, 3, 5, 9):
            inv = SeifertInvariants(1, 2, ((alpha, 1),))
            assert coefficients_from_seifert(inv) == [Fraction(alpha + 1, 2 * alpha + 1)]

    def test_empty_pairs(self):
        # no exceptional fibers: synthesized (1, 0) head pair
        inv = SeifertInvariants(1, 3)
        assert coefficients_from_seifert(inv) == [Fraction(2, 3)]

    def test_multi_fiber(self):
        # [DERIVED] g=2, n=5, pairs (2,1),(5,3): m = 1, head (2*2+1)/(3*2+1)
        inv = SeifertInvariants(2, 5, ((2, 1), (5, 3)))
        rs = coefficients_from_seifert(inv)
        assert rs == [Fraction(5, 7), Fraction(-2, 3)]

    def test_bounds(self):
        inv = SeifertInvariants(1, 4, ((7, 2), (3, 2), (4, 3)))
        rs = coefficients_from_seifert(inv)
        assert Fraction(1, 2) <= rs[0] < 1
        assert all(r < 0 for r in rs[1:])

    def test_requires_n_at_least_2g(self):
        with pytest.raises(ConditionViolation):
            coefficients_from_seifert(SeifertInvariants(2, 3, ((3, 1),)))
        with pytest.raises(ConditionViolation):
            coefficients_from_seifert(SeifertInvariants(0, 2, ((3, 1),)))

    def test_rejects_a_head_pair_with_beta_above_alpha(self):
        message = r"^first pair must have alpha >= beta >= 0, got \(3, 5\)$"
        with pytest.raises(ConditionViolation, match=message):
            coefficients_from_seifert(SeifertInvariants(1, 2, ((3, 5),)))

    @pytest.mark.parametrize("tail", [(2, 3), (3, 0), (5, 7)])
    def test_rejects_a_later_pair_outside_normal_form(self, tail):
        message = rf"^pair \({tail[0]},{tail[1]}\) is not in normal form$"
        with pytest.raises(ConditionViolation, match=message):
            coefficients_from_seifert(SeifertInvariants(1, 2, ((3, 1), tail)))

    @pytest.mark.parametrize(
        "g, rs, message",
        [
            (0, [Fraction(2, 3)], r"^need g >= 1, got 0$"),
            (1, [], r"^need at least one coefficient$"),
            (1, [Fraction(1)], r"^first coefficient must lie in \[1/2, 1\), got 1$"),
            (1, [Fraction(1, 3)], r"^first coefficient must lie in \[1/2, 1\), got 1/3$"),
            (
                1,
                [Fraction(2, 3), Fraction(-1, 2), Fraction(1, 2)],
                r"^later coefficients must be negative, got 1/2$",
            ),
            (1, [Fraction(2, 3), 0], r"^later coefficients must be negative, got 0$"),
        ],
    )
    def test_inverse_rejects_each_guard(self, g, rs, message):
        with pytest.raises(ConditionViolation, match=message):
            seifert_from_coefficients(g, rs)

    @pytest.mark.parametrize(
        "rs", [[Fraction(2, 3), -0.5], [0.5], [Fraction(2, 3), Fraction(-1, 2), -2.0]]
    )
    def test_inverse_rejects_floats(self, rs):
        # [Fraction(2, 3), -0.5] went through Fraction(-0.5) and came back
        # as SeifertInvariants(1, 3, ((3, 2),))
        with pytest.raises(TypeError, match="^expected an int or a Fraction, got float$"):
            seifert_from_coefficients(1, rs)

    def test_round_trip_example(self):
        # [DERIVED] worked inversion: g=2, r1 = 5/7 -> alpha1 = 2, then
        # p = 5 = (m+1)*2 + 1 gives m = 1, b1 = 1, n = m + 2g = 5
        inv = seifert_from_coefficients(2, [Fraction(5, 7)])
        assert inv == SeifertInvariants(2, 5, ((2, 1),))

    def test_round_trip_drops_trivial_head(self):
        inv = seifert_from_coefficients(1, [Fraction(2, 3)])
        assert inv == SeifertInvariants(1, 3)

    @given(
        st.integers(min_value=1, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.tuples(st.integers(min_value=1, max_value=10), st.integers(min_value=0, max_value=9)),
        st.lists(
            st.tuples(st.integers(min_value=2, max_value=10), st.integers(min_value=1, max_value=9)),
            max_size=3,
        ),
    )
    def test_round_trip_random(self, g, m, head, tails):
        from math import gcd

        a1 = head[0] + head[1]  # force alpha > beta
        b1 = head[1]
        if b1 != 0 and gcd(a1, b1) != 1:
            return
        pairs = [(a1, b1)] if b1 != 0 else []
        for a, b in tails:
            if b >= a or gcd(a, b) != 1:
                return
            pairs.append((a, b))
        inv = SeifertInvariants(g, m + 2 * g, tuple(pairs))
        rs = coefficients_from_seifert(inv)
        assert seifert_from_coefficients(g, rs) == inv


class TestBundles:
    # bundle degrees of the one-fiber family are kept by gauge.moy_check,
    # in integer units of 1/alpha

    def test_canonical_degree_single_fiber(self):
        # [DERIVED] deg K = 2g - 1 - 1/alpha for one (alpha, beta) fiber: the
        # offset k = alpha deg K puts deg K itself in the window [0, deg K]
        for g, alpha in [(1, 3), (2, 5), (3, 2)]:
            deg_k = Fraction((2 * g - 1) * alpha - 1, alpha)
            verdict = moy_check(g, 2 * g, alpha, (2 * g - 1) * alpha - 1)
            assert verdict.witness_degrees == (deg_k,)
            assert verdict.representative == deg_k + 2 * g + Fraction(1, alpha)


class TestDRange:
    def test_small_genus(self):
        # [DERIVED] window d(d+1) <= 2g <= d(d+2) - 1
        assert d_range(1) == 1  # 2 in [2, 2]
        assert d_range(2) is None  # 4 not in [2,2] or [6,7]
        assert d_range(3) == 2  # 6 in [6, 7]
        assert d_range(6) == 3  # 12 in [12, 14]
        assert d_range(7) == 3  # 14 in [12, 14]
        assert d_range(8) is None  # 16 in gap between 14 and 20

    def test_rejects(self):
        with pytest.raises(ConditionViolation):
            d_range(0)

    @given(st.integers(min_value=1, max_value=500))
    def test_window_definition(self, g):
        d = d_range(g)
        if d is None:
            assert all(
                not (e * (e + 1) <= 2 * g <= e * (e + 2) - 1) for e in range(1, 2 * g + 2)
            )
        else:
            assert d * (d + 1) <= 2 * g <= d * (d + 2) - 1

    @given(st.integers(min_value=1, max_value=10**40))
    def test_window_ends_at_large_genus(self, d):
        # 2g = d(d+1) opens window d, the largest even 2g <= d(d+2) - 1
        # closes it, and the first even 2g >= d(d+2) lies in the gap after it
        assert d_range(d * (d + 1) // 2) == d
        assert d_range((d * (d + 2) - 1) // 2) == d
        assert d_range((d * (d + 2) + 1) // 2) is None
