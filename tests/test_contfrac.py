"""Negative continued fraction expansion and evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from contactsurgery.contfrac import (
    _CHAIN_LIMIT,
    NegContinuedFraction,
    neg_cf_expand,
    neg_cf_value,
    stabilization_counts,
)
from contactsurgery.errors import ConditionViolation


class TestExpand:
    def test_integer(self):
        # [TRIVIAL] an integer expands to itself
        assert neg_cf_expand(Fraction(-4)).entries == (-4,)

    def test_minus_one(self):
        assert neg_cf_expand(Fraction(-1)).entries == (-1,)

    def test_seven_fifths(self):
        # [DERIVED] -7/5 = -2 - 1/(-2 - 1/-3), checked by re-evaluation
        assert neg_cf_expand(Fraction(-7, 5)).entries == (-2, -2, -3)

    def test_five_thirds(self):
        # [DERIVED] -5/3 = -2 - 1/-3
        assert neg_cf_expand(Fraction(-5, 3)).entries == (-2, -3)

    def test_half(self):
        # [DERIVED] -1/2 = -1 - 1/-2
        assert neg_cf_expand(Fraction(-1, 2)).entries == (-1, -2)

    def test_all_twos(self):
        # [DERIVED] -(k+1)/k expands to k entries of -2
        for k in range(1, 12):
            cf = neg_cf_expand(Fraction(-(k + 1), k))
            assert cf.entries == (-2,) * k

    def test_residual_family(self):
        # [DERIVED] -alpha/(alpha - m) for 1 <= m < alpha expands to
        # (m-1) leading -2 entries followed by the integer tail of the
        # Euclidean remainder; freeze two instances checked by hand
        assert neg_cf_expand(Fraction(-7, 2)).entries == (-4, -2)
        assert neg_cf_expand(Fraction(-4, 3)).entries == (-2, -2, -2)

    def test_nonnegative_rejected(self):
        with pytest.raises(ConditionViolation, match="expected a negative coefficient, got 3/2"):
            neg_cf_expand(Fraction(3, 2))
        with pytest.raises(ConditionViolation, match="expected a negative coefficient, got 0"):
            neg_cf_expand(Fraction(0))

    def test_entry_bounds(self):
        cf = neg_cf_expand(Fraction(-199, 117))
        assert cf.entries[0] <= -1
        assert all(c <= -2 for c in cf.entries[1:])


class TestValue:
    def test_single(self):
        assert neg_cf_value(NegContinuedFraction((-5,))) == Fraction(-5)

    def test_seven_fifths(self):
        assert neg_cf_value(NegContinuedFraction((-2, -2, -3))) == Fraction(-7, 5)

    @given(st.integers(min_value=-200, max_value=-1), st.integers(min_value=1, max_value=200))
    def test_round_trip(self, p, q):
        r = Fraction(p, q)
        assert neg_cf_value(neg_cf_expand(r)) == r

    @given(
        st.lists(st.integers(min_value=-9, max_value=-2), min_size=0, max_size=8),
        st.integers(min_value=-9, max_value=-1),
    )
    def test_expand_inverts_value(self, tail, head):
        # every admissible entry tuple is the expansion of its own value,
        # except [-1] tails: c0 = -1 needs an empty tail to be canonical
        if head == -1 and tail:
            return
        cf = NegContinuedFraction((head, *tail))
        assert neg_cf_expand(neg_cf_value(cf)).entries == cf.entries


class TestFractionReference:
    """The integer (p, q) loops against the plain Fraction recursions."""

    @staticmethod
    def _expand(r):
        entries = []
        while r.denominator != 1:
            c = r.numerator // r.denominator
            entries.append(c)
            r = -1 / (r - c)
        return (*entries, r.numerator)

    @staticmethod
    def _value(entries):
        value = Fraction(entries[-1])
        for c in reversed(entries[:-1]):
            value = c - 1 / value
        return value

    # -(q+1)/q has q entries, so the denominator stays small
    @given(st.integers(min_value=-(10**30), max_value=-1), st.integers(min_value=1, max_value=2000))
    def test_expand(self, p, q):
        r = Fraction(p, q)
        assert neg_cf_expand(r).entries == self._expand(r)

    @given(
        st.integers(min_value=-(10**6), max_value=-1),
        st.lists(st.integers(min_value=-(10**6), max_value=-2), max_size=12),
    )
    def test_value(self, head, tail):
        cf = NegContinuedFraction((head, *tail))
        assert neg_cf_value(cf) == self._value(cf.entries)

    def test_integer_input(self):
        assert neg_cf_expand(-3).entries == (-3,)


class TestStabilizationCounts:
    def test_values(self):
        # [DERIVED] s_0 = -c_0 - 1, s_i = -c_i - 2
        assert stabilization_counts(NegContinuedFraction((-2, -2, -3))) == [1, 0, 1]
        assert stabilization_counts(NegContinuedFraction((-1,))) == [0]
        assert stabilization_counts(NegContinuedFraction((-5, -2))) == [4, 0]

    def test_nonnegative(self):
        cf = neg_cf_expand(Fraction(-123, 37))
        assert all(s >= 0 for s in stabilization_counts(cf))


class TestValidation:
    def test_head_bound(self):
        with pytest.raises(ConditionViolation):
            NegContinuedFraction((0, -2))

    def test_tail_bound(self):
        with pytest.raises(ConditionViolation):
            NegContinuedFraction((-2, -1))

    def test_empty(self):
        with pytest.raises(ConditionViolation):
            NegContinuedFraction(())

    def test_entries_must_be_exact_integers(self):
        # (-2.7, -3.2) was silently truncated to (-2, -3)
        with pytest.raises(TypeError):
            NegContinuedFraction((-2.7, -3.2))
        with pytest.raises(TypeError):
            NegContinuedFraction((Fraction(-2), -3))

    @pytest.mark.parametrize("r", [-0.5, -2.0, 0.5])
    def test_expand_refuses_a_float(self, r):
        # neg_cf_expand(-0.5) read the float as the Fraction -1/2
        with pytest.raises(TypeError):
            neg_cf_expand(r)


class TestChainBound:
    def test_longest_expansions_accepted(self):
        # -1/q and -(q+1)/q have q entries
        assert len(neg_cf_expand(Fraction(-1, _CHAIN_LIMIT))) == _CHAIN_LIMIT
        assert len(neg_cf_expand(Fraction(-_CHAIN_LIMIT - 1, _CHAIN_LIMIT))) == _CHAIN_LIMIT

    @pytest.mark.parametrize("q", [_CHAIN_LIMIT + 1, 10**6, 10**12, 10**100])
    def test_longer_expansions_refused(self, q):
        with pytest.raises(ConditionViolation, match="more than 3000 entries"):
            neg_cf_expand(Fraction(-1, q))
        with pytest.raises(ConditionViolation, match="more than 3000 entries"):
            neg_cf_expand(Fraction(-q - 1, q))
