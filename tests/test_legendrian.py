"""Rational surgery to (+-1)-surgery conversion and stabilization choices."""

import itertools
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from contactsurgery import legendrian
from contactsurgery.contfrac import _CHAIN_LIMIT, neg_cf_expand, stabilization_counts
from contactsurgery.errors import ConditionViolation
from contactsurgery.legendrian import (
    LegendrianComponent,
    PlusMinusDiagram,
    StabilizationChoice,
    convert,
    enumerate_choices,
    smooth_coefficient,
)


# Reference: the three-branch construction (r < 0, r = 1/k, other r > 0)
# that `convert` replaced, with `enumerate_choices` reading the rotation
# of each component's parent, the component before it, by index.
def _reference_reduce_positive(p, q):
    if p <= 0 or q <= 0:
        raise ConditionViolation("reduce_positive needs positive p and q")
    if math.gcd(p, q) != 1:
        raise ConditionViolation("p/q must be in lowest terms")
    if p < 2:
        raise ConditionViolation("p = 1 coefficients go through one_over_k_to_plus_ones")
    k = q // p + 1
    return k, Fraction(p, q - k * p)


def _reference_plus_ones(k, root_tb, root_rot):
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > _CHAIN_LIMIT:
        raise ConditionViolation(f"the chain needs more than {_CHAIN_LIMIT} (+1)-pushoffs")
    return tuple(LegendrianComponent(1, 0, root_tb, root_rot) for _ in range(k))


def _reference_negative_chain(r, tb, rot):
    components = []
    for s in stabilization_counts(neg_cf_expand(r)):
        tb -= s
        rot -= s
        components.append(LegendrianComponent(-1, s, tb, rot))
    return tuple(components)


def _reference_convert(r, root_tb=-1, root_rot=0):
    r = Fraction(r)
    if r == 0:
        raise ConditionViolation("contact 0-surgery cannot be converted")
    if r < 0:
        chain = _reference_negative_chain(r, root_tb, root_rot)
        return PlusMinusDiagram(chain, root_tb, root_rot)
    if r.numerator == 1:
        chain = _reference_plus_ones(r.denominator, root_tb, root_rot)
        return PlusMinusDiagram(chain, root_tb, root_rot)
    k, residual = _reference_reduce_positive(r.numerator, r.denominator)
    head = _reference_plus_ones(k, root_tb, root_rot)
    tail = _reference_negative_chain(residual, root_tb, root_rot)
    return PlusMinusDiagram(head + tail, root_tb, root_rot)


def _reference_choices(diagram):
    per_component = [
        [(j, c.stab_count - j) for j in range(c.stab_count + 1)]
        for c in diagram.components
    ]
    choices = []
    for signs in itertools.product(*per_component):
        rotations = []
        for i, (pos, neg) in enumerate(signs):
            base = diagram.root_rot if i == 0 else rotations[i - 1]
            rotations.append(base + pos - neg)
        choices.append(StabilizationChoice(tuple(signs), tuple(rotations)))
    return choices


def _outcome(build, r, tb, rot):
    try:
        return build(r, tb, rot)
    except ValueError as exc:  # every package error is a ValueError
        return type(exc), str(exc)


class TestSingleConstruction:
    @given(
        st.integers(min_value=-300, max_value=300).filter(lambda p: p != 0),
        st.integers(min_value=1, max_value=300),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
    )
    @example(1, 3000, -1, 0)
    @example(1, 3001, -1, 0)
    @example(2, 5999, -1, 0)
    @example(2, 6001, -1, 0)
    @example(-1, 3000, -1, 0)
    @example(-1, 3001, -1, 0)
    @example(3001, 3000 * 3001 + 1, -1, 0)
    @example(10**6, 10**6 + 1, -1, 0)
    def test_matches_three_branch_reference(self, p, q, tb, rot):
        r = Fraction(p, q)
        got = _outcome(convert, r, tb, rot)
        assert got == _outcome(_reference_convert, r, tb, rot)
        if isinstance(got, PlusMinusDiagram) and got.choice_count <= 512:
            assert enumerate_choices(got) == _reference_choices(got)


class TestReducePositive:
    """The positive reduction inside `convert`: k (+1)s, then the residual's chain."""

    @staticmethod
    def _split(r):
        d = convert(r)
        k = sum(c.contact_coefficient == 1 for c in d.components)
        residual = Fraction(r.numerator, r.denominator - k * r.numerator)
        return d, k, residual

    def test_examples(self):
        # [DERIVED] k = q//p + 1; residual = p/(q - kp) < 0
        for r, k, residual in [
            (Fraction(3, 2), 1, Fraction(-3, 1)),
            (Fraction(2, 3), 2, Fraction(-2, 1)),
            (Fraction(3, 5), 2, Fraction(-3, 1)),
            (Fraction(7, 5), 1, Fraction(-7, 2)),
        ]:
            d, got_k, got_residual = self._split(r)
            assert (got_k, got_residual) == (k, residual)
            assert d.stab_counts[k:] == convert(residual).stab_counts

    def test_residual_negative(self):
        for p, q in [(2, 1), (3, 2), (5, 3), (7, 11), (9, 2)]:
            d, k, residual = self._split(Fraction(p, q))
            assert k >= 1
            assert residual < 0
            # 1/r = k + 1/residual with r = p/q
            assert Fraction(q, p) == k + Fraction(residual.denominator, residual.numerator)
            assert d.stab_counts[k:] == convert(residual).stab_counts


class TestConvertNegative:
    def test_minus_one(self):
        d = convert(Fraction(-1))
        assert len(d.components) == 1
        (c,) = d.components
        assert c.contact_coefficient == -1
        assert c.stab_count == 0

    def test_minus_seven_fifths(self):
        # [DERIVED] -7/5 -> chain [-2,-2,-3] -> stabs [1,0,1], all (-1)s
        d = convert(Fraction(-7, 5))
        assert [c.contact_coefficient for c in d.components] == [-1, -1, -1]
        assert d.stab_counts == (1, 0, 1)

    def test_tb_accumulates_stabs(self):
        # tb walks down from root_tb = -1 by one per stabilization
        d = convert(Fraction(-7, 5))
        assert [c.tb for c in d.components] == [-2, -2, -3]
        # smooth framing of each pushoff: tb + contact coefficient
        assert [smooth_coefficient(c) for c in d.components] == [-3, -3, -4]

    def test_choice_count(self):
        # [DERIVED] prod(s_i + 1) over stabs [1,0,1]
        assert convert(Fraction(-7, 5)).choice_count == 4


class TestConvertOneOverK:
    def test_plus_one(self):
        d = convert(Fraction(1))
        assert len(d.components) == 1
        assert d.components[0].contact_coefficient == 1
        assert sum(c.contact_coefficient == 1 for c in d.components) == 1

    def test_one_third(self):
        # 1/k -> k unstabilized (+1)-pushoffs chained off the root
        d = convert(Fraction(1, 3))
        assert [c.contact_coefficient for c in d.components] == [1, 1, 1]
        assert d.stab_counts == (0, 0, 0)
        assert d.choice_count == 1


class TestConvertPositive:
    def test_three_halves(self):
        # [DERIVED] 3/2: k=1, residual -3 -> [(+1), (-1) with 2 stabs]
        d = convert(Fraction(3, 2))
        assert [c.contact_coefficient for c in d.components] == [1, -1]
        assert d.stab_counts == (0, 2)

    def test_family_member(self):
        # [DERIVED] (alpha+1)/(2 alpha+1) -> two (+1)s then one (-1) with
        # alpha stabilizations; the shape behind the tightness criteria
        for alpha in (1, 2, 3, 7):
            r = Fraction(alpha + 1, 2 * alpha + 1)
            d = convert(r)
            assert [c.contact_coefficient for c in d.components] == [1, 1, -1]
            assert d.stab_counts == (0, 0, alpha)
            assert d.choice_count == alpha + 1

    def test_zero_rejected(self):
        with pytest.raises(ConditionViolation, match="contact 0-surgery cannot be converted"):
            convert(Fraction(0))

    @given(
        st.integers(min_value=-60, max_value=60).filter(lambda p: p != 0),
        st.integers(min_value=1, max_value=60),
    )
    def test_shape_invariants(self, p, q):
        # structure of every conversion: a (possibly empty) run of
        # unstabilized (+1)s off the root, then a (-1)-chain whose
        # stabilization counts are read off the expansion of the
        # residual (or of r itself when r < 0)
        r = Fraction(p, q)
        d = convert(r)
        signs = [c.contact_coefficient for c in d.components]
        k = signs.count(1)
        assert signs == [1] * k + [-1] * (len(signs) - k)
        assert all(s == 0 for s in d.stab_counts[:k])
        if r < 0:
            assert k == 0
        elif r.numerator == 1:
            assert k == r.denominator and len(signs) == k
        else:
            assert k == r.denominator // r.numerator + 1
            residual = Fraction(r.numerator, r.denominator - k * r.numerator)
            tail = convert(residual)
            assert d.stab_counts[k:] == tail.stab_counts
        # tb decreases along the chain by exactly the stabilizations done
        run = d.root_tb
        for c in d.components:
            run -= c.stab_count
            assert c.tb == run


class TestEnumerateChoices:
    def test_count_matches(self):
        d = convert(Fraction(-7, 5))
        choices = enumerate_choices(d)
        assert len(choices) == d.choice_count == 4

    def test_rotation_accumulation(self):
        # single component, 2 stabs: rotations -2, 0, +2 as the split moves
        d = convert(Fraction(3, 2))
        rots = sorted(ch.rotations[-1] for ch in enumerate_choices(d))
        assert rots == [-2, 0, 2]

    def test_family_rotations(self):
        # [DERIVED] alpha stabs on the last pushoff: final rotation numbers
        # are -alpha, -alpha+2, ..., alpha
        alpha = 4
        d = convert(Fraction(alpha + 1, 2 * alpha + 1))
        rots = sorted(ch.rotations[-1] for ch in enumerate_choices(d))
        assert rots == [-alpha + 2 * j for j in range(alpha + 1)]

    def test_signs_partition(self):
        d = convert(Fraction(3, 2))
        for ch in enumerate_choices(d):
            for (pos, neg), s in zip(ch.signs, d.stab_counts):
                assert pos + neg == s
                assert pos >= 0 and neg >= 0

    def test_all_negative_default(self):
        # first enumerated choice is the all-negative stabilization
        d = convert(Fraction(3, 2))
        first = enumerate_choices(d)[0]
        assert all(pos == 0 for pos, _ in first.signs)
        assert first.rotations[-1] == -2


class TestChainBound:
    def test_longest_chains_accepted(self):
        assert len(convert(Fraction(1, 3000)).components) == 3000
        assert len(convert(Fraction(-1, 3000)).components) == 3000
        # [DERIVED] 2999/(2999^2 + 1): k = 3000, residual -2999/2998 with
        # 2998 entries, the longest chain a positive coefficient can give
        d = convert(Fraction(2999, 2999 * 2999 + 1))
        plus = sum(c.contact_coefficient == 1 for c in d.components)
        assert (plus, len(d.components)) == (3000, 5998)

    @pytest.mark.parametrize(
        "r",
        [
            Fraction(1, 3001),
            Fraction(1, 10**12),
            Fraction(2, 2 * 10**12 + 1),
            Fraction(3000, 3000 * 3000 + 1),
            Fraction(-1, 3001),
            Fraction(-1, 10**12),
        ],
    )
    def test_longer_chains_refused_before_building(self, r):
        with mock.patch.object(legendrian, "LegendrianComponent", side_effect=AssertionError):
            with pytest.raises(ConditionViolation, match="more than 3000"):
                convert(r)

    def test_long_residual_refused(self):
        # [DERIVED] k = 2, residual -10^6/999999 expands to 999999 entries
        with pytest.raises(ConditionViolation, match="more than 3000 entries"):
            convert(Fraction(10**6, 10**6 + 1))

    def test_plus_ones_bounded(self):
        d = convert(Fraction(1, 3000))
        plus = sum(c.contact_coefficient == 1 for c in d.components)
        assert (plus, len(d.components)) == (3000, 3000)
        with pytest.raises(ConditionViolation):
            convert(Fraction(1, 3001))


class TestComponentGuards:
    @pytest.mark.parametrize("coefficient", [0, 2, -2])
    def test_contact_coefficient_is_plus_or_minus_one(self, coefficient):
        with pytest.raises(ConditionViolation, match=r"^contact coefficient must be \+1 or -1$"):
            LegendrianComponent(coefficient, 0, -1, 0)

    def test_stabilization_count_is_nonnegative(self):
        with pytest.raises(ConditionViolation, match="^stabilization count must be >= 0$"):
            LegendrianComponent(-1, -1, -1, 0)


class TestExactInputs:
    @pytest.mark.parametrize("tb, rot", [(-1.0, 0), (-1, 0.0), (Fraction(-1), 0)])
    def test_root_tb_and_rot_must_be_integers(self, tb, rot):
        # convert(1/2, -1.0, 0) built components with float tb and rot
        with pytest.raises(TypeError):
            convert(Fraction(1, 2), tb, rot)

    @pytest.mark.parametrize("r", [0.5, -0.5, 2.0, "1/2"])
    def test_coefficient_must_be_rational(self, r):
        # convert(0.5) read the float as the Fraction 1/2
        with pytest.raises(TypeError):
            convert(r)
