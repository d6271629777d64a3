"""Correction-term identities, d3 certificates, and the degree-window criteria."""

import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contactsurgery.errors import ConditionViolation
from contactsurgery.gauge import (
    MoyVerdict,
    _moy_holds,
    _moy_units,
    _omega_closed_ratio,
    _omega_long_ratio,
    _omega_long_terms,
    _omega_routes_agree,
    d3_certificate,
    moy_check,
    omega_red_closed,
    omega_red_long,
)
from contactsurgery.homology import _spinc_offset, spinc_offset

from reference import admissible_points


def at_point(core, point):
    """A block core's one result at a single point (g, n, alpha, sign, r)."""
    (value,) = core(*point[:4], (point[4],))
    return value


def admissible_rotations(alpha, sign):
    low = -alpha + (1 if sign == 1 else 0)
    high = alpha - (0 if sign == 1 else 1)
    return [r for r in range(low, high + 1) if (r - alpha) % 2 == 0]


@st.composite
def admissible_inputs(draw, max_g=3, max_extra=4, max_alpha=12):
    g = draw(st.integers(1, max_g))
    n = 2 * g + draw(st.integers(0, max_extra))
    alpha = draw(st.integers(1, max_alpha))
    sign = draw(st.sampled_from((1, -1)))
    r = draw(st.sampled_from(admissible_rotations(alpha, sign)))
    return g, n, alpha, sign, r


def long_ingredients(g, n, alpha, sign, r):
    """(l, rho, gamma, S, S_rho, F_rho): _omega_long_terms's numerators over their denominators."""
    ((q, rho_num, gamma2, s_num, f_rho_num, s_rho_num, _),) = _omega_long_terms(
        g, n, alpha, sign, (r,)
    )
    return {
        "l": Fraction(q, 2 * alpha),
        "rho": Fraction(rho_num, q),
        "gamma": Fraction(gamma2, 2),
        "S": Fraction(s_num, 12 * alpha),
        "S_rho": Fraction(s_rho_num, 24 * alpha),
        "F_rho": Fraction(f_rho_num, 2 * alpha * q),
    }


class TestDedekindContext:
    """The long route's ingredients, read from the one helper that computes them."""

    def test_anchor(self):
        # [DERIVED] l = 3, rho = (1*2 - 0)/6 = 1/3, gamma = 0,
        # S(1,1) = 3/12 - 1/4 = 0, F = 1/3, S_rho = (1 - 3 + 2)/12 = 0
        assert long_ingredients(1, 2, 1, 1, 1) == {
            "l": 3,
            "rho": Fraction(1, 3),
            "gamma": 0,
            "S": 0,
            "S_rho": 0,
            "F_rho": Fraction(1, 3),
        }

    def test_dedekind_sum_value(self):
        # [DERIVED] S(1,3) = 11/36 - 9/36 = 1/18
        assert long_ingredients(1, 2, 3, 1, 1)["S"] == Fraction(1, 18)

    def test_gamma_vanishes_at_low_rotation(self):
        # gamma = (r + alpha - 2)/2 is zero exactly at r = 2 - alpha
        assert long_ingredients(1, 2, 5, 1, -3)["gamma"] == 0

    @settings(max_examples=80)
    @given(admissible_inputs())
    def test_rho_strictly_interior(self, params):
        assert 0 < long_ingredients(*params)["rho"] < 1

    def test_rejects_inadmissible(self):
        with pytest.raises(ConditionViolation):
            omega_red_long(1, 2, 1, 1, -1)
        with pytest.raises(ConditionViolation):
            omega_red_long(0, 0, 1, 1, 1)

    def test_a_core_yielding_rho_one_trips_the_shared_assertion(self):
        def rho_one(*block):
            for q, _, *rest in _omega_long_terms(*block):
                yield (q, q, *rest)

        with mock.patch("contactsurgery.gauge._omega_long_terms", rho_one):
            with pytest.raises(AssertionError, match=r"^rho = 1 outside \(0, 1\)$"):
                omega_red_long(1, 2, 1, 1, 1)

    def test_one_run_of_the_long_core(self):
        with mock.patch(
            "contactsurgery.gauge._omega_long_terms", wraps=_omega_long_terms
        ) as core:
            omega_red_long(2, 5, 7, -1, 3)
        assert core.call_count == 1

    def test_fields_on_the_default_sweep_grid(self):
        # g 1..3, n 2g..2g+4, alpha 1..15: every admissible point
        for g in range(1, 4):
            for n in range(2 * g, 2 * g + 5):
                for alpha in range(1, 16):
                    for point in admissible_points(g, n, alpha):
                        assert long_ingredients(*point) == _dedekind_reference(*point)


class TestOmegaRed:
    def test_long_anchor(self):
        # [DERIVED] 1/2 - 1/2 + 3*(1/3)*(2/3) - 1/3 + 0 + 0 + 1/3 + 0 = 2/3
        assert omega_red_long(1, 2, 1, 1, 1) == Fraction(2, 3)

    def test_closed_anchor(self):
        # [DERIVED] -(0 - 2 + 0)/12 + 1/2 = 2/3
        assert omega_red_closed(1, 2, 1, 1, 1) == Fraction(2, 3)
        # [DERIVED] -(0 - 2 + 0)/28 + 1/2 = 4/7
        assert omega_red_closed(1, 2, 3, 1, 1) == Fraction(4, 7)

    def test_both_signs_agree_at_lowest_framing(self):
        # at n = 2g the cross term vanishes, so r and sign enter squared
        assert omega_red_long(1, 2, 1, -1, -1) == Fraction(2, 3)
        assert omega_red_closed(1, 2, 1, -1, -1) == Fraction(2, 3)

    def test_central_value(self):
        # [TRIVIAL] r = 0 at n = 2g kills the numerator entirely
        assert omega_red_closed(1, 2, 2, 1, 0) == Fraction(1, 2)
        assert omega_red_closed(2, 4, 4, 1, 0) == Fraction(3, 2)

    def test_long_off_center(self):
        # [DERIVED] by hand: rho = 9/16, gamma = 1, S = 1/18, F = 25/48,
        # S_rho = -1/9, total 225/144 = 25/16; closed form
        # -(3 - 5 - 2)/64 + 3/2 gives the same
        assert omega_red_long(2, 5, 3, -1, 1) == Fraction(25, 16)
        assert omega_red_closed(2, 5, 3, -1, 1) == Fraction(25, 16)

    @settings(max_examples=120)
    @given(admissible_inputs())
    def test_routes_agree(self, params):
        assert omega_red_long(*params) == omega_red_closed(*params)

    def test_identity_on_grid(self):
        for g in (1, 2):
            for n in range(2 * g, 2 * g + 3):
                for alpha in range(1, 9):
                    for sign in (1, -1):
                        for r in admissible_rotations(alpha, sign):
                            assert omega_red_long(g, n, alpha, sign, r) == omega_red_closed(
                                g, n, alpha, sign, r
                            )


def _d3(g, n, alpha, sign, r):
    """d3_certificate at one point, from one value of each omega_red route."""
    point = (g, n, alpha, sign, r)
    return d3_certificate(g, omega_red_long(*point), omega_red_closed(*point))


class TestD3:
    def test_contact_values(self):
        assert _d3(1, 2, 1, 1, 1)["d3_contact"] == Fraction(1, 3)
        assert _d3(1, 2, 3, 1, 1)["d3_contact"] == Fraction(3, 7)

    def test_canonical_values(self):
        assert _d3(1, 2, 1, 1, 1)["d3_canonical"] == Fraction(-8, 3)
        assert _d3(1, 2, 3, 1, 1)["d3_canonical"] == Fraction(-18, 7)

    def test_canonical_at_zero_rotation(self):
        # [DERIVED] omega = (2g-1)/2 at r = 0, so d3_canonical = -(2g+3)/2
        assert _d3(1, 2, 2, 1, 0)["d3_canonical"] == Fraction(-5, 2)
        assert _d3(2, 4, 4, 1, 0)["d3_canonical"] == Fraction(-7, 2)

    def test_gap_law_on_grid(self):
        for g in (1, 2):
            for n in range(2 * g, 2 * g + 3):
                for alpha in range(1, 9):
                    for sign in (1, -1):
                        for r in admissible_rotations(alpha, sign):
                            verdict = _d3(g, n, alpha, sign, r)
                            assert verdict["d3_contact"] - verdict["d3_canonical"] == 2 * g + 1
                            assert verdict["gap"] == 2 * g + 1
                            assert verdict["gap_law"]

    @settings(max_examples=80)
    @given(admissible_inputs())
    def test_gap_law_random(self, params):
        g = params[0]
        verdict = _d3(*params)
        assert verdict["d3_contact"] - verdict["d3_canonical"] == 2 * g + 1
        assert verdict["gap"] == 2 * g + 1


class TestDegreeRepresentative:
    def test_anchor(self):
        # [DERIVED] coset 5/3 + (7/3) Z; 5/3 already sits in (2/3, 3]
        assert moy_check(1, 2, 3, 5).representative == Fraction(5, 3)

    def test_wraps_down(self):
        # [DERIVED] base 8/3 exceeds deg K + step nowhere, stays 8/3;
        # base k=12 reduces by one step to 5/3
        assert moy_check(1, 2, 3, 1).representative == Fraction(8, 3)
        assert moy_check(1, 2, 3, 12).representative == Fraction(5, 3)

    def test_rejects_bad_parameters(self):
        # the family rule of homology.check_admissible, with its messages
        with pytest.raises(ConditionViolation, match="^need g >= 1, got 0$"):
            moy_check(0, 0, 3, 1)
        with pytest.raises(ConditionViolation, match="^need n >= 2g, got n=1, g=1$"):
            moy_check(1, 1, 3, 1)
        with pytest.raises(ConditionViolation, match="^need alpha >= 1, got 0$"):
            moy_check(1, 2, 0, 1)

    @given(
        st.integers(1, 3),
        st.integers(0, 3),
        st.integers(1, 12),
        st.integers(-40, 40),
    )
    def test_representative_lands_in_interval(self, g, extra, alpha, k):
        n = 2 * g + extra
        rep = moy_check(g, n, alpha, k).representative
        deg_k = Fraction((2 * g - 1) * alpha - 1, alpha)
        step = n + Fraction(1, alpha)
        assert deg_k < rep <= deg_k + step
        assert ((rep - Fraction(k, alpha)) / step).denominator == 1


class TestMoyCheck:
    def test_clean_verdict(self):
        # [DERIVED] window [0, 2/3] misses the coset of 5/3 entirely
        verdict = moy_check(1, 2, 3, 5)
        assert verdict == MoyVerdict(True, True, (), Fraction(5, 3))

    def test_half_degree_member(self):
        # [DERIVED] deg K / 2 = 1/3 lies in the coset of k = 1, so only
        # the reducible locus survives but a Dirac kernel may jump
        verdict = moy_check(1, 2, 3, 1)
        assert verdict.reducibles_only
        assert not verdict.dirac_kernels_trivial
        assert verdict.witness_degrees == (Fraction(1, 3),)

    def test_irreducible_window_member(self):
        # [DERIVED] 1/5 sits in [0, 4/5] and differs from deg K / 2 = 2/5
        verdict = moy_check(1, 2, 5, 1)
        assert not verdict.reducibles_only
        assert verdict.dirac_kernels_trivial
        assert verdict.witness_degrees == (Fraction(1, 5),)

    def test_even_alpha_kernels_unconditional(self):
        for k in range(5):
            assert moy_check(1, 2, 2, k).dirac_kernels_trivial

    def test_coset_invariance(self):
        # degrees depend on k only through k mod (n*alpha + 1)
        for k in range(7):
            assert moy_check(1, 2, 3, k) == moy_check(1, 2, 3, k + 7)
            assert moy_check(1, 3, 2, k) == moy_check(1, 3, 2, k + 7)

    def test_admissible_offsets_pass(self):
        # the offsets realized by admissible rotations always give a
        # clean verdict together with the strict degree sandwich
        for g in (1, 2):
            for alpha in range(1, 9):
                for sign in (1, -1):
                    for r in admissible_rotations(alpha, sign):
                        k = spinc_offset(g, 2 * g, alpha, sign, r).offset
                        verdict = moy_check(g, 2 * g, alpha, k)
                        assert verdict.reducibles_only
                        assert verdict.dirac_kernels_trivial
                        rep = verdict.representative
                        deg_k = Fraction((2 * g - 1) * alpha - 1, alpha)
                        assert deg_k < rep < 2 * g + Fraction(1, alpha)

    @pytest.mark.parametrize(
        "args", [(1, 2, 3, Fraction(1, 2)), (1, 2, 3, 1.0), (1.0, 2, 3, 1), (Fraction(1), 2, 3, 1)]
    )
    def test_arguments_must_be_exact_integers(self, args):
        # moy_check(1, 2, 3, 1/2) once returned representative 5/2
        with pytest.raises(TypeError):
            moy_check(*args)


class TestFillabilityVerdict:
    def test_anchor(self):
        verdict = _d3(1, 2, 1, 1, 1)
        assert verdict == {
            "tight": True,
            "d3_contact": Fraction(1, 3),
            "d3_canonical": Fraction(-8, 3),
            "gap": 3,
            "gap_law": True,
            "fillable": "no (certified)",
        }

    def test_higher_genus(self):
        verdict = _d3(2, 5, 3, -1, 1)
        assert verdict["d3_contact"] == Fraction(23, 16)
        assert verdict["d3_canonical"] == Fraction(-57, 16)
        assert verdict["gap"] == 5
        assert verdict["gap_law"]
        assert verdict["fillable"] == "no (certified)"


class TestD3Certificate:
    def test_matches_single_route_invariants(self):
        # d3 of the contact structure from the closed route alone, d3 of
        # the canonical field from the long route alone
        params = (2, 5, 3, -1, 1)
        verdict = _d3(*params)
        assert verdict["d3_contact"] == 3 - omega_red_closed(*params)
        assert verdict["d3_canonical"] == -2 - omega_red_long(*params)
        assert verdict["gap"] == verdict["d3_contact"] - verdict["d3_canonical"]

    def test_gap_follows_route_difference(self):
        # gap = 2g + 1 + (omega_long - omega_closed)
        verdict = d3_certificate(1, Fraction(2, 3), Fraction(2, 3) + Fraction(1, 7))
        assert verdict["gap"] == 3 - Fraction(1, 7)
        assert not verdict["gap_law"]

    def test_zero_gap_is_not_certified(self):
        # omega_closed - omega_long = 2g + 1 puts d3_contact on d3_canonical
        g, omega_long = 2, Fraction(5, 16)
        verdict = d3_certificate(g, omega_long, omega_long + 2 * g + 1)
        assert verdict["d3_contact"] == verdict["d3_canonical"] == Fraction(-37, 16)
        assert verdict["gap"] == 0
        assert verdict["gap_law"] is False
        assert verdict["fillable"] == "conjectured no"

    @pytest.mark.parametrize(
        "args", [(1, Fraction(1), 2.5), (1, 0.5, Fraction(1)), (1.0, Fraction(1), Fraction(2))]
    )
    def test_arguments_must_be_exact(self, args):
        # d3_certificate(1, 1, 2.5) once returned the float d3_contact -1.5
        with pytest.raises(TypeError):
            d3_certificate(*args)


# Sizes well beyond the toy grid: g <= 40 (50 for the integer cores),
# n <= 2g + 50, alpha <= 10^6.


@st.composite
def large_admissible_inputs(draw, max_g=40):
    g = draw(st.integers(1, max_g))
    n = 2 * g + draw(st.integers(0, 50))
    alpha = draw(st.integers(1, 10**6))
    sign = draw(st.sampled_from((1, -1)))
    # the i-th admissible rotation: 2 - alpha + 2i (sign +1), -alpha + 2i (sign -1)
    i = draw(st.integers(0, alpha - 1))
    r = (2 if sign == 1 else 0) - alpha + 2 * i
    return g, n, alpha, sign, r


@st.composite
def inadmissible_inputs(draw):
    g, n, alpha, sign, r = draw(large_admissible_inputs())
    kind = draw(st.sampled_from(("g", "n", "alpha", "sign", "parity", "range")))
    if kind == "g":
        g = draw(st.integers(-5, 0))
    elif kind == "n":
        n = 2 * g - draw(st.integers(1, 50))
    elif kind == "alpha":
        alpha = draw(st.integers(-5, 0))
    elif kind == "sign":
        sign = draw(st.sampled_from((0, 2, -2)))
    elif kind == "parity":
        r += 1
    else:
        # one step of 2 past either end of the admissible rotations
        r = draw(st.sampled_from((-alpha, alpha + 2) if sign == 1 else (-alpha - 2, alpha)))
    return g, n, alpha, sign, r


def _dedekind_reference(g, n, alpha, sign, r):
    """(l, rho, gamma, S, S_rho, F_rho) from their definitions, in Fractions."""
    l = n + Fraction(1, alpha)
    rho = Fraction(alpha * (n - sign * (n - 2 * g)) - r + 1, 2 * n * alpha + 2)
    gamma = Fraction(r + alpha - 2, 2)
    s = Fraction(alpha * alpha + 2, 12 * alpha) - Fraction(1, 4)
    f_rho = (gamma + rho) / alpha
    s_rho = (
        alpha * alpha - 3 * alpha * (1 + 2 * gamma) + 2 * (1 + 3 * gamma + 3 * gamma * gamma)
    ) / Fraction(12 * alpha)
    return {"l": l, "rho": rho, "gamma": gamma, "S": s, "S_rho": s_rho, "F_rho": f_rho}


def _omega_long_reference(g, n, alpha, sign, r):
    """The Dedekind route assembled term by term in Fraction arithmetic."""
    c = _dedekind_reference(g, n, alpha, sign, r)
    l, rho = c["l"], c["rho"]
    return (
        Fraction(2 * g - 1, 2)
        - (l - 1) / 4
        + l * rho * (1 - rho)
        - rho
        + Fraction(1 - alpha, 2 * alpha) * (1 - 2 * rho)
        + c["S"]
        + c["F_rho"]
        + 2 * c["S_rho"]
    )


def _moy_reference(g, n, alpha, k):
    """moy_check, with its representative, by Fraction coset arithmetic."""
    deg_k = Fraction((2 * g - 1) * alpha - 1, alpha)
    step = n + Fraction(1, alpha)
    base = Fraction(k, alpha)
    representative = base + math.floor((deg_k + step - base) / step) * step
    candidate = representative - step
    window = (candidate,) if 0 <= candidate <= deg_k else ()
    half = deg_k / 2
    half_in_coset = ((half - base) / step).denominator == 1
    return MoyVerdict(
        reducibles_only=all(x == half for x in window),
        dirac_kernels_trivial=alpha % 2 == 0 or not half_in_coset,
        witness_degrees=window,
        representative=representative,
    )


class TestLargeInputs:
    @settings(max_examples=300)
    @given(large_admissible_inputs())
    def test_dedekind_context_matches_its_definitions(self, params):
        assert long_ingredients(*params) == _dedekind_reference(*params)

    @settings(max_examples=300)
    @given(large_admissible_inputs())
    def test_long_route_matches_fraction_assembly(self, params):
        value = omega_red_long(*params)
        assert value == _omega_long_reference(*params)
        assert value == omega_red_closed(*params)

    @settings(max_examples=300)
    @given(
        large_admissible_inputs(),
        st.just(Fraction(0)) | st.fractions(-(10**6), 10**6, max_denominator=10**6),
        st.sampled_from((0, "same", "zero gap"))
        | st.fractions(-(10**6), 10**6, max_denominator=10**6),
    )
    def test_d3_certificate_follows_skewed_routes(self, params, long_skew, closed_skew):
        # the routes as computed, or pulled apart by independent skews
        g = params[0]
        if closed_skew == "same":
            closed_skew = long_skew
        elif closed_skew == "zero gap":
            closed_skew = long_skew + 2 * g + 1  # d3_contact == d3_canonical
        long_form = omega_red_long(*params) + long_skew
        closed_form = omega_red_closed(*params) + closed_skew
        verdict = d3_certificate(g, long_form, closed_form)
        assert verdict["d3_contact"] == (2 * g - 1) - closed_form
        assert verdict["d3_canonical"] == -2 - long_form
        assert all(type(verdict[key]) is Fraction for key in ("d3_contact", "d3_canonical", "gap"))
        # the algebra by which the sweep reads the gap law off the omega identity
        assert verdict["gap"] - (2 * g + 1) == long_form - closed_form
        assert verdict["gap_law"] is (long_skew == closed_skew)
        certified = closed_skew - long_skew != 2 * g + 1
        assert (verdict["gap"] != 0) is certified
        assert verdict["fillable"] == ("no (certified)" if certified else "conjectured no")

    @settings(max_examples=300)
    @given(
        st.integers(1, 40),
        st.integers(0, 50),
        st.integers(1, 10**6),
        st.integers(-3, 3),
        st.data(),
    )
    def test_degree_coset_matches_fraction_reference(self, g, extra, alpha, periods, data):
        n = 2 * g + extra
        period = n * alpha + 1
        # k over several periods of the coset, negative ones included
        k = periods * period + data.draw(st.integers(0, period - 1))
        assert moy_check(g, n, alpha, k) == _moy_reference(g, n, alpha, k)

    @given(
        st.integers(1, 40),
        st.integers(0, 50),
        st.integers(1, 10**6),
        st.integers(-10, 10),
        st.sampled_from(("half", "half step away", "next")),
    )
    def test_near_half_degree_at_large_alpha(self, g, extra, alpha, j, where):
        # k puts deg K / 2 in the coset, half a coset step away from it, or
        # next to it; the middle case needs an even step (n, alpha odd)
        n = 2 * g + extra
        deg_k = (2 * g - 1) * alpha - 1
        step = n * alpha + 1
        shift = {"half": 0, "half step away": step // 2, "next": 1}[where]
        k = deg_k // 2 + shift + j * step
        assert moy_check(g, n, alpha, k) == _moy_reference(g, n, alpha, k)

    @settings(max_examples=300)
    @given(large_admissible_inputs(max_g=50))
    def test_omega_cores_are_the_routes_unreduced(self, params):
        _, n, alpha, _, _ = params
        long_num, long_den = at_point(_omega_long_ratio, params)
        closed_num, closed_den = at_point(_omega_closed_ratio, params)
        assert Fraction(long_num, long_den) == omega_red_long(*params)
        assert Fraction(closed_num, closed_den) == omega_red_closed(*params)
        assert long_den == 24 * alpha * (2 * n * alpha + 2) ** 2
        assert closed_den == 4 * (n * alpha + 1)

    @settings(max_examples=300)
    @given(large_admissible_inputs(max_g=50))
    def test_moy_and_offset_cores_match_the_guarded_routes(self, params):
        g, n, alpha, _, _ = params
        k = at_point(_spinc_offset, params)
        assert k == spinc_offset(*params).offset
        ((reducibles_only, dirac_kernels_trivial, candidate, representative),) = _moy_units(
            g, n, alpha, (k,)
        )
        verdict = moy_check(g, n, alpha, k)
        assert verdict.reducibles_only == reducibles_only
        assert verdict.dirac_kernels_trivial == dirac_kernels_trivial
        assert verdict.representative == Fraction(representative, alpha)
        assert verdict.witness_degrees in ((), (Fraction(candidate, alpha),))

    @settings(max_examples=300)
    @given(large_admissible_inputs(max_g=50))
    def test_routes_agree_is_the_identity_and_the_gap_law(self, params):
        long_form, closed_form = omega_red_long(*params), omega_red_closed(*params)
        assert long_form == closed_form
        assert at_point(_omega_routes_agree, params) is True
        assert d3_certificate(params[0], long_form, closed_form)["gap_law"] is True

    @given(inadmissible_inputs())
    def test_inadmissible_inputs_raise(self, params):
        for route in (omega_red_long, omega_red_closed):
            with pytest.raises(ConditionViolation):
                route(*params)

    @given(large_admissible_inputs(), st.booleans(), st.integers(0, 10**6))
    def test_rho_guard(self, params, below, distance):
        # rho lies in (0, 1) on every admissible input, so the guard is
        # reached only with the admissibility check switched off
        g, n, alpha, sign, _ = params
        q = 2 * n * alpha + 2
        rho_num = -distance if below else q + distance
        r = alpha * (n - sign * (n - 2 * g)) + 1 - rho_num
        with mock.patch("contactsurgery.gauge.check_admissible", lambda *args: None):
            with pytest.raises(AssertionError, match="outside"):
                omega_red_long(g, n, alpha, sign, r)


class TestMoyOffsetInterval:
    """At n = 2g every Spin^c offset lies in [m - alpha - 1, m - 1], m = 2g alpha + 1.

    The ends are reached at sign -1, r = -alpha and at sign +1, r = alpha.
    With deg K = m - alpha - 2 in units of 1/alpha, an offset there is its
    own representative, the coset member below it is negative, and
    deg K - 2k lies in (-2m, 0): the MOY verdict and the sandwich hold.
    """

    @settings(max_examples=300)
    @given(
        st.integers(1, 50),
        st.integers(1, 10**4),
        st.sampled_from((1, -1)),
        st.integers(0, 10**4 - 1),
    )
    @example(g=50, alpha=10**4, sign=1, i=5000)
    @example(g=1, alpha=1, sign=-1, i=0)
    def test_ends_and_interior(self, g, alpha, sign, i):
        m = 2 * g * alpha + 1
        low_end, high_end = (g, 2 * g, alpha, -1, -alpha), (g, 2 * g, alpha, 1, alpha)
        assert at_point(_spinc_offset, low_end) == m - alpha - 1
        assert at_point(_spinc_offset, high_end) == m - 1
        # the (i mod alpha)-th admissible rotation: 2 - alpha + 2i (sign +1), -alpha + 2i (sign -1)
        r = (2 if sign == 1 else 0) - alpha + 2 * (i % alpha)
        interior = (g, 2 * g, alpha, sign, r)
        for point in (low_end, high_end, interior):
            k = at_point(_spinc_offset, point)
            assert m - alpha - 1 <= k <= m - 1
            assert at_point(_moy_holds, point)
            # the guarded route, in Fractions, gives the same verdict
            verdict = moy_check(g, 2 * g, alpha, k)
            assert verdict.reducibles_only and verdict.dirac_kernels_trivial
            deg_k = Fraction((2 * g - 1) * alpha - 1, alpha)
            assert deg_k < verdict.representative < 2 * g + Fraction(1, alpha)


class _Poly:
    """A sparse integer polynomial in (g, n, alpha, r): exponent tuple -> coefficient."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def var(cls, i):
        return cls({tuple(int(j == i) for j in range(4)): 1})

    @staticmethod
    def coerce(x):
        return x if isinstance(x, _Poly) else _Poly({(0, 0, 0, 0): x})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in _Poly.coerce(other).terms.items():
            terms[e] = terms.get(e, 0) + c
        return _Poly(terms)

    def __neg__(self):
        return _Poly({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -_Poly.coerce(other)

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in _Poly.coerce(other).terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                terms[e] = terms.get(e, 0) + c1 * c2
        return _Poly(terms)

    def __pow__(self, k):
        result = _Poly.coerce(1)
        for _ in range(k):
            result = result * self
        return result

    __radd__, __rmul__ = __add__, __mul__


def _omega_closed_without_sign(g, n, alpha, sign, rs):
    """_omega_closed_ratio with its sign * 2 (n - 2g) r term dropped."""
    m = n * alpha + 1
    for r in rs:
        numerator = (n - 2 * g) ** 2 * alpha - r * r * n
        yield 2 * (2 * g - 1) * m - numerator, 4 * m


class TestOmegaIdentityOnPolynomials:
    """The omega identity as a polynomial identity in (g, n, alpha, r).

    _omega_long_terms applies only +, - and * to its arguments, so it
    runs on symbols, here on the one-r block (r,); the cross-multiply
    with the closed core is then the zero polynomial for each sign, with
    no admissibility assumed.
    """

    def _cross(self, closed, sign):
        g, n, alpha, r = map(_Poly.var, range(4))
        q, *_, long_num = at_point(_omega_long_terms, (g, n, alpha, sign, r))
        closed_num, closed_den = at_point(closed, (g, n, alpha, sign, r))
        return long_num * closed_den - closed_num * (24 * alpha * q * q)

    @pytest.mark.parametrize("sign", (1, -1))
    def test_cross_multiply_vanishes(self, sign):
        assert self._cross(_omega_closed_ratio, sign).terms == {}

    @pytest.mark.parametrize("sign", (1, -1))
    def test_dropping_the_sign_term_breaks_it(self, sign):
        assert self._cross(_omega_closed_without_sign, sign).terms != {}

    @pytest.mark.parametrize("sign", (1, -1))
    def test_a_block_is_its_points(self, sign):
        # the r-free terms are computed once per block; each r's tuple is
        # still the one-point tuple at that r, as polynomials
        g, n, alpha, r = map(_Poly.var, range(4))
        rs = (r, r + 2, r * 3 - 1)
        block = list(_omega_long_terms(g, n, alpha, sign, rs))
        singles = [at_point(_omega_long_terms, (g, n, alpha, sign, x)) for x in rs]
        assert len(block) == len(singles) == 3
        for got, want in zip(block, singles):
            assert [p.terms for p in map(_Poly.coerce, got)] == [
                p.terms for p in map(_Poly.coerce, want)
            ]

    def test_symbolic_terms_match_integer_ones(self):
        # evaluating each symbolic output at a point gives the integer helper's value
        point = (2, 5, 3, -1, 1)
        g, n, alpha, r = map(_Poly.var, range(4))
        symbolic = at_point(_omega_long_terms, (g, n, alpha, point[3], r))
        for poly, value in zip(symbolic, at_point(_omega_long_terms, point)):
            at = sum(
                c * point[0] ** e[0] * point[1] ** e[1] * point[2] ** e[2] * point[4] ** e[3]
                for e, c in poly.terms.items()
            )
            assert at == value
