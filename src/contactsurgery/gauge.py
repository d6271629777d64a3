"""Reducibility criteria, eta-type correction terms, and d3 certificates.

Everything here concerns the family M(g, n; (alpha, 1)) with n >= 2g >= 2
and a contact structure xi^sign_r labelled by an admissible rotation
parameter r (see `homology.check_admissible`).

Two independent formulas compute the reducible-solution correction term
omega_red: a long form assembled term by term from Dedekind-type sums
S(1, alpha), S_rho, F_rho and the fractional part data (l, rho, gamma),
and a closed form in (g, n, alpha, r) alone.  Their exact agreement on
the whole admissible grid is the central self-check of the package.
Each route's arithmetic is a guard-free integer core,
_omega_long_ratio over 24 alpha Q^2 and _omega_closed_ratio over
4 (n alpha + 1), yielding the unreduced (numerator, denominator).
Every core here takes a whole (g, n, alpha, sign) block and an
iterable of r: it computes the terms that do not depend on r once,
then yields one exact result per r, each the full formula at that
point.  omega_red_long and omega_red_closed are check_admissible plus
one Fraction built from the core run on their one r.  The long route's
arithmetic lives in one helper, _omega_long_terms, which applies only
+, - and * and yields the ingredients' numerators with the summed one;
_omega_long_ratio reads it and asserts rho at every r.  The long form
is never reduced algebraically into the closed one, so the check stays
a comparison of two routes; tests/test_routes.py checks on the call
graph that omega_red_long and omega_red_closed share no callee but
check_admissible.

d3_certificate takes one value of each route and computes, in Fraction
arithmetic, the d3 of the contact structure from the closed one,
(2g - 1) - omega_closed, and the d3 of the canonical plane field of its
Spin^c structure from the long one, -2 - omega_long.  Its docstring
holds the algebra of the gap law: the gap is exactly 2g + 1 precisely
when the routes agree.  A nonzero gap certifies that the contact
structure is not homotopic to that canonical field: the fillability
obstruction.

moy_check implements the arithmetic criteria on orbifold line bundle
degrees: the moduli space contains only reducible solutions when no
degree in the coset k/alpha + (n + 1/alpha) Z lands in [0, deg K] away
from deg K / 2, and all Dirac kernels vanish when alpha is even or
deg K / 2 avoids the coset, and it returns the coset's canonical
representative with the verdict.  Degrees are handled as integers in
units of 1/alpha (deg K = 2g - 2 + (alpha - 1)/alpha for the one fiber),
which turns the coset and half-degree tests into congruences; that
arithmetic is the guard-free core _moy_units, which takes the offsets
of one (g, n, alpha) and computes deg K and the coset step once.

The cores skip check_admissible, so they are for callers whose points
are admissible by construction, such as cli.run_sweep over the
(sign, range of r) blocks of homology.admissible_blocks.  That caller
reads two verdict generators per block and no integer format:
_omega_routes_agree, one cross-multiply of the two routes' pairs per r,
which is the omega identity and, by d3_certificate's algebra, the gap
law as well; and _moy_holds, the MOY verdict at each r's Spin^c offset
with the sandwich deg K < representative < 2g + 1/alpha, in units of
1/alpha.  The long core keeps its assertion that rho lies in (0, 1) at
every r: admissibility implies it by arithmetic, and it stays checked,
not assumed.
"""

from __future__ import annotations

import operator
from fractions import Fraction

from ._record import Record
from .contfrac import _exact
from .homology import _spinc_offset, check_admissible

__all__ = [
    "MoyVerdict",
    "omega_red_long",
    "omega_red_closed",
    "d3_certificate",
    "moy_check",
]


class MoyVerdict(Record):
    """Outcome of the reducibility and Dirac-kernel criteria.

    Fields reducibles_only, dirac_kernels_trivial, witness_degrees,
    representative.

    witness_degrees lists the members of the degree coset that land in
    the window [0, deg K]; reducibles_only holds exactly when none of
    them differs from deg K / 2.  representative is the coset's
    canonical member: the largest one <= deg K + n + 1/alpha, which at
    central framing n = 2g satisfies deg K < representative < 2g + 1/alpha.
    """

    __slots__ = ("reducibles_only", "dirac_kernels_trivial", "witness_degrees", "representative")


def _omega_long_terms(g, n, alpha, sign, rs):
    """The long route's ingredients and numerator per r in rs, unguarded and ring-only.

    Yields (Q, R, 2 gamma, S', F', S_rho', numerator) for each r of the
    (g, n, alpha, sign) block, with Q = 2n alpha + 2, rho = R/Q,
    S = S'/(12 alpha), F_rho = F'/(2 alpha Q), S_rho = S_rho'/(24 alpha)
    and omega_red_long = numerator / (24 alpha Q^2).  Q, Q^2, S' and
    the r-free part of the Q^2 bracket are computed once per block.  It
    applies only +, - and * to its arguments, so it runs on any ring,
    symbols included.
    """
    q = 2 * n * alpha + 2
    q2, q12 = q * q, 12 * q
    rho_free = alpha * (n - sign * (n - 2 * g)) + 1  # R = rho_free - r
    gamma_free = alpha - 2  # 2 gamma = r + gamma_free
    s_num = alpha * alpha - 3 * alpha + 2
    # S_rho' = 2 alpha^2 - 6 alpha (1 + 2 gamma) + 4 + 6 (2 gamma) + 3 (2 gamma)^2,
    # by powers of 2 gamma
    s_rho_free, s_rho_linear = 2 * alpha * alpha - 6 * alpha + 4, 6 - 6 * alpha
    # Q^2 times the terms over 24 alpha, but for 2 S_rho
    bracket_free = (
        12 * alpha * (2 * g - 1)  # (2g-1)/2
        - 3 * (q - 2 * alpha)  # -(l-1)/4
        + 2 * s_num  # S
    )
    two_alpha, one_minus_alpha = 2 * alpha, 1 - alpha
    for r in rs:
        rho_num = rho_free - r
        gamma2 = r + gamma_free
        f_rho_num = gamma2 * q + 2 * rho_num
        s_rho_num = s_rho_free + (s_rho_linear + 3 * gamma2) * gamma2
        # plus 2 S_rho, and 12 Q times the terms over 2 alpha Q
        numerator = q2 * (bracket_free + 2 * s_rho_num) + q12 * (
            rho_num * (q - rho_num)  # l rho (1-rho)
            - two_alpha * rho_num  # -rho
            + one_minus_alpha * (q - 2 * rho_num)  # (1-alpha)/(2 alpha) (1-2 rho)
            + f_rho_num  # F_rho
        )
        yield q, rho_num, gamma2, s_num, f_rho_num, s_rho_num, numerator


def _omega_long_ratio(g: int, n: int, alpha: int, sign: int, rs):
    """omega_red_long per r in rs as an unreduced (numerator, 24 alpha Q^2), unguarded.

    The arithmetic is _omega_long_terms'.  The caller has checked
    admissibility; rho's place in (0, 1) is still asserted at every r,
    since it holds on the admissible range by arithmetic, not by that
    check.
    """
    denominator = 0  # 24 alpha Q^2, positive, built at the block's first r
    for q, rho_num, _, _, _, _, numerator in _omega_long_terms(g, n, alpha, sign, rs):
        if not (0 < rho_num < q):
            raise AssertionError(f"rho = {Fraction(rho_num, q)} outside (0, 1)")
        denominator = denominator or 24 * alpha * q * q
        yield numerator, denominator


def omega_red_long(g: int, n: int, alpha: int, sign: int, r: int) -> Fraction:
    """The correction term via the Dedekind-sum route.

    (2g-1)/2 - (l-1)/4 + l rho (1-rho) - rho + (1-alpha)/(2 alpha) (1-2 rho)
    + S + F_rho + 2 S_rho, with l = n + 1/alpha,
    rho = (alpha*(n -+ (n-2g)) - r + 1) / (2n*alpha + 2) (upper sign for
    sign = +1), gamma = (r + alpha - 2)/2, S = (alpha^2 + 2)/(12 alpha) - 1/4,
    F_rho = (gamma + rho)/alpha and
    S_rho = (alpha^2 - 3 alpha (1 + 2 gamma) + 2 (1 + 3 gamma + 3 gamma^2))
    / (12 alpha).  The -(l-1)/4 term uses sign(l) = 1, valid since
    l = n + 1/alpha > 0, and rho always lands strictly inside (0, 1) on
    the admissible range.  Each term is put over the common denominator
    24 alpha Q^2, where Q = 2n alpha + 2, rho = R/Q and l = Q/(2 alpha),
    by _omega_long_terms, and one Fraction is built from the summed
    numerators: the block core run on the one r.
    """
    check_admissible(g, n, alpha, sign, r)
    (ratio,) = _omega_long_ratio(g, n, alpha, sign, (r,))
    return Fraction(*ratio)


def _omega_closed_ratio(g: int, n: int, alpha: int, sign: int, rs):
    """omega_red_closed per r in rs as an unreduced (numerator, 4 (n alpha + 1)), unguarded.

    The r-free parts of the numerator are computed once per block.
    """
    m = n * alpha + 1
    # the numerator below is (n-2g)^2 alpha - r^2 n + sign * 2 (n-2g) r
    free, linear = (n - 2 * g) ** 2 * alpha, sign * 2 * (n - 2 * g)
    fixed, denominator = 2 * (2 * g - 1) * m, 4 * m
    for r in rs:
        yield fixed - (free - r * r * n + linear * r), denominator


def omega_red_closed(g: int, n: int, alpha: int, sign: int, r: int) -> Fraction:
    """The correction term in closed form.

    -((n-2g)^2 alpha - r^2 n + sign * 2 (n-2g) r) / (4 (n alpha + 1))
    + (2g-1)/2, as one Fraction over 4 (n alpha + 1) from
    _omega_closed_ratio on the one r; must agree with omega_red_long
    exactly.
    """
    check_admissible(g, n, alpha, sign, r)
    (ratio,) = _omega_closed_ratio(g, n, alpha, sign, (r,))
    return Fraction(*ratio)


def _omega_routes_agree(g: int, n: int, alpha: int, sign: int, rs):
    """The omega identity per r of an admissible block, unguarded: one cross-multiply each.

    rs is read twice, once by each core, so it must be a collection
    such as the range of homology.admissible_blocks.  The denominators
    of both cores are positive, so comparing the unreduced pairs is
    exact; by the algebra in d3_certificate's docstring the same
    comparison is the gap law.
    """
    for (long_num, long_den), (closed_num, closed_den) in zip(
        _omega_long_ratio(g, n, alpha, sign, rs), _omega_closed_ratio(g, n, alpha, sign, rs)
    ):
        yield long_num * closed_den == closed_num * long_den


def _moy_units(g: int, n: int, alpha: int, ks):
    """moy_check's verdict per offset k in ks, in integer units of 1/alpha, unguarded.

    Yields (reducibles_only, dirac_kernels_trivial, candidate,
    representative): the two verdicts, the one coset member that can lie
    in the window [0, deg K], and the canonical representative.  deg K
    and the coset step are computed once per (g, n, alpha).
    """
    # in units of 1/alpha: deg K = (2g - 1) alpha - 1, coset step n alpha + 1
    deg_k = (2 * g - 1) * alpha - 1
    step = n * alpha + 1
    ceiling, double_step, alpha_even = deg_k + step, 2 * step, alpha % 2 == 0
    for k in ks:
        # the largest coset member <= deg K + step
        representative = k + (ceiling - k) // step * step
        # the window [0, deg K] is shorter than the coset step, so it holds
        # at most one coset member: the one just below the representative
        candidate = representative - step
        # deg K / 2 - k/alpha is a multiple of step/alpha iff 2 step | deg K - 2k
        half_in_coset = (deg_k - 2 * k) % double_step == 0
        yield (
            not 0 <= candidate <= deg_k or 2 * candidate == deg_k,
            alpha_even or not half_in_coset,
            candidate,
            representative,
        )


def _moy_holds(g: int, n: int, alpha: int, sign: int, rs):
    """The MOY verdict per r of an admissible block with n = 2g, unguarded.

    Both verdicts of _moy_units at each r's Spin^c offset, from
    homology._spinc_offset on the same block, and the sandwich
    deg K < representative < 2g + 1/alpha, in units of 1/alpha.
    """
    deg_k, top = (2 * g - 1) * alpha - 1, 2 * g * alpha + 1
    for reducibles_only, dirac_trivial, _, representative in _moy_units(
        g, n, alpha, _spinc_offset(g, n, alpha, sign, rs)
    ):
        yield reducibles_only and dirac_trivial and deg_k < representative < top


def moy_check(g: int, n: int, alpha: int, k: int) -> MoyVerdict:
    """Reducibility and Dirac-kernel criteria at Spin^c offset k.

    The candidate degrees are D = {k/alpha + j (n + 1/alpha) : j integer}.
    Irreducible solutions need a degree in [0, deg K] \\ {deg K / 2}, so
    reducibles_only holds when D meets the window at most in deg K / 2;
    Dirac operators have trivial kernels when alpha is even or when
    deg K / 2 is not in D at all.  Both are coset conditions, so the
    verdict does not depend on the representative chosen for k.  The
    representative returned is the largest member of D that is at most
    deg K + n + 1/alpha.  The arithmetic is _moy_units'.  Raises
    ConditionViolation, as check_admissible does, when g, n or alpha is
    out of range, and TypeError when one of g, n, alpha and k is not an
    integer.
    """
    k = operator.index(k)
    check_admissible(g, n, alpha, 1, alpha)
    ((reducibles_only, dirac_kernels_trivial, candidate, representative),) = _moy_units(
        g, n, alpha, (k,)
    )
    in_window = 0 <= candidate <= (2 * g - 1) * alpha - 1
    return MoyVerdict(
        reducibles_only=reducibles_only,
        dirac_kernels_trivial=dirac_kernels_trivial,
        witness_degrees=(Fraction(candidate, alpha),) if in_window else (),
        representative=Fraction(representative, alpha),
    )


def d3_certificate(g: int, omega_long: Fraction, omega_closed: Fraction) -> dict:
    """The d3 pair, its gap and the fillability verdict for xi^sign_r.

    Takes one value of each omega_red route at the same point, as
    Fractions: d3 of the contact structure is (2g - 1) - omega_closed;
    d3 of the canonical plane field of its Spin^c structure is
    -2 - omega_long.  Their gap, d3_contact - d3_canonical, expands to
    2g + 1 + (omega_long - omega_closed), so gap - (2g + 1) =
    omega_long - omega_closed: the gap is 2g + 1 exactly when the routes
    agree (gap_law).  That is why the sweep counts the gap law from the
    omega identity's one comparison, _omega_routes_agree.  Any nonzero
    gap rules out a filling whose canonical field would be homotopic to
    the contact structure, so fillable is 'no (certified)' whenever the
    gap is nonzero.  Tightness is established upstream for the family
    and reported as metadata.  g must be an integer and each omega an
    int or a Fraction (TypeError otherwise).
    """
    g, omega_long, omega_closed = operator.index(g), _exact(omega_long), _exact(omega_closed)
    d3_contact = (2 * g - 1) - omega_closed
    d3_canonical = -2 - omega_long
    gap = d3_contact - d3_canonical
    return {
        "tight": True,
        "d3_contact": d3_contact,
        "d3_canonical": d3_canonical,
        "gap": gap,
        "gap_law": gap == 2 * g + 1,
        "fillable": "no (certified)" if gap != 0 else "conjectured no",
    }
