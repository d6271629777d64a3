"""Seifert invariants, Rolfsen twists, normal form and the coefficient dictionary.

A Seifert fibered 3-manifold over a genus-g surface is recorded as
(g, n; (alpha_1, beta_1), ..., (alpha_k, beta_k)): central Euler framing
n and one -alpha_i/beta_i surgery per exceptional fiber.  The tuple is in
normal form when alpha_i > beta_i >= 1 for every i.  A Rolfsen twist
trades (alpha, beta) for (alpha, beta + alpha) while dropping n by one,
so the orbifold Euler invariant

    e = n + sum beta_i / alpha_i

never moves; it is the oracle every twist-based operation is checked
against.

The same module hosts the dictionary between normal-form invariants with
n >= 2g and the contact surgery coefficients r_1, ..., r_k of the
surgered-diagram family (1/2 <= r_1 < 1, r_i < 0 for i >= 2), and the
genus window d_range of the lattice obstruction.  Orbifold line bundle
degrees of the one-fiber family live in `gauge.moy_check`, which keeps
deg K = 2g - 2 + (alpha - 1)/alpha in integer units of 1/alpha.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from ._record import Record
from .contfrac import _exact
from .errors import ConditionViolation

__all__ = [
    "SeifertInvariants",
    "rolfsen_twist",
    "normalize",
    "coefficients_from_seifert",
    "seifert_from_coefficients",
    "d_range",
]


class SeifertInvariants(Record):
    """The tuple (g, n; (alpha_1, beta_1), ..., (alpha_k, beta_k)).

    Each alpha_i must be positive and each pair coprime; beta_i = 0 is
    tolerated with any alpha_i because a -alpha/0 surgery is trivial.
    """

    __slots__ = ("g", "n", "pairs")

    def __init__(self, g: int, n: int, pairs: tuple[tuple[int, int], ...] = ()) -> None:
        pairs = tuple((operator.index(a), operator.index(b)) for a, b in pairs)
        g, n = operator.index(g), operator.index(n)
        if g < 0:
            raise ConditionViolation(f"genus must be >= 0, got {g}")
        for alpha, beta in pairs:
            if alpha <= 0:
                raise ConditionViolation(f"multiplicity must be positive, got {alpha}")
            if beta != 0 and math.gcd(alpha, beta) != 1:
                raise ConditionViolation(
                    f"surgery coefficient -{alpha}/{beta} is not in lowest terms"
                )
        object.__setattr__(self, "g", g)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "pairs", pairs)

    @property
    def e_invariant(self) -> Fraction:
        """n + sum beta_i/alpha_i, the quantity preserved by Rolfsen twists."""
        return self.n + sum((Fraction(b, a) for a, b in self.pairs), Fraction(0))


def rolfsen_twist(inv: SeifertInvariants, i: int, direction: int) -> SeifertInvariants:
    """Twist pair i: direction +1 sends (alpha, beta) to (alpha, beta + alpha)
    and n to n - 1; direction -1 is the inverse.  e_invariant is unchanged.
    """
    if direction not in (1, -1):
        raise ConditionViolation("direction must be +1 or -1")
    alpha, beta = inv.pairs[i]
    pairs = list(inv.pairs)
    pairs[i] = (alpha, beta + direction * alpha)
    return SeifertInvariants(inv.g, inv.n - direction, tuple(pairs))


def normalize(inv: SeifertInvariants) -> SeifertInvariants:
    """Twist every pair into 1 <= beta_i < alpha_i, dropping trivial pairs.

    A pair whose beta is a multiple of alpha describes a trivial surgery
    after twisting; it is removed and its integer part absorbed into n.
    The e_invariant of the result equals the input's exactly.
    """
    n = inv.n
    pairs = []
    for alpha, beta in inv.pairs:
        twists, residue = divmod(beta, alpha)
        n += twists
        if residue != 0:
            pairs.append((alpha, residue))
    return SeifertInvariants(inv.g, n, tuple(pairs))


def coefficients_from_seifert(inv: SeifertInvariants) -> list[Fraction]:
    """Contact surgery coefficients (r_1, ..., r_k) of a normal-form tuple.

    Requires g >= 1 and n >= 2g.  The first pair (beta_1 = 0 allowed,
    encoded by an empty pair list as (1, 0)) maps to

        r_1 = ((n - 2g + 1) alpha_1 + beta_1) / ((n - 2g + 2) alpha_1 + beta_1)

    and every later pair to r_i = (beta_i - alpha_i) / beta_i.  Outputs
    always satisfy 1/2 <= r_1 < 1 and r_i < 0.
    """
    if inv.g < 1:
        raise ConditionViolation(f"coefficient dictionary needs g >= 1, got g={inv.g}")
    if inv.n < 2 * inv.g:
        raise ConditionViolation(
            f"coefficient dictionary needs n >= 2g, got n={inv.n}, g={inv.g}"
        )
    pairs = inv.pairs if inv.pairs else ((1, 0),)
    a1, b1 = pairs[0]
    # weak form alpha >= beta for the head: coprimality limits the extra
    # case to (1, 1), the once-twisted image of a bare central framing
    if not (a1 >= b1 >= 0):
        raise ConditionViolation(f"first pair must have alpha >= beta >= 0, got {pairs[0]}")
    for alpha, beta in pairs[1:]:
        if not (alpha > beta >= 1):
            raise ConditionViolation(f"pair ({alpha},{beta}) is not in normal form")
    m = inv.n - 2 * inv.g
    rs = [Fraction((m + 1) * a1 + b1, (m + 2) * a1 + b1)]
    rs.extend(Fraction(beta - alpha, beta) for alpha, beta in pairs[1:])
    return rs


def seifert_from_coefficients(g: int, rs: list[Fraction]) -> SeifertInvariants:
    """Invert the coefficient dictionary.

    Given g >= 1 and coefficients with 1/2 <= r_1 < 1 and r_i < 0, recover
    the unique (g, n; pairs) with n >= 2g whose coefficients they are.  A
    first pair with beta_1 = 0 (a trivial surgery) is dropped.  A
    coefficient that is not an int or a Fraction (a float, say) raises
    TypeError.
    """
    if g < 1:
        raise ConditionViolation(f"need g >= 1, got {g}")
    if not rs:
        raise ConditionViolation("need at least one coefficient")
    rs = [_exact(r) for r in rs]
    r1 = rs[0]
    if not (Fraction(1, 2) <= r1 < 1):
        raise ConditionViolation(f"first coefficient must lie in [1/2, 1), got {r1}")
    for r in rs[1:]:
        if r >= 0:
            raise ConditionViolation(f"later coefficients must be negative, got {r}")
    # r1 = ((m+1)a + b)/((m+2)a + b) in lowest terms forces a = q - p.
    p, q = r1.numerator, r1.denominator
    a1 = q - p
    m, b1 = divmod(p, a1)
    m -= 1
    n = m + 2 * g
    pairs = [] if b1 == 0 else [(a1, b1)]
    for r in rs[1:]:
        # r = (b - a)/b in lowest terms forces b = denominator.
        beta = r.denominator
        alpha = beta - r.numerator
        pairs.append((alpha, beta))
    return SeifertInvariants(g, n, tuple(pairs))


def d_range(g: int) -> int | None:
    """The unique positive d with d(d+1) <= 2g <= d(d+2) - 1, if any.

    Consecutive windows [d(d+1), d(d+2)-1] are disjoint, so at most one d
    qualifies; even genus values can fall in the gaps between them.  Only
    the largest d with d(d+1) <= 2g can qualify, and (2d + 1)^2 <= 8g + 1
    gives it with one integer square root, whatever the size of g.
    """
    if g < 1:
        raise ConditionViolation(f"need g >= 1, got {g}")
    d = (math.isqrt(8 * g + 1) - 1) // 2
    return d if 2 * g <= d * (d + 2) - 1 else None
