"""Negative continued fractions over exact rationals.

Every negative rational r has a unique expansion

    r = c0 - 1/(c1 - 1/(... - 1/cm))

with c0 <= -1 and ci <= -2 for i >= 1.  These expansions drive the
conversion of a rational surgery coefficient into a chain of integer
framings: entry c0 corresponds to a knot that gets -c0 - 1 stabilizations
and every later entry ci to a pushoff with -ci - 2 stabilizations.

All arithmetic is exact.  Rationals cross the API as `fractions.Fraction`;
inside, both directions run a Euclid-style loop on an integer pair
(p, q) of arbitrary precision, so no coefficient can overflow or lose
precision.

A surgery chain is bounded: an expansion, and the run of (+1)-pushoffs
in `legendrian`, may have at most _CHAIN_LIMIT = 3000 entries.  The
length of -1/q is q, so without a bound one coefficient with a large
denominator would build a chain (and a document) linear in it; above
the bound both raise ConditionViolation before building anything large.
"""

from __future__ import annotations

import numbers
import operator
from fractions import Fraction

from ._record import Record
from .errors import ConditionViolation

__all__ = [
    "NegContinuedFraction",
    "neg_cf_expand",
    "neg_cf_value",
    "stabilization_counts",
]

_CHAIN_LIMIT = 3000  # entries of one expansion, and (+1)-pushoffs of one chain


class NegContinuedFraction(Record):
    """Expansion [c0, c1, ..., cm] with c0 <= -1 and ci <= -2 for i >= 1.

    At most _CHAIN_LIMIT entries: a longer tuple is refused before any
    entry is checked.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]) -> None:
        entries = tuple(operator.index(c) for c in entries)
        if len(entries) > _CHAIN_LIMIT:
            raise ConditionViolation(f"the expansion has more than {_CHAIN_LIMIT} entries")
        if not entries:
            raise ConditionViolation("expansion needs at least one entry")
        if entries[0] > -1:
            raise ConditionViolation(f"leading entry must be <= -1, got {entries[0]}")
        for c in entries[1:]:
            if c > -2:
                raise ConditionViolation(f"tail entries must be <= -2, got {c}")
        super().__init__(entries)

    def __len__(self) -> int:
        return len(self.entries)


def neg_cf_expand(r: Fraction | int) -> NegContinuedFraction:
    """Expand a negative rational into its unique negative continued fraction.

    The leading entry is floor(r) (r itself when integral); the remainder
    recurses on -1/(r - floor(r)), which is always < -1, so every tail
    entry lands at or below -2.  On r = p/q in lowest terms with q > 0
    one step is c = p // q, (p, q) -> (-q, p - c*q): the pair stays in
    lowest terms and q stays positive.

    Raises ConditionViolation for r >= 0 and when the expansion would
    have more than _CHAIN_LIMIT entries, and TypeError for a non-rational
    r such as a float.
    """
    r = _exact(r)
    if r >= 0:
        raise ConditionViolation(f"expected a negative coefficient, got {r}")
    return NegContinuedFraction(_neg_cf_entries(r.numerator, r.denominator))


def _exact(r: Fraction | int) -> Fraction:
    """r as a Fraction; a float or any other non-rational r raises TypeError."""
    if not isinstance(r, numbers.Rational):
        raise TypeError(f"expected an int or a Fraction, got {type(r).__name__}")
    return Fraction(r)


def _neg_cf_entries(p: int, q: int) -> tuple[int, ...]:
    """Entries of the expansion of p/q < 0, in lowest terms with q > 0.

    The integer Euclid loop behind `neg_cf_expand`, with its chain bound
    and no validation of the entries; callers that already hold a
    coprime pair skip the Fraction round trip.  Step i appends entry i,
    so the loop is bounded by the chain bound itself and counts no
    entries.
    """
    entries = []
    for _ in range(_CHAIN_LIMIT):
        if q == 1:  # the last entry
            entries.append(p)
            return tuple(entries)
        c = p // q  # floor for negative p/q
        entries.append(c)
        p, q = -q, p - c * q
    raise ConditionViolation(f"the expansion has more than {_CHAIN_LIMIT} entries")


def neg_cf_value(cf: NegContinuedFraction) -> Fraction:
    """Evaluate c0 - 1/(c1 - 1/(... - 1/cm)) exactly.

    Inverse of neg_cf_expand; serves as the back-substitution oracle in
    round-trip tests.  A tail p/q becomes c - q/p = (c*p - q)/p.  The
    entry bounds keep every partial tail below -1, so p is never zero.
    """
    p, q = cf.entries[-1], 1
    for c in reversed(cf.entries[:-1]):
        p, q = c * p - q, p
    return Fraction(p, q)


def stabilization_counts(cf: NegContinuedFraction) -> list[int]:
    """Per-component stabilization counts for the surgery chain of `cf`.

    The first component absorbs -c0 - 1 stabilizations, each later one
    -ci - 2.  All counts are >= 0 by the entry bounds, and the number of
    sign choices for the whole chain is the product of (count + 1).
    """
    first = -cf.entries[0] - 1
    rest = [-c - 2 for c in cf.entries[1:]]
    return [first] + rest
