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

The expansion is read off the regular continued fraction
-r = a1 + 1/(a2 + 1/(a3 + ...)) = [a1; a2, a3, ...] (Hirzebruch-Jung
duality; Popescu-Pampu, "The geometry of continued fractions and the
topology of surface singularities", 2007):

    r = [-(a1 + 1), (-2)^(a2 - 1), -(a3 + 2), (-2)^(a4 - 1), -(a5 + 2), ...]

where (-2)^k is a run of k entries -2, and the last quotient gives one
less: -(a + 1) on an odd place, and -a1 alone when r is an integer.  So
Euclid runs once per partial quotient and each run of -2 entries is
written in one list operation: the loop takes O(partial quotients)
steps, not one per entry.

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
    entry lands at or below -2.  That recursion, one step c = p // q,
    (p, q) -> (-q, p - c*q) per entry on r = p/q in lowest terms, is
    kept in tests/reference.py as the reference; the package reads the
    entries off the partial quotients of -r instead (`_neg_cf_entries`).

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
    coprime pair skip the Fraction round trip.  One divmod per partial
    quotient a of -p/q = [a1; a2, a3, ...] (see the module docstring),
    so O(partial quotients) steps: a1 gives the entry -(a1 + 1), each
    even-place a a run of a - 1 entries -2 and each odd-place a one
    entry -(a + 2), or -(a + 1) when it is the last quotient; an integer
    is its own expansion.  The chain bound is checked before a run or
    an entry is written, so a refused expansion builds nothing large:
    -(10^12 + 1)/10^12 is [1; 10^12] and is refused after one entry.
    """
    c, r = divmod(-p, q)
    if not r:  # an integer, its own expansion
        return (p,)
    entries = [-c - 1]
    while True:
        c, s = divmod(q, r)  # an even place: a run of c - 1 entries -2
        if c > 1:
            if len(entries) + c - 1 > _CHAIN_LIMIT:
                break
            entries += [-2] * (c - 1)
        if not s:
            return tuple(entries)
        c, r = divmod(r, s)  # an odd place: one entry
        if len(entries) == _CHAIN_LIMIT:
            break
        if not r:
            entries.append(-c - 1)
            return tuple(entries)
        entries.append(-c - 2)
        q = s
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
