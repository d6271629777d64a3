"""Conversion of rational contact surgeries into (+1)/(-1) surgery chains.

A contact r-surgery (r = p/q != 0, q > 0) on a Legendrian knot can
always be traded for a sequence of contact (+1)- and (-1)-surgeries on a
chain of Legendrian pushoffs (Ding-Geiges-Stipsicz): k = ceil(q/p)
unstabilized (+1)-surgered pushoffs, then one (-1)-surgered pushoff per
entry of the negative continued fraction of the residual p/(q - kp) < 0,
carrying the stabilizations prescribed by `contfrac.stabilization_counts`.
For r < 0 this is k = 0 and the residual is r itself; for r = 1/k the
residual is empty (q = kp).

Each stabilization can be taken with either sign; a chain whose
components carry s_0, ..., s_m stabilizations therefore supports
prod (s_i + 1) sign distributions, every one of which induces its own
rotation numbers.  `enumerate_choices` lists them all.

Bookkeeping conventions: a contact-framed pushoff inherits (tb, rot)
from its parent, each stabilization drops tb by 1 and moves rot by +1 or
-1.  Diagrams returned by `convert` carry the all-negative choice of
stabilization signs; the enumeration covers the rest.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

from ._record import Record
from .contfrac import _CHAIN_LIMIT, _exact, neg_cf_expand, stabilization_counts
from .errors import ConditionViolation

__all__ = [
    "LegendrianComponent",
    "PlusMinusDiagram",
    "StabilizationChoice",
    "convert",
    "enumerate_choices",
    "smooth_coefficient",
]


class LegendrianComponent(Record):
    """One component of a (+1)/(-1) surgery chain.

    Component i of a chain is a pushoff of component i - 1, the first of
    the root Legendrian knot.  tb and rot are accumulated down the
    pushoff chain: tb equals the root tb minus all stabilizations above
    and including this component, and rot is the root rotation shifted
    by the chosen stabilization signs (all negative for the diagram as
    built).
    """

    __slots__ = ("contact_coefficient", "stab_count", "tb", "rot")

    def __init__(self, contact_coefficient: int, stab_count: int, tb: int, rot: int) -> None:
        contact_coefficient, stab_count, tb, rot = map(
            operator.index, (contact_coefficient, stab_count, tb, rot)
        )
        if contact_coefficient not in (1, -1):
            raise ConditionViolation("contact coefficient must be +1 or -1")
        if stab_count < 0:
            raise ConditionViolation("stabilization count must be >= 0")
        super().__init__(contact_coefficient, stab_count, tb, rot)


class PlusMinusDiagram(Record):
    """A chain of (+1)/(-1)-surgered pushoffs replacing one rational surgery.

    Fields components, root_tb, root_rot: the LegendrianComponents in
    chain order, and the tb and rot of the root knot.
    """

    __slots__ = ("components", "root_tb", "root_rot")

    @property
    def stab_counts(self) -> tuple[int, ...]:
        return tuple(c.stab_count for c in self.components)

    @property
    def choice_count(self) -> int:
        return math.prod(s + 1 for s in self.stab_counts)


class StabilizationChoice(Record):
    """One distribution of stabilization signs over a diagram: fields signs, rotations.

    signs[i] = (#positive, #negative) on component i; rotations[i] is the
    rotation number component i ends up with, accumulated along the chain.
    Two choices are distinct exactly when their sign vectors differ.
    """

    __slots__ = ("signs", "rotations")


def convert(
    r: Fraction | int, root_tb: int = -1, root_rot: int = 0
) -> PlusMinusDiagram:
    """Convert a contact r-surgery (r = p/q != 0, q > 0) into a (+1)/(-1) chain.

    The chain is k = ceil(q/p) unstabilized (+1)-pushoffs (k = 0 when
    r < 0), then, unless q = kp, the (-1)-chain of the residual
    p/(q - kp) < 0, one pushoff per entry of its negative continued
    fraction, carrying the stabilizations `contfrac.stabilization_counts`
    prescribes.  Component i is a pushoff of component i - 1, the first
    of the root Legendrian knot, which is never part of the output.
    Defaults (tb, rot) = (-1, 0) are the standard Legendrian unknot and
    are configurable because only rotation numbers relative to the root
    matter downstream.  The run of (+1)-pushoffs and the negative
    continued fraction are each bounded by the chain bound of `contfrac`
    (3000): ConditionViolation is raised for a longer run or expansion
    before any component is built.  A non-rational r (a float, say) or a
    non-integer tb or rot raises TypeError.
    """
    r = _exact(r)
    root_tb, root_rot = operator.index(root_tb), operator.index(root_rot)
    if r == 0:
        raise ConditionViolation("contact 0-surgery cannot be converted")
    p, q = r.numerator, r.denominator
    k = -(-q // p) if p > 0 else 0
    if k > _CHAIN_LIMIT:
        raise ConditionViolation(f"the chain needs more than {_CHAIN_LIMIT} (+1)-pushoffs")
    steps = [(1, 0)] * k
    if q != k * p:
        residual = Fraction(p, q - k * p)
        steps += [(-1, s) for s in stabilization_counts(neg_cf_expand(residual))]
    components = []
    tb, rot = root_tb, root_rot
    for coefficient, s in steps:
        tb -= s
        rot -= s  # all-negative stabilization convention
        components.append(LegendrianComponent(coefficient, s, tb, rot))
    return PlusMinusDiagram(tuple(components), root_tb, root_rot)


def enumerate_choices(diagram: PlusMinusDiagram) -> list[StabilizationChoice]:
    """All stabilization sign distributions of a diagram, with rotations.

    Component i with s_i stabilizations admits choices (j, s_i - j) for
    j = 0..s_i, enumerated with j (the positive count) increasing, so the
    full list has prod (s_i + 1) entries in a fixed deterministic order.
    Each component is a pushoff of the one before it, so it inherits that
    rotation before its own shifts apply.
    """
    per_component = [
        [(j, c.stab_count - j) for j in range(c.stab_count + 1)]
        for c in diagram.components
    ]
    choices = []
    for signs in itertools.product(*per_component):
        shifts = (pos - neg for pos, neg in signs)
        rotations = tuple(itertools.accumulate(shifts, initial=diagram.root_rot))[1:]
        choices.append(StabilizationChoice(tuple(signs), rotations))
    return choices


def smooth_coefficient(component: LegendrianComponent) -> int:
    """Smooth surgery coefficient of a component: contact coefficient + tb.

    Contact coefficients are measured against the contact framing, which
    sits tb away from the Seifert framing, so the translation is a shift.
    """
    return component.contact_coefficient + component.tb
