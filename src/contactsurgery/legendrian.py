"""Conversion of rational contact surgeries into (+1)/(-1) surgery chains.

A contact r-surgery (r != 0) on a Legendrian knot can always be traded
for a sequence of contact (+1)- and (-1)-surgeries on a chain of
Legendrian pushoffs:

  * r < 0: expand r as a negative continued fraction; each entry yields
    one (-1)-surgered pushoff carrying the stabilizations prescribed by
    `contfrac.stabilization_counts`.
  * r = 1/k (k a positive integer): k unstabilized (+1)-surgered
    pushoffs.
  * any other r = p/q > 0: first k (+1)-pushoffs with k minimal such
    that q - kp < 0, then the chain for the residual coefficient
    p/(q - kp) < 0.

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
from dataclasses import dataclass
from fractions import Fraction

from .contfrac import _CHAIN_LIMIT, neg_cf_expand, stabilization_counts
from .errors import ConditionViolation, ZeroCoefficient

__all__ = [
    "LegendrianComponent",
    "PlusMinusDiagram",
    "StabilizationChoice",
    "reduce_positive",
    "one_over_k_to_plus_ones",
    "convert",
    "enumerate_choices",
    "smooth_coefficient",
]

ROOT = -1  # parent index of a pushoff taken directly off the surgered knot


@dataclass(frozen=True)
class LegendrianComponent:
    """One component of a (+1)/(-1) surgery chain.

    tb and rot are accumulated down the pushoff chain: tb equals the root
    tb minus all stabilizations above and including this component, and
    rot is the root rotation shifted by the chosen stabilization signs
    (all negative for the diagram as built).
    """

    contact_coefficient: int  # +1 or -1
    stab_count: int
    parent: int  # index of the parent component, ROOT for the first
    tb: int
    rot: int

    def __post_init__(self) -> None:
        if self.contact_coefficient not in (1, -1):
            raise ValueError("contact coefficient must be +1 or -1")
        if self.stab_count < 0:
            raise ValueError("stabilization count must be >= 0")


@dataclass(frozen=True)
class PlusMinusDiagram:
    """A chain of (+1)/(-1)-surgered pushoffs replacing one rational surgery."""

    components: tuple[LegendrianComponent, ...]
    root_tb: int
    root_rot: int

    @property
    def plus_count(self) -> int:
        return sum(1 for c in self.components if c.contact_coefficient == 1)

    @property
    def stab_counts(self) -> tuple[int, ...]:
        return tuple(c.stab_count for c in self.components)

    @property
    def choice_count(self) -> int:
        return math.prod(s + 1 for s in self.stab_counts)


@dataclass(frozen=True)
class StabilizationChoice:
    """One distribution of stabilization signs over a diagram.

    signs[i] = (#positive, #negative) on component i; rotations[i] is the
    rotation number component i ends up with, accumulated along the chain.
    Two choices are distinct exactly when their sign vectors differ.
    """

    signs: tuple[tuple[int, int], ...]
    rotations: tuple[int, ...]

    @property
    def final_rot(self) -> int:
        return self.rotations[-1]


def reduce_positive(p: int, q: int) -> tuple[int, Fraction]:
    """Split a positive surgery coefficient p/q (p >= 2) into (+1)-steps.

    Returns the minimal k >= 1 with q - kp < 0 together with the residual
    coefficient p/(q - kp) < 0: k contact (+1)-pushoff surgeries followed
    by a contact residual-surgery on one further pushoff reproduce the
    p/q-surgery.
    """
    if p <= 0 or q <= 0:
        raise ConditionViolation("reduce_positive needs positive p and q")
    if math.gcd(p, q) != 1:
        raise ConditionViolation("p/q must be in lowest terms")
    if p < 2:
        raise ConditionViolation("p = 1 coefficients go through one_over_k_to_plus_ones")
    k = q // p + 1  # q is never a multiple of p since gcd(p, q) = 1 and p >= 2
    return k, Fraction(p, q - k * p)


def one_over_k_to_plus_ones(
    k: int, root_tb: int = -1, root_rot: int = 0
) -> PlusMinusDiagram:
    """Replace a contact 1/k-surgery (k >= 1) by k (+1)-surgered pushoffs.

    Raises ConditionViolation, before building anything, when k exceeds
    the chain bound of `contfrac` (3000).
    """
    if k < 1:
        raise ValueError("k must be a positive integer")
    if k > _CHAIN_LIMIT:
        raise ConditionViolation(f"the chain needs more than {_CHAIN_LIMIT} (+1)-pushoffs")
    components = tuple(
        LegendrianComponent(
            contact_coefficient=1,
            stab_count=0,
            parent=ROOT if i == 0 else i - 1,
            tb=root_tb,
            rot=root_rot,
        )
        for i in range(k)
    )
    return PlusMinusDiagram(components, root_tb, root_rot)


def _negative_chain(
    r: Fraction, first_parent: int, tb: int, rot: int
) -> tuple[LegendrianComponent, ...]:
    """The (-1)-surgered chain realizing a negative coefficient r."""
    counts = stabilization_counts(neg_cf_expand(r))
    components = []
    parent = first_parent
    for s in counts:
        tb -= s
        rot -= s  # all-negative stabilization convention
        components.append(
            LegendrianComponent(
                contact_coefficient=-1,
                stab_count=s,
                parent=parent,
                tb=tb,
                rot=rot,
            )
        )
        parent = first_parent + len(components)  # ROOT is -1, so this is the global index
    return tuple(components)


def convert(
    r: Fraction | int, root_tb: int = -1, root_rot: int = 0
) -> PlusMinusDiagram:
    """Convert a contact r-surgery (r != 0) into a (+1)/(-1) chain.

    The root Legendrian knot is never part of the output; the first
    component is its contact pushoff.  Defaults (tb, rot) = (-1, 0) are
    the standard Legendrian unknot and are configurable because only
    rotation numbers relative to the root matter downstream.  The run of
    (+1)-pushoffs and the negative continued fraction are each bounded by
    the chain bound of `contfrac` (3000): ConditionViolation is raised for
    a longer run before any component is built, and for a longer
    expansion before any (-1)-component is built.
    """
    r = Fraction(r)
    if r == 0:
        raise ZeroCoefficient("contact 0-surgery cannot be converted")
    if r < 0:
        chain = _negative_chain(r, ROOT, root_tb, root_rot)
        return PlusMinusDiagram(chain, root_tb, root_rot)
    if r.numerator == 1:
        return one_over_k_to_plus_ones(r.denominator, root_tb, root_rot)
    k, residual = reduce_positive(r.numerator, r.denominator)
    head = one_over_k_to_plus_ones(k, root_tb, root_rot).components
    tail = _negative_chain(residual, k - 1, root_tb, root_rot)
    return PlusMinusDiagram(head + tail, root_tb, root_rot)


def enumerate_choices(diagram: PlusMinusDiagram) -> list[StabilizationChoice]:
    """All stabilization sign distributions of a diagram, with rotations.

    Component i with s_i stabilizations admits choices (j, s_i - j) for
    j = 0..s_i, enumerated with j (the positive count) increasing, so the
    full list has prod (s_i + 1) entries in a fixed deterministic order.
    A pushoff inherits its parent's rotation before its own shifts apply.
    """
    per_component = [
        [(j, c.stab_count - j) for j in range(c.stab_count + 1)]
        for c in diagram.components
    ]
    choices = []
    for signs in itertools.product(*per_component):
        rotations = []
        for component, (pos, neg) in zip(diagram.components, signs):
            base = (
                diagram.root_rot
                if component.parent == ROOT
                else rotations[component.parent]
            )
            rotations.append(base + pos - neg)
        choices.append(StabilizationChoice(tuple(signs), tuple(rotations)))
    return choices


def smooth_coefficient(component: LegendrianComponent) -> int:
    """Smooth surgery coefficient of a component: contact coefficient + tb.

    Contact coefficients are measured against the contact framing, which
    sits tb away from the Seifert framing, so the translation is a shift.
    """
    return component.contact_coefficient + component.tb
