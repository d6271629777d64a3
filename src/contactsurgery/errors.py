"""Exception types shared across the package.

Every exception derives from ValueError so callers that do not care about
the precise failure mode can catch invalid input uniformly; the command
line maps each of them to exit 2.  A bounded search that runs out
(SearchExhausted) is invalid input too: the bound was too small for the
request.  Internal cross-checks raise AssertionError instead, which the
command line maps to exit 3.
"""


class NonNegativeCoefficient(ValueError):
    """A negative continued fraction expansion was requested for r >= 0."""


class ZeroCoefficient(ValueError):
    """Contact 0-surgery has no (+1)/(-1) replacement."""


class ConditionViolation(ValueError):
    """Input violates an admissibility condition (range, parity, or shape)."""


class SearchExhausted(ValueError):
    """A bounded search ran out of candidates before finding a witness."""


class DegenerateLattice(ValueError):
    """The requested lattice has a degenerate intersection form."""


class NotNegativeDefinite(ValueError):
    """Embedding search requires a negative definite Gram matrix."""


class NoValidD(ValueError):
    """No integer d satisfies d(d+1) <= 2g <= d(d+2)-1 for this genus."""
