"""Exception types shared across the package.

Input outside a construction's hypotheses raises ConditionViolation,
whatever the hypothesis: a nonzero or negative coefficient, the family's
range of (g, n, alpha, sign, r), a nondegenerate or negative definite
lattice, the genus window of the obstruction, or a size bound.  The
message names the condition.  A bounded search that runs out
(SearchExhausted) is invalid input too: the bound was too small for the
request.  Both derive from ValueError, which the command line maps to
exit 2.  Internal cross-checks raise AssertionError instead, which the
command line maps to exit 3.
"""


class ConditionViolation(ValueError):
    """Input violates a hypothesis of the construction (range, parity, shape or bound)."""


class SearchExhausted(ValueError):
    """A bounded search ran out of candidates before finding a witness."""
