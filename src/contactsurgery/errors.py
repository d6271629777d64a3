"""Exception types shared across the package, and the failure contract.

A call ends in one of three ways, decided by the exception type alone:

- Input outside a construction's hypotheses raises ConditionViolation,
  whatever the hypothesis: a nonzero or negative coefficient, the
  family's range of (g, n, alpha, sign, r), a matrix or lattice of the
  wrong shape, a nondegenerate or negative definite lattice, the genus
  window of the obstruction, or a size bound.  The message names the
  condition.  A bounded search that runs out (SearchExhausted) is
  invalid input too: the bound was too small for the request.  Both
  derive from ValueError, which the command line maps to exit 2.
- A value of the wrong type (a float where the kernels need an exact
  int or Fraction) raises TypeError.
- A broken internal invariant (two routes that disagree, a guard that
  admissible input cannot reach, a star that breaks a hypothesis of the
  chain lemma behind the lattice obstruction) raises AssertionError,
  which the command line maps to exit 3.

Command-line text that does not parse (a malformed range, pair list or
entry list) raises a bare ValueError, as int() and Fraction() do, or
ZeroDivisionError for a zero denominator; it too exits 2.
"""


class ConditionViolation(ValueError):
    """Input violates a hypothesis of the construction (range, parity, shape or bound)."""


class SearchExhausted(ValueError):
    """A bounded search ran out of candidates before finding a witness."""
