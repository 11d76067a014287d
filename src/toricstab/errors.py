"""Exception types shared across the package.

Each maps to a CLI exit code: ParseError -> 2 (also raised when an input
file cannot be read or an output file cannot be written),
InvariantViolation -> 3, BudgetExceeded -> 4.  Internal failures map to
exit code 5: consistency checks raise AssertionError; exact computations
that cannot proceed raise ValueError (a PiecewisePolynomial that is
discontinuous, or negative where root concavity is tested) or
ArithmeticError (m-th roots that `midpoint_root_concave` cannot separate).
The verification suite signals mismatches through its exit code (1) rather
than an exception.
"""


class ToricstabError(Exception):
    """Base class for all package errors."""


class ParseError(ToricstabError):
    """Malformed fan specification document."""


class InvariantViolation(ToricstabError):
    """Input violates a structural invariant (bad ray, incomplete fan, ...)."""


class BudgetExceeded(ToricstabError):
    """A lattice enumeration exceeded the configured point budget."""
