"""Exception types shared across the package.

Each package error carries its CLI exit code as `exit_code`: ParseError 2
(also raised when an input file cannot be read or an output file cannot be
written), InvariantViolation 3, BudgetExceeded 4.  Internal failures map to
exit code 5: consistency checks raise AssertionError; exact computations
that cannot proceed raise ValueError (a PiecewisePolynomial that is
discontinuous, or negative where root concavity is tested) or
ArithmeticError (m-th roots, m = n - 1 >= 4, that `midpoint_root_concave`
cannot separate on a Q where `root_concave_certificate` does not conclude).
The verification suite signals mismatches through its exit code (1) rather
than an exception.
"""


class ToricstabError(Exception):
    """Base class for all package errors."""
    exit_code: int


class ParseError(ToricstabError):
    """Malformed fan specification document."""
    exit_code = 2


class InvariantViolation(ToricstabError):
    """Input violates a structural invariant (bad ray, incomplete fan, ...)."""
    exit_code = 3


class BudgetExceeded(ToricstabError):
    """A lattice enumeration exceeded the configured point budget."""
    exit_code = 4
