"""Exception types shared across the package.

Each maps to a CLI exit code: ParseError -> 2 (also raised when an input
file cannot be read or an output file cannot be written),
InvariantViolation -> 3, BudgetExceeded -> 4.  Internal consistency checks
raise AssertionError, which the CLI maps to exit code 5.  The verification
suite signals mismatches through its exit code (1) rather than an exception.
"""


class ToricstabError(Exception):
    """Base class for all package errors."""


class ParseError(ToricstabError):
    """Malformed fan specification document."""


class InvariantViolation(ToricstabError):
    """Input violates a structural invariant (bad ray, incomplete fan, ...)."""


class BudgetExceeded(ToricstabError):
    """A lattice enumeration exceeded the configured point budget."""
