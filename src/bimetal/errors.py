"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes: DataError -> 2, NumericalError -> 3.
"""


class BimetalError(Exception):
    """Base class for all package errors."""


class DataError(BimetalError):
    """Malformed, inconsistent, or unusable input data."""


class ParseError(DataError):
    """A row of the input table could not be parsed.

    Carries the 1-based line number of the offending row when known.
    """

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class ValidationError(DataError):
    """Parsed data violates a dataset invariant (ordering, positivity, ...)."""


class ImputationError(DataError):
    """A missing-value gap exceeds the configured maximum."""


class NumericalError(BimetalError):
    """A numerical procedure failed (underflow, non-convergence, ...)."""


class DegenerateModelError(NumericalError):
    """Every EM restart collapsed a regime: below the minimum posterior mass,
    or with a sigma below a tiny fraction of the series' standard deviation."""


class MonotonicityError(NumericalError):
    """The EM log-likelihood decreased between iterations (internal bug guard)."""
