"""Exception types shared across the library.

Two families matter to callers: mathematical precondition failures
(:class:`PreconditionError` subclasses) and numerical breakdowns
(:class:`NumericFailureError` subclasses).  The command-line layer maps
them to distinct exit codes.
"""


class AltiterError(Exception):
    """Base class for all library-specific errors."""


class PreconditionError(AltiterError):
    """A mathematical precondition on the input does not hold."""


class NotIndexOneError(PreconditionError):
    """The matrix is not of index one, so no group inverse exists."""


class NotProperSplittingError(PreconditionError):
    """The candidate splitting does not preserve range and null space."""


class HypothesisViolationError(PreconditionError):
    """A hypothesis required by the requested construction does not hold."""


class DivergentSchemeError(PreconditionError):
    """The iteration matrix has spectral radius >= 1; no fixed point exists."""


class NumericFailureError(AltiterError):
    """A numerical routine failed to produce a usable result."""


class SingularMatrixError(NumericFailureError):
    """A matrix assumed invertible is numerically singular."""


class CrossCheckError(NumericFailureError):
    """Two independent computations of the same quantity disagree."""


class MatrixMarketError(AltiterError):
    """A MatrixMarket file could not be parsed.

    :attr:`line` is the 1-based line number at which parsing failed.
    """

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")
