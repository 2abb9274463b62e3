"""Exception types shared across the package."""


class EnergydiscError(Exception):
    """Base class for all errors raised by this package."""


class InvalidMatrix(EnergydiscError):
    """Matrix input is not usable (non-finite entries, not square)."""


class DimensionMismatch(EnergydiscError):
    """Operands have incompatible dimensions."""


class NotPSD(EnergydiscError):
    """Matrix required to be positive semidefinite is not."""


class EmptyDataset(EnergydiscError):
    """An operation that needs samples received none."""


class EmptyClass(EnergydiscError):
    """A class with positive prior has no samples."""


class DegenerateTrace(EnergydiscError):
    """Trace normalization requested but a correlation trace is not positive."""


class ZeroSignal(EnergydiscError):
    """Unit-norm normalization applied to a zero vector; `row` is its
    0-based row index when known."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class InvalidParameter(EnergydiscError):
    """A scalar parameter is outside its admissible range."""


class ParseError(EnergydiscError):
    """Malformed text input.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class LabelError(ParseError):
    """Class label outside {1, 2}."""
