"""Exception types shared across the simulator."""


class SpinCimError(Exception):
    """Base class for all simulator errors."""


class OutOfBounds(SpinCimError):
    """Address or data word outside the array geometry."""


class MappingViolation(SpinCimError):
    """Operand rows violate the in-memory data-mapping constraint."""


class UnknownOp(SpinCimError):
    """Operation has no entry in the active cost table."""


class ParseError(SpinCimError):
    """Assembly source rejected; carries line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class StepBudgetExceeded(SpinCimError):
    """Program did not halt within the configured step budget."""


class NonConvergence(SpinCimError):
    """Calibration fit failed or targets are degenerate."""


class MissingClass(SpinCimError):
    """Classifier training set lacks at least one labelled class."""


class MalformedTrace(SpinCimError):
    """Trace does not contain the event structure an analysis expects."""


class InvalidShift(SpinCimError, ValueError):
    """Level shifts not ordered 0 < alpha < beta < gamma, or adapted references
    outside their shifted gaps; a ValueError like any other bad model value."""


class ConfigError(SpinCimError):
    """Configuration file is invalid or contains unknown keys."""
