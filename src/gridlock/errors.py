"""Exception types raised across the package.

Input-file errors carry a 1-based ``line`` attribute where one applies, so
the CLI can point at the offending line.
"""


class GridlockError(Exception):
    """Base class for all package errors."""


# --- chain construction -------------------------------------------------

class IndexOutOfRange(GridlockError):
    pass


class NonPositiveRate(GridlockError):
    pass


class DuplicateTransition(GridlockError):
    pass


class SelfLoop(GridlockError):
    pass


class NegativeTime(GridlockError):
    """A time or horizon that is negative, infinite or NaN, or too long
    for a finite uniformization window."""


# --- solving -------------------------------------------------------------

class NonConvergence(GridlockError):
    """Iteration cap reached before meeting the residual tolerance."""


class UnknownLabel(GridlockError):
    pass


# --- grid model building -------------------------------------------------

class InsufficientCapacity(GridlockError):
    """Base demand exceeds the total capacity of the generator fleet."""


class StateSpaceLimitExceeded(GridlockError):
    pass


# --- scenario / demand files ----------------------------------------------

class InputFileError(GridlockError):
    """Common base for scenario and demand-profile parse errors."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedDuration(InputFileError):
    pass


class ScenarioSyntaxError(InputFileError):
    pass


class MissingSection(InputFileError):
    pass


class UnknownKey(InputFileError):
    pass


class DuplicateClass(InputFileError):
    pass


class PriorityMismatch(InputFileError):
    pass


class BadHeader(InputFileError):
    pass


class MissingHour(InputFileError):
    pass


class DuplicateHour(InputFileError):
    pass


class HourOutOfRange(InputFileError):
    pass


class NonPositiveDemand(InputFileError):
    pass


class NonFiniteValue(InputFileError):
    """A number that is infinite or NaN, or overflows to infinity."""
