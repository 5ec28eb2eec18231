"""Exception hierarchy shared across the toolkit."""


class GridGfvError(Exception):
    """Base class for all errors raised by this package."""


class CaseError(GridGfvError):
    """Malformed or semantically unusable case data."""


class NumericalError(GridGfvError):
    """A computation on valid data failed (exit code 3 at the command line)."""


class ConvergenceError(NumericalError):
    """Iterative solver failed to reach its tolerance."""

    def __init__(self, message, iterations=None, mismatch=None):
        super().__init__(message)
        self.iterations = iterations
        self.mismatch = mismatch


class SingularMatrixError(NumericalError):
    """A matrix that must be invertible is singular or near-singular."""


class StabilityRegionError(NumericalError):
    """Operating point leaves the small-signal stability region
    (the angle spread across some coupling reaches 90 degrees)."""


class DisconnectedNetworkError(NumericalError):
    """Analysis requires a connected network and the case is not."""


class SimulationUnstableError(NumericalError):
    """Time-domain integration produced a non-finite state."""

    def __init__(self, message, first_time=None):
        super().__init__(message)
        self.first_time = first_time


class UnusableResultError(NumericalError, ValueError):
    """A result is not finite, or every attempt at it failed (also a ValueError)."""
