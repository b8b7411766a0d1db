"""Exception types shared across the package."""
from __future__ import annotations

__all__ = ["PhistepError", "UnstableError", "TableauFileError", "NoDataError"]


class PhistepError(Exception):
    """Base class for errors raised by this package."""


class UnstableError(PhistepError):
    """The time integration blew up (non-finite values or unbounded growth).

    Attributes:
        time: simulation time at which the blow-up was detected.
        step: n for the field u^n that failed, the number of steps it
            completes: 1 for the first step, or for the first starter
            iterate.
    """

    def __init__(self, message: str, time: float | None = None, step: int | None = None):
        super().__init__(message)
        self.time = time
        self.step = step


class TableauFileError(PhistepError):
    """A tableau file could not be parsed or failed validation."""


class NoDataError(PhistepError):
    """Not enough finite data points to compute the requested statistic."""
