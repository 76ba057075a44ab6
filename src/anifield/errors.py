"""Exception types shared across the package."""


class AnifieldError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AnifieldError):
    """A point lies outside the conic domain, or sampling a domain failed."""


class ShapeError(AnifieldError):
    """Components returned by a closure do not match the declared type."""


class RankError(AnifieldError):
    """An operation needs a covariant slot the field does not have."""


class LevelError(AnifieldError):
    """A ladder or connection level is out of range, zero, or not an integer."""


class _SampleError(AnifieldError):
    """An error carrying the (x, y) sample it was detected at, or None."""

    def __init__(self, message, sample=None):
        super().__init__(message)
        self.sample = sample


class DegeneracyError(_SampleError):
    """A matrix that must be invertible is numerically singular."""


class DivisionError(_SampleError):
    """Division by a scalar field that vanishes at a sample."""


class TransitionError(AnifieldError):
    """An action functional was asked for a level move it does not support."""
