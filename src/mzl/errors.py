"""Exception types shared across the library."""
from __future__ import annotations


class MzlError(Exception):
    """Base class for all library errors."""


class DomainError(MzlError, ValueError):
    """Input outside the supported domain of an operation."""


class PrecisionLossError(MzlError):
    """A series or formula cannot reach its target accuracy.

    Carries the accuracy that was actually achieved.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved bound {achieved:.3e})")
        self.achieved = achieved


class PoleProximityError(DomainError):
    """Evaluation point too close to a pole; carries the distance."""

    def __init__(self, message: str, distance: float):
        super().__init__(f"{message} (distance {distance:.3e})")
        self.distance = distance


class ZeroOnContourError(MzlError):
    """|f| fell below tolerance at a contour sample."""

    def __init__(self, message: str, location: complex, modulus: float):
        super().__init__(f"{message} at z={location!r}, |f|={modulus:.3e}")
        self.location = location
        self.modulus = modulus


class NonconvergenceError(MzlError):
    """Adaptive subdivision exceeded its depth or sample budget."""


class DominanceError(MzlError):
    """|f| > C|g| failed on the contour; carries the worst sample."""

    def __init__(self, message: str, location: complex, ratio: float):
        super().__init__(f"{message} at z={location!r}, |f|/|g|={ratio:.3e}")
        self.location = location
        self.ratio = ratio


class CannotPerturbError(MzlError):
    """The composite vanishes identically on the boundary samples."""


class AmbiguityError(MzlError):
    """A near-zero plateau prevented an unambiguous zero count."""

    def __init__(self, message: str, interval: tuple[float, float]):
        super().__init__(f"{message} on [{interval[0]!r}, {interval[1]!r}]")
        self.interval = interval


class InvalidSpecError(MzlError, ValueError):
    """A domain specification violates its invariants."""
