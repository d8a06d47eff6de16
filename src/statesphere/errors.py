"""Exception hierarchy shared by all modules."""


class GeometryError(Exception):
    """Base class for all toolkit errors."""


class DimensionMismatch(GeometryError):
    """Operands live in spaces of different dimension."""


class DimensionTooSmall(GeometryError):
    """State space must have dimension >= 2."""


class ZeroVector(GeometryError):
    """A vector required to be nonzero has (numerically) zero norm."""


class NotNormalized(GeometryError):
    """Input vector deviates from unit norm beyond the allowed tolerance."""


class NonFinite(GeometryError):
    """An input vector or matrix holds a NaN or infinite entry."""


class MalformedInput(GeometryError):
    """An input file does not have the documented structure."""


class NotHermitian(GeometryError):
    """Matrix fails the Hermiticity check."""


class SupportViolation(GeometryError):
    """Wavepacket support too close to the periodic box boundary."""


class InvalidParameter(GeometryError):
    """A scalar parameter is outside its admissible range."""
