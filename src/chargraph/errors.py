"""Exception types shared across the package."""

from __future__ import annotations


class ChargraphError(Exception):
    """Base class for all library errors."""


class OutOfRange(ChargraphError):
    """Input exceeds the supported numeric range."""


class TooLarge(ChargraphError):
    """Graph exceeds an exact-search size cap."""


class BadParameter(ChargraphError):
    """Argument violates an operation's contract."""


class UnknownVertex(ChargraphError):
    """Referenced vertex is not in the graph."""


class VertexClash(ChargraphError):
    """Vertex sets overlap where disjointness is required."""


class ModelError(ChargraphError):
    """Group model violates its structural constraints."""


class ShapeMismatch(ChargraphError):
    """Model composition does not fit the classification case its parameters demand."""


class AsymmetricPiSizes(ChargraphError):
    """The two prime-divisor counts |pi(2^a - 1)| and |pi(2^a + 1)| differ where equality is required."""


def require_int(name: str, value: object) -> int:
    """value, refused with BadParameter unless it is an int; a bool is not one."""
    if type(value) is not int:
        raise BadParameter(f"{name} must be an integer, got {value!r}")
    return value
