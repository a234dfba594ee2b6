"""Exception types, and the integer-argument check, shared across the toolkit."""

from numbers import Integral


class InvalidInputError(ValueError):
    """Raised on malformed arguments: wrong shapes, non-finite data, bad parameter ranges."""


class UnknownProblemError(LookupError):
    """Raised when a problem name is not present in the registry."""


class StartNotFeasibleError(RuntimeError):
    """Raised when a solve is started from a point that violates the constraints."""


def require_int(name: str, value, lo: int, hi: float = float("inf")):
    """Reject ``value`` unless it is an integer (not a bool) in [lo, hi]."""
    if isinstance(value, bool) or not isinstance(value, Integral) or not lo <= value <= hi:
        raise InvalidInputError(f"{name} must be an integer in [{lo}, {hi}], got {value!r}")
