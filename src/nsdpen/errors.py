"""Exception types, and the integer- and real-argument checks, shared across the toolkit."""

from dataclasses import fields
from numbers import Integral, Real


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


def require_real_fields(obj):
    """Reject a dataclass whose ``float`` fields are not all real numbers (a bool is not one); numpy scalars pass."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type is float and (isinstance(value, bool) or not isinstance(value, Real)):
            raise InvalidInputError(f"{f.name} must be a real number, got {value!r}")
