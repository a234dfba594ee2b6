"""Exception types, and every argument check of the toolkit: ``real_array``, the one reader of a value as a float
array (a caller's argument or a hook's output), and ``require_int`` and ``require_real`` for scalars and config
fields, and ``require_instance`` for a problem or config object.  Each raises ``InvalidInputError`` naming the
argument or the hook.  ``read_only`` guards a shared array."""

from dataclasses import fields
from numbers import Integral, Real

import numpy as np


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


def require_real(name: str, value):
    """Reject ``value`` unless it is a real number (a bool is not one); numpy scalars pass."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise InvalidInputError(f"{name} must be a real number, got {value!r}")


def require_instance(name: str, value, cls: type):
    """Reject ``value`` unless it is an instance of ``cls`` (the class itself is not one)."""
    if not isinstance(value, cls):
        raise InvalidInputError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def require_real_fields(obj):
    """Reject a dataclass whose ``float`` fields are not all real numbers."""
    for f in fields(obj):
        if f.type is float:
            require_real(f.name, getattr(obj, f.name))


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only: an array that is shared, not copied, so that a write into it raises."""
    a.flags.writeable = False
    return a


def real_array(name: str, value, shape: tuple | None = None) -> np.ndarray:
    """``value`` as a float array, read by one ``np.asarray`` call (a float array is returned as it is).  Complex,
    ragged or non-numeric values, and a shape other than ``shape`` when one is given, raise ``InvalidInputError``."""
    try:
        out = np.asarray(value)
    except ValueError:
        raise InvalidInputError(f"{name} is ragged") from None
    if out.dtype.kind not in "biuf":
        raise InvalidInputError(f"{name} must be real numbers, got {out.dtype}")
    if shape is not None and out.shape != shape:
        raise InvalidInputError(f"{name} must have shape {shape}, got {out.shape}")
    return out.astype(float, copy=False)
