"""Spectral kernel for dense symmetric matrices.

``eig_sym`` gives the one ``EigenDecomp`` of a matrix X, and every other map
reads it: the PSD part ``[X]+``, the matrix cube ``[X]+^3``, the scalar
``tr([X]+^4)`` and the derivative of ``X -> [X]+^3``, which is the eigenbasis
of the decomposition together with the divided-difference coefficient matrix
of ``dq_coeff`` and is applied to a direction by ``dq_apply``.  ``_norm`` is the
one overflow-safe norm; all operations are pure functions of their inputs.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, read_only, real_array

ABS_EIG_TOL = 1e-12
REL_EIG_TOL = 1e-10

# threshold used only to locate the leading nonzero entry of an eigenvector
# when fixing its sign
_SIGN_TOL = 1e-12


def symmetrize(X: np.ndarray) -> np.ndarray:
    """Return (X + X^T)/2, correctly rounded: added, then halved, except that the entries whose sum overflows are
    halved first, so no finite entry overflows and a symmetric X comes back unchanged.  The transpose swaps the
    last two axes only, so a (k, d, d) stack is symmetrized entry by entry."""
    T = X.swapaxes(-1, -2)
    try:
        with np.errstate(over="raise"):
            return 0.5 * (X + T)
    except FloatingPointError:
        with np.errstate(over="ignore"):
            return np.where(np.isinf(X + T), 0.5 * X + 0.5 * T, 0.5 * (X + T))


@functools.lru_cache(maxsize=64)
def _triangles(n: int) -> tuple[tuple[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """The read-only (rows, cols) index pairs of the upper and of the lower triangle of an n x n matrix, each
    in row-major order: the upper as ``np.triu_indices(n)`` (i, then j >= i), the lower as ``np.tril_indices(n)``."""
    return tuple(tuple(map(read_only, index)) for index in (np.triu_indices(n), np.tril_indices(n)))


@functools.lru_cache(maxsize=64)
def _upper_ints(n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``_triangles(n)[0]`` as two tuples of Python ints, whose entries of one value are one shared int object
    (so each tuple costs the 8 bytes per entry of its index array), for handing indices to a hook as they are."""
    ints = list(range(n))
    return tuple(tuple(map(ints.__getitem__, index.tolist())) for index in _triangles(n)[0])


def _pow2_unit(v) -> float:
    """2**-e, where max|v| = m * 2**e with 0.5 <= m < 1 and e >= -1021 (so 2**-e is finite for
    subnormal v): scaling by it is exact, so a norm taken after it rounds as the unscaled one
    would, but no square overflows."""
    return math.ldexp(1.0, -max(math.frexp(float(np.max(np.abs(v))))[1], -1021))


# max|v| strictly between these takes the unscaled norm: no square can overflow, and a square that
# underflows is below 2**-122 of the sum, too small to change its rounding
_UNSCALED_MIN, _UNSCALED_MAX = math.ldexp(1.0, -450), math.ldexp(1.0, 450)


def _norm(v) -> float:
    """Euclidean norm of v, finite whenever it is representable.

    It equals ``np.linalg.norm(v * unit) / unit`` with ``unit = _pow2_unit(v)`` bit for bit: scaling by
    a power of two is exact, so the scaling is skipped where no square can overflow (Blue 1978).  An input
    whose largest magnitude is zero, at most 2**-450 or at least 2**450 takes the scaled form; one with an
    infinite or NaN entry has the norm inf or NaN, which is returned without a sum that could overflow.
    """
    top = np.abs(v).max()  # NaN when v has a NaN
    if _UNSCALED_MIN < top < _UNSCALED_MAX:
        flat = v.ravel(order="K")
        return math.sqrt(flat @ flat)
    if not np.isfinite(top):
        return float(top)
    unit = _pow2_unit(v)
    return float(np.linalg.norm(v * unit)) / unit


@dataclass(frozen=True)
class EigenDecomp:
    """Eigendecomposition with eigenvalues sorted descending.

    Attributes
    ----------
    values : (d,) ndarray
        Eigenvalues, non-increasing.
    vectors : (d, d) ndarray
        Orthonormal eigenvectors; column j pairs with ``values[j]``.
    source_norm : float
        Frobenius norm of the decomposed matrix, kept for tolerance scaling.
    """

    values: np.ndarray
    vectors: np.ndarray
    source_norm: float


def eig_sym(X) -> EigenDecomp:
    """Eigendecompose a symmetric matrix, descending order, deterministic signs.

    The sign of each eigenvector is fixed so that its first component of
    magnitude above ``1e-12`` is nonnegative.
    """
    X = real_array("X", X)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] < 1:
        raise InvalidInputError(f"X must be a square matrix of dimension >= 1, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise InvalidInputError("X has non-finite entries")
    X = symmetrize(X)
    w, P = np.linalg.eigh(X)
    P = P[:, ::-1]
    # row of each column's first entry above the tolerance; argmax gives 0 when there is none
    lead = (np.abs(P) > _SIGN_TOL).argmax(axis=0)
    P = np.where(P.T[np.arange(P.shape[1]), lead] < 0, -P, P)
    return EigenDecomp(values=w[::-1].copy(), vectors=P, source_norm=_norm(X))


def default_zero_tol(dec: EigenDecomp) -> float:
    """Scaled tolerance deciding which eigenvalues count as zero."""
    return max(ABS_EIG_TOL, REL_EIG_TOL * dec.source_norm)


def _spectral_map(dec: EigenDecomp, lam: np.ndarray) -> np.ndarray:
    P = dec.vectors
    return symmetrize((P * lam) @ P.T)


def psd_part_from(dec: EigenDecomp) -> np.ndarray:
    return _spectral_map(dec, np.maximum(dec.values, 0.0))


def q_cube_from(dec: EigenDecomp) -> np.ndarray:
    return _spectral_map(dec, np.maximum(dec.values, 0.0) ** 3)


def quartic_trace_from(dec: EigenDecomp) -> float:
    return float(np.sum(np.maximum(dec.values, 0.0) ** 4))


def dq_coeff(dec: EigenDecomp) -> np.ndarray:
    """Divided-difference coefficient matrix of the derivative of ``[X]+^3``.

    With eigenvalues split at ``tol = default_zero_tol(dec)`` into positive
    (A: lam > tol), zero (B: |lam| <= tol) and negative (C: lam < -tol) sets,
    the entries are

    ==================  =====================================
    (i, j) in A x A     lam_i^2 + lam_i lam_j + lam_j^2
    (i, j) in A x B     lam_i^2                  (and B x A symmetric)
    (i, j) in A x C     lam_i^3 / (lam_i - lam_j) (and C x A symmetric)
    otherwise           0
    ==================  =====================================

    The eigenvalues are non-increasing, so the sets are the index ranges [0, a), [a, b)
    and [b, d), each block is a slice, and the A x C denominator is positive.
    """
    w, d = dec.values, dec.values.shape[0]
    tol = default_zero_tol(dec)
    wa, wn = w[w > tol], w[w < -tol]
    a, b = wa.size, d - wn.size
    C = np.zeros((d, d))
    C[:a, :a] = wa[:, None] ** 2 + np.outer(wa, wa) + wa[None, :] ** 2
    C[:a, a:b] = (wa**2)[:, None]
    C[a:b, :a] = (wa**2)[None, :]
    block = (wa**3)[:, None] / (wa[:, None] - wn[None, :])
    C[:a, b:] = block
    C[b:, :a] = block.T
    return C


def dq_apply(dec: EigenDecomp, H) -> np.ndarray:
    """Apply the derivative of ``[X]+^3`` at the decomposed X to a symmetric H: ``P (C o (P^T H P)) P^T``
    with ``P = dec.vectors``, ``C = dq_coeff(dec)`` and ``o`` the Hadamard product."""
    P = dec.vectors
    H = real_array("H", H, P.shape)
    if not np.isfinite(H).all():
        raise InvalidInputError("H has non-finite entries")
    K = P.T @ symmetrize(H) @ P
    return symmetrize(P @ (dq_coeff(dec) * K) @ P.T)
