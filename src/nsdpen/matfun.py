"""Spectral kernel for dense symmetric matrices.

Provides the PSD projection ``[X]+``, the matrix cube ``[X]+^3``, the scalar
``tr([X]+^4)``, and the derivative operator of ``X -> [X]+^3`` materialized as
an eigenbasis plus a matrix of divided-difference coefficients.  All
operations are pure functions of their inputs.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError

ABS_EIG_TOL = 1e-12
REL_EIG_TOL = 1e-10

# threshold used only to locate the leading nonzero entry of an eigenvector
# when fixing its sign
_SIGN_TOL = 1e-12


def symmetrize(X: np.ndarray) -> np.ndarray:
    """Return (X + X^T)/2."""
    return 0.5 * (X + X.T)


def _as_sym(X, name: str = "X") -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] != X.shape[1] or X.shape[0] < 1:
        raise InvalidInputError(f"{name} must be a square matrix of dimension >= 1, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return symmetrize(X)


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

    @property
    def dim(self) -> int:
        return self.values.shape[0]


@dataclass(frozen=True)
class EigClassification:
    """Index partition of a descending spectrum into positive / zero / negative sets."""

    pos: np.ndarray
    zero: np.ndarray
    neg: np.ndarray
    tol: float


@dataclass(frozen=True)
class DQOperator:
    """Derivative of ``X -> [X]+^3`` at a fixed X, stored as (eigenbasis, coefficients).

    Applying the operator to H computes ``P (C o (P^T H P)) P^T`` where ``o``
    is the Hadamard product.
    """

    basis: np.ndarray
    coeff: np.ndarray


def eig_sym(X) -> EigenDecomp:
    """Eigendecompose a symmetric matrix, descending order, deterministic signs.

    The sign of each eigenvector is fixed so that its first component of
    magnitude above ``1e-12`` is nonnegative.
    """
    X = _as_sym(X)
    w, P = np.linalg.eigh(X)
    P = P[:, ::-1]
    # row of each column's first entry above the tolerance; argmax gives 0 when there is none
    lead = (np.abs(P) > _SIGN_TOL).argmax(axis=0)
    P = np.where(P.T[np.arange(P.shape[1]), lead] < 0, -P, P)
    return EigenDecomp(values=w[::-1].copy(), vectors=P, source_norm=float(np.linalg.norm(X)))


def default_zero_tol(dec: EigenDecomp) -> float:
    """Scaled tolerance deciding which eigenvalues count as zero."""
    return max(ABS_EIG_TOL, REL_EIG_TOL * dec.source_norm)


def classify_eigs(dec: EigenDecomp, tol: float | None = None) -> EigClassification:
    """Partition eigenvalue indices into {lam > tol}, {|lam| <= tol}, {lam < -tol}."""
    if tol is None:
        tol = default_zero_tol(dec)
    tol = float(tol)
    if tol < 0:
        raise InvalidInputError("tol must be nonnegative")
    w = dec.values
    pos = np.flatnonzero(w > tol)
    zero = np.flatnonzero(np.abs(w) <= tol)
    neg = np.flatnonzero(w < -tol)
    return EigClassification(pos=pos, zero=zero, neg=neg, tol=tol)


def _spectral_map(dec: EigenDecomp, lam: np.ndarray) -> np.ndarray:
    P = dec.vectors
    return symmetrize((P * lam) @ P.T)


def psd_part_from(dec: EigenDecomp) -> np.ndarray:
    return _spectral_map(dec, np.maximum(dec.values, 0.0))


def q_cube_from(dec: EigenDecomp) -> np.ndarray:
    return _spectral_map(dec, np.maximum(dec.values, 0.0) ** 3)


def quartic_trace_from(dec: EigenDecomp) -> float:
    return float(np.sum(np.maximum(dec.values, 0.0) ** 4))


def dq_coeff(dec: EigenDecomp, cls: EigClassification) -> DQOperator:
    """Divided-difference coefficient matrix of the derivative of ``[X]+^3``.

    With eigenvalues split into positive (A), zero (B) and negative (C) sets,
    the entries are

    ==================  =====================================
    (i, j) in A x A     lam_i^2 + lam_i lam_j + lam_j^2
    (i, j) in A x B     lam_i^2                  (and B x A symmetric)
    (i, j) in A x C     lam_i^3 / (lam_i - lam_j) (and C x A symmetric)
    otherwise           0
    ==================  =====================================

    The A x C denominator is structurally positive after classification.
    """
    w = dec.values
    d = w.shape[0]
    if cls.pos.size + cls.zero.size + cls.neg.size != d:
        raise InvalidInputError("classification does not partition the spectrum")
    C = np.zeros((d, d))
    A, B, N = cls.pos, cls.zero, cls.neg
    if A.size:
        wa = w[A]
        C[np.ix_(A, A)] = wa[:, None] ** 2 + np.outer(wa, wa) + wa[None, :] ** 2
        if B.size:
            C[np.ix_(A, B)] = (wa**2)[:, None]
            C[np.ix_(B, A)] = (wa**2)[None, :]
        if N.size:
            wn = w[N]
            block = (wa**3)[:, None] / (wa[:, None] - wn[None, :])
            C[np.ix_(A, N)] = block
            C[np.ix_(N, A)] = block.T
    return DQOperator(basis=dec.vectors, coeff=C)


def dq_apply(op: DQOperator, H) -> np.ndarray:
    """Apply the derivative operator to a symmetric direction H."""
    H = _as_sym(H, name="H")
    if H.shape[0] != op.basis.shape[0]:
        raise InvalidInputError(f"dimension mismatch: H is {H.shape[0]}x{H.shape[0]}, operator is {op.basis.shape[0]}-dimensional")
    P = op.basis
    K = P.T @ H @ P
    return symmetrize(P @ (op.coeff * K) @ P.T)


def dq_operator(X) -> DQOperator:
    """Build the derivative operator of ``[X]+^3`` at X with default classification."""
    dec = eig_sym(X)
    return dq_coeff(dec, classify_eigs(dec))
