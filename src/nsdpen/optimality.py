"""First- and second-order optimality machinery.

Lagrangian derivatives, multiplier recovery from the penalty gradient
structure, the symmetrized complementarity product, the curvature correction
coming from the PSD cone (sigma-term), the perturbed critical subspace, and
the residual certificates built on them.  The certificates read the r = -g(x)
and eig(-G(x)) of a ``penalty.PenaltyPoint``: they call neither G nor the eigensolver.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import InvalidInputError, require_int
from .matfun import symmetrize
from .model import NsdpProblem, _dG_stack, _real, _vec, d2G_contract, dG_adjoint
from .penalty import PenaltyPoint


@dataclass(frozen=True)
class MultiplierPair:
    """Equality multiplier y and PSD matrix multiplier Z."""

    y: np.ndarray
    Z: np.ndarray


@dataclass
class OptimalityResiduals:
    """Scalar residuals certifying approximate first/second-order optimality."""

    stationarity: float
    feasibility_u: float
    complementarity: float
    second_order: float
    subspace_dim: int


def _check_y(prob: NsdpProblem, y) -> np.ndarray:
    if prob.m == 0:
        return np.zeros(0)
    y = np.atleast_1d(np.asarray(y, dtype=float))
    if y.shape != (prob.m,):
        raise InvalidInputError(f"y must have shape ({prob.m},), got {y.shape}")
    return y


def _check_Z(prob: NsdpProblem, Z) -> np.ndarray:
    if prob.d == 0:
        return np.zeros((0, 0))
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (prob.d, prob.d):
        raise InvalidInputError(f"Z must have shape ({prob.d}, {prob.d}), got {Z.shape}")
    return symmetrize(Z)


def lagrangian_grad(prob: NsdpProblem, x, y, Z) -> np.ndarray:
    """grad f(x) - jac_g(x) y - adjoint(dG)(x) Z."""
    x = _vec(x, prob.n)
    y, Z = _check_y(prob, y), _check_Z(prob, Z)
    out = _real("grad_f", prob.grad_f(x), (prob.n,)).copy()
    if prob.m > 0:
        out -= _real("jac_g", prob.jac_g(x), (prob.n, prob.m)) @ y
    if prob.d > 0:
        out -= dG_adjoint(_dG_stack(prob, x), Z)
    return out


def lagrangian_hess(prob: NsdpProblem, x, y, Z) -> np.ndarray:
    """hess f(x) - sum_j y_j hess g_j(x) - [<d2G(x,i,j), Z>]_ij."""
    x = _vec(x, prob.n)
    y, Z = _check_y(prob, y), _check_Z(prob, Z)
    H = symmetrize(_real("hess_f", prob.hess_f(x), (prob.n, prob.n))).copy()
    if prob.m > 0:
        for j in range(prob.m):
            if y[j] != 0.0:
                H -= y[j] * symmetrize(_real("hess_g", prob.hess_g(x, j), (prob.n, prob.n)))
    if prob.d > 0:
        H -= d2G_contract(prob, x, Z)
    return symmetrize(H)


def _gamma(at: PenaltyPoint) -> float:
    """gamma = sigma*tau of a point without shifts, whose r is -g(x) and dec is eig(-G(x))."""
    if at.p.v is not None or at.p.M is not None:
        raise InvalidInputError("certificates need a penalty point built with v = M = None")
    return at.p.sigma * at.p.tau


def recover_multipliers(at: PenaltyPoint) -> MultiplierPair:
    """Multipliers y = -gamma*g(x) and Z = gamma*[-G(x)]+^3 (PSD by construction)."""
    gamma = _gamma(at)
    y = gamma * at.r if at.r is not None else np.zeros(0)
    Z = gamma * matfun.q_cube_from(at.dec) if at.dec is not None else np.zeros((0, 0))
    return MultiplierPair(y=y, Z=Z)


def jordan_complementarity(at: PenaltyPoint, Z) -> tuple[np.ndarray, float]:
    """The symmetrized product G(x) o Z = (GZ + ZG)/2 and its Frobenius norm."""
    _gamma(at)
    Z = _check_Z(at.prob, Z)
    if at.G is None:
        return np.zeros((0, 0)), 0.0
    prod = 0.5 * (at.G @ Z + Z @ at.G)
    return prod, float(np.linalg.norm(prod))


def sigma_term(at: PenaltyPoint, Z) -> np.ndarray:
    """Curvature correction [2 <Z, dG_i G(x)^+ dG_j>]_ij with a spectral pseudo-inverse.

    Eigenvalues of G(x) with magnitude at most the classification tolerance
    are zeroed rather than inverted.
    """
    _gamma(at)
    prob = at.prob
    Z = _check_Z(prob, Z)
    if at.dec is None:
        return np.zeros((prob.n, prob.n))
    values = -at.dec.values  # eigenvalues of G(x)
    inv = np.divide(1.0, values, out=np.zeros(prob.d), where=np.abs(values) > matfun.default_zero_tol(at.dec))
    P = at.dec.vectors
    pinv = (P * inv) @ P.T
    return symmetrize(2.0 * (Z @ at.dG @ pinv).reshape(prob.n, -1) @ at.dG.reshape(prob.n, -1).T)


def infeasibility_u(at: PenaltyPoint) -> float:
    """max(||g(x)||, ||[-G(x)]+||_F): zero exactly on the feasible set."""
    _gamma(at)
    gnorm = float(np.linalg.norm(at.r)) if at.r is not None else 0.0
    pnorm = float(np.linalg.norm(matfun.psd_part_from(at.dec))) if at.dec is not None else 0.0
    return max(gnorm, pnorm)


def critical_subspace_basis(at: PenaltyPoint, b_count: int) -> np.ndarray:
    """Orthonormal basis of the perturbed critical subspace at x.

    The subspace consists of directions h with jac_g(x)^T h = 0 whose image
    dG(x)h compresses to zero on the span U of the eigenvectors belonging to
    the ``b_count`` smallest eigenvalues of G(x).  The caller supplies
    ``b_count`` from the reference point it trusts (a known solution or the
    final iterate).  Returns an n x s matrix; s = 0 yields an empty basis.
    """
    _gamma(at)
    prob = at.prob
    require_int("b_count", b_count, 0, prob.d)
    rows = []
    if prob.m > 0:
        rows.append(_real("jac_g", prob.jac_g(at.x), (prob.n, prob.m)).T)
    if b_count > 0:
        U = at.dec.vectors[:, :b_count]  # eig(-G) is descending: its first columns
        comp = U.T @ at.dG @ U
        p, q = np.triu_indices(b_count)
        rows.append(comp[:, p, q].T)
    if not rows:
        return np.eye(prob.n)
    A = np.vstack(rows)
    _, s, vt = np.linalg.svd(A)
    if s.size == 0 or s[0] == 0.0:
        return np.eye(prob.n)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T.copy()


def second_order_residual(at: PenaltyPoint, y, Z, basis: np.ndarray) -> float:
    """max(0, -lambda_min) of the Lagrangian Hessian plus sigma-term reduced to the basis.

    An empty basis makes the bound vacuous and the residual 0.
    """
    _gamma(at)
    prob = at.prob
    basis = np.asarray(basis, dtype=float)
    if basis.ndim != 2 or basis.shape[0] != prob.n:
        raise InvalidInputError(f"basis must be {prob.n} x s")
    if basis.shape[1] == 0:
        return 0.0
    M = lagrangian_hess(prob, at.x, y, Z) + sigma_term(at, Z)
    R = symmetrize(basis.T @ M @ basis)
    lam_min = float(np.linalg.eigvalsh(R)[0])
    return max(0.0, -lam_min)


def evaluate_residuals(at: PenaltyPoint, b_count: int) -> tuple[OptimalityResiduals, MultiplierPair]:
    """Every residual at the point ``at`` and the multipliers they use; the stationarity is the norm
    of the point's penalty gradient ``at.grad``.  ``driver.solve`` certifies each iterate with it."""
    mult = recover_multipliers(at)
    basis = critical_subspace_basis(at, b_count)
    _, comp = jordan_complementarity(at, mult.Z)
    res = OptimalityResiduals(
        stationarity=float(np.linalg.norm(at.grad)),
        feasibility_u=infeasibility_u(at),
        complementarity=comp,
        second_order=second_order_residual(at, mult.y, mult.Z, basis),
        subspace_dim=int(basis.shape[1]),
    )
    return res, mult
