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
from .errors import InvalidInputError, real_array, require_int
from .matfun import _norm, symmetrize
from .model import NsdpProblem, _dG_stack, _point, _read, _vec, d2G_contract, dG_adjoint, hess_fg
from .penalty import PenaltyPoint, _sigma_tau


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
    return _vec(y, prob.m, "y") if prob.m else np.zeros(0)


def _check_Z(prob: NsdpProblem, Z) -> np.ndarray:
    return symmetrize(real_array("Z", Z, (prob.d, prob.d))) if prob.d else np.zeros((0, 0))


def lagrangian_grad(prob: NsdpProblem, x, y, Z) -> np.ndarray:
    """grad f(x) - jac_g(x) y - adjoint(dG)(x) Z."""
    x = _point(prob, x)
    y, Z = _check_y(prob, y), _check_Z(prob, Z)
    out = _read(prob, "grad_f", x).copy()
    if prob.m > 0:
        out -= _read(prob, "jac_g", x) @ y
    if prob.d > 0:
        out -= dG_adjoint(_dG_stack(prob, x), Z)
    return out


def lagrangian_hess(prob: NsdpProblem, x, y, Z) -> np.ndarray:
    """hess f(x) - hess_g(x, y) - [<d2G(x,i,j), Z>]_ij, hook terms read as given and the sum symmetrized once."""
    x = _point(prob, x)
    y, Z = _check_y(prob, y), _check_Z(prob, Z)
    H = hess_fg(prob, x, 1.0, y)
    if prob.d > 0:
        H -= d2G_contract(prob, x, Z)
    return symmetrize(H)


def _gamma(at: PenaltyPoint) -> float:
    """gamma = sigma*tau of a PenaltyPoint without shifts, whose r is -g(x) and dec is eig(-G(x)); the first check
    of each function taking a point."""
    gamma = _sigma_tau(at)
    if at.p.v is not None or at.p.M is not None:
        raise InvalidInputError("certificates need a penalty point built with v = M = None")
    return gamma


def recover_multipliers(at: PenaltyPoint) -> MultiplierPair:
    """Multipliers y = -gamma*g(x) and Z = gamma*[-G(x)]+^3 (PSD by construction)."""
    gamma = _gamma(at)
    y = gamma * at.r if at.r is not None else np.zeros(0)
    Z = gamma * at.q_cube if at.dec is not None else np.zeros((0, 0))
    return MultiplierPair(y=y, Z=Z)


def jordan_complementarity(at: PenaltyPoint, Z) -> tuple[np.ndarray, float]:
    """The symmetrized product G(x) o Z = (GZ + ZG)/2 and its Frobenius norm."""
    _gamma(at)
    Z = _check_Z(at.prob, Z)
    if at.G is None:
        return np.zeros((0, 0)), 0.0
    prod = 0.5 * (at.G @ Z + Z @ at.G)
    return prod, _norm(prod)


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
    gnorm = _norm(at.r) if at.r is not None else 0.0
    pnorm = _norm(matfun.psd_part_from(at.dec)) if at.dec is not None else 0.0
    return max(gnorm, pnorm)


def critical_subspace_basis(at: PenaltyPoint, b_count: int) -> np.ndarray:
    """Orthonormal basis of the perturbed critical subspace at x.

    The subspace consists of directions h with jac_g(x)^T h = 0 whose image
    dG(x)h compresses to zero on the span U of the eigenvectors belonging to
    the ``b_count`` smallest eigenvalues of G(x): ``driver.solve`` passes its
    estimate at the final iterate, ``check`` the corpus entry's known value.
    Returns an n x s matrix; s = 0 yields an empty basis.
    """
    _gamma(at)
    prob = at.prob
    require_int("b_count", b_count, 0, prob.d)
    rows = []
    if prob.m > 0:
        rows.append(at.J.T)
    if b_count > 0:
        U = at.dec.vectors[:, :b_count]  # eig(-G) is descending: its first columns
        comp = U.T @ at.dG @ U
        p, q = matfun._triangles(b_count)[0]
        rows.append(comp[:, p, q].T)
    if not rows:
        return np.eye(prob.n)
    A = np.vstack(rows)
    _, s, vt = np.linalg.svd(A)
    if s[0] == 0.0:
        return np.eye(prob.n)
    rank = int(np.sum(s > 1e-10 * s[0]))
    return vt[rank:].T.copy()


def second_order_residual(at: PenaltyPoint, y, Z, basis: np.ndarray) -> float:
    """max(0, -lambda_min) of the Lagrangian Hessian plus sigma-term reduced to the basis.

    An empty basis makes the bound vacuous and the residual 0; a NaN lambda_min (an overflowed matrix) stays NaN.
    """
    _gamma(at)
    prob = at.prob
    basis = real_array("basis", basis)
    if basis.ndim != 2 or basis.shape[0] != prob.n:
        raise InvalidInputError(f"basis must be {prob.n} x s")
    if basis.shape[1] == 0:
        return 0.0
    M = lagrangian_hess(prob, at.x, y, Z) + sigma_term(at, Z)
    R = symmetrize(basis.T @ M @ basis)
    lam_min = float(np.linalg.eigvalsh(R)[0])
    return lam_min if np.isnan(lam_min) else max(0.0, -lam_min)


def evaluate_residuals(at: PenaltyPoint, b_count: int) -> tuple[OptimalityResiduals, MultiplierPair]:
    """Every residual at the point ``at`` and the multipliers they use; the stationarity is the overflow-safe
    ``matfun._norm`` of the point's penalty gradient ``at.grad``.  ``driver.solve`` certifies each iterate with it."""
    mult = recover_multipliers(at)
    basis = critical_subspace_basis(at, b_count)
    _, comp = jordan_complementarity(at, mult.Z)
    res = OptimalityResiduals(
        stationarity=_norm(at.grad),
        feasibility_u=infeasibility_u(at),
        complementarity=comp,
        second_order=second_order_residual(at, mult.y, mult.Z, basis),
        subspace_dim=int(basis.shape[1]),
    )
    return res, mult
