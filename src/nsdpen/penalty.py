"""The smooth penalty function and its exact first and second derivatives.

For parameters (v, M, rho, sigma, tau) the penalty is

    F(x) = rho*f(x) + (sigma*tau/2) ||v/tau - g(x)||^2
                    + (sigma*tau/4) tr([M/tau - G(x)]+^4)

which is twice continuously differentiable in x.  The gradient and Hessian
are assembled from the problem hooks and the spectral kernel; each call
shares a single eigendecomposition of M/tau - G(x) across all terms.  These
functions compute afresh on every call; ``driver.solve`` calls each of them
at most once per (gamma, x) in a solve.
"""

from dataclasses import dataclass

import numpy as np

from . import matfun
from .errors import InvalidInputError
from .matfun import symmetrize
from .model import NsdpProblem, _dG_stack, _vec, d2G_contract, dG_adjoint


@dataclass(frozen=True)
class PenaltyParams:
    """Penalty parameters (v, M, rho, sigma, tau).

    ``v`` and ``M`` may be None, meaning zero vector / zero matrix of
    whatever dimension the problem requires.  ``rho = 0`` is permitted (it
    turns the penalty into a pure infeasibility measure).
    """

    v: np.ndarray | None
    M: np.ndarray | None
    rho: float
    sigma: float
    tau: float

    def __post_init__(self):
        if not self.sigma > 0:
            raise InvalidInputError("sigma must be positive")
        if not self.tau > 0:
            raise InvalidInputError("tau must be positive")
        if self.rho < 0:
            raise InvalidInputError("rho must be nonnegative")
        if self.M is not None:
            object.__setattr__(self, "M", symmetrize(np.asarray(self.M, dtype=float)))
        if self.v is not None:
            object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))


def special_params(kind: str, gamma: float | None = None) -> PenaltyParams:
    """Two standard parameter choices.

    ``script_F`` is the outer-loop objective (v=0, M=0, rho=1, sigma=gamma,
    tau=1); ``script_P`` is the infeasibility measure (v=0, M=0, rho=0,
    sigma=1, tau=1).
    """
    if kind == "script_F":
        if gamma is None or not gamma > 0:
            raise InvalidInputError("script_F requires gamma > 0")
        return PenaltyParams(v=None, M=None, rho=1.0, sigma=float(gamma), tau=1.0)
    if kind == "script_P":
        if gamma is not None:
            raise InvalidInputError("script_P takes no gamma")
        return PenaltyParams(v=None, M=None, rho=0.0, sigma=1.0, tau=1.0)
    raise InvalidInputError(f"unknown parameter kind {kind!r}")


def _v_of(p: PenaltyParams, m: int) -> np.ndarray:
    if p.v is None:
        return np.zeros(m)
    if p.v.shape != (m,):
        raise InvalidInputError(f"v must have shape ({m},), got {p.v.shape}")
    return p.v


def _shifted_matrix(prob: NsdpProblem, x: np.ndarray, p: PenaltyParams) -> np.ndarray:
    """M/tau - G(x), the argument of every spectral term."""
    Gx = symmetrize(np.asarray(prob.G(x), dtype=float))
    if p.M is None:
        return -Gx
    if p.M.shape != (prob.d, prob.d):
        raise InvalidInputError(f"M must have shape ({prob.d}, {prob.d}), got {p.M.shape}")
    return symmetrize(p.M / p.tau - Gx)


def penalty_value(prob: NsdpProblem, x, p: PenaltyParams) -> float:
    x = _vec(x, prob.n)
    st = p.sigma * p.tau
    val = p.rho * float(prob.f(x)) if p.rho != 0.0 else 0.0
    if prob.m > 0:
        r = _v_of(p, prob.m) / p.tau - np.asarray(prob.g(x), dtype=float)
        val += 0.5 * st * float(r @ r)
    if prob.d > 0:
        dec = matfun.eig_sym(_shifted_matrix(prob, x, p))
        val += 0.25 * st * matfun.quartic_trace_from(dec)
    return float(val)


def penalty_grad(prob: NsdpProblem, x, p: PenaltyParams) -> np.ndarray:
    x = _vec(x, prob.n)
    st = p.sigma * p.tau
    grad = p.rho * np.asarray(prob.grad_f(x), dtype=float) if p.rho != 0.0 else np.zeros(prob.n)
    if prob.m > 0:
        r = _v_of(p, prob.m) / p.tau - np.asarray(prob.g(x), dtype=float)
        grad = grad - st * (np.asarray(prob.jac_g(x), dtype=float) @ r)
    if prob.d > 0:
        dec = matfun.eig_sym(_shifted_matrix(prob, x, p))
        grad = grad - st * dG_adjoint(prob, x, matfun.q_cube_from(dec))
    return grad


def penalty_hess(prob: NsdpProblem, x, p: PenaltyParams) -> np.ndarray:
    """Exact Hessian of the penalty, symmetrized.

    With P, C the eigenbasis and coefficients of ``matfun.dq_coeff`` and
    K_i = P^T dG(x, i) P, orthogonality of P gives <dG_i, P (C o K_j) P^T> =
    <K_i, C o K_j>, so the matrix block is st * (K (C o K)^T - d2G_contract(x, [.]+^3)).
    """
    x = _vec(x, prob.n)
    st = p.sigma * p.tau
    if p.rho != 0.0:
        H = p.rho * symmetrize(np.asarray(prob.hess_f(x), dtype=float))
    else:
        H = np.zeros((prob.n, prob.n))
    if prob.m > 0:
        r = _v_of(p, prob.m) / p.tau - np.asarray(prob.g(x), dtype=float)
        for j in range(prob.m):
            if r[j] != 0.0:
                H = H - st * r[j] * symmetrize(np.asarray(prob.hess_g(x, j), dtype=float))
        J = np.asarray(prob.jac_g(x), dtype=float)
        H = H + st * (J @ J.T)
    if prob.d > 0:
        dec = matfun.eig_sym(_shifted_matrix(prob, x, p))
        op = matfun.dq_coeff(dec, matfun.classify_eigs(dec))
        K = (op.basis.T @ _dG_stack(prob, x) @ op.basis).reshape(prob.n, -1)
        H = H + st * (K @ (op.coeff.ravel() * K).T - d2G_contract(prob, x, matfun.q_cube_from(dec)))
    return symmetrize(H)


def script_f_value(prob: NsdpProblem, x, gamma: float) -> float:
    return penalty_value(prob, x, special_params("script_F", gamma))


def script_f_grad(prob: NsdpProblem, x, gamma: float) -> np.ndarray:
    return penalty_grad(prob, x, special_params("script_F", gamma))


def script_p_value(prob: NsdpProblem, x) -> float:
    return penalty_value(prob, x, special_params("script_P"))
