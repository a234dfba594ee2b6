"""The smooth penalty function and its exact first and second derivatives.

For parameters (v, M, rho, sigma, tau) the penalty is

    F(x) = rho*f(x) + (sigma*tau/2) ||v/tau - g(x)||^2
                    + (sigma*tau/4) tr([M/tau - G(x)]+^4)

which is twice continuously differentiable in x.  ``penalty_at`` evaluates
the two pieces every term is built from, r = v/tau - g(x) and the
eigendecomposition of M/tau - G(x), once per point; ``penalty_value``,
``penalty_grad`` and ``penalty_hess`` read them from that ``PenaltyPoint``
and add the f terms and the derivatives of g and G.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matfun
from .errors import InvalidInputError
from .matfun import symmetrize
from .model import NsdpProblem, _dG_stack, _real, _vec, d2G_contract, dG_adjoint


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
        if self.M is not None:
            object.__setattr__(self, "M", symmetrize(np.asarray(self.M, dtype=float)))
        if self.v is not None:
            object.__setattr__(self, "v", np.atleast_1d(np.asarray(self.v, dtype=float)))
        if not all(np.all(np.isfinite(a)) for a in (self.rho, self.sigma, self.tau, self.v, self.M) if a is not None):
            raise InvalidInputError("rho, sigma, tau, v and M must be finite")
        if not self.sigma > 0:
            raise InvalidInputError("sigma must be positive")
        if not self.tau > 0:
            raise InvalidInputError("tau must be positive")
        if self.rho < 0:
            raise InvalidInputError("rho must be nonnegative")


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


@dataclass(frozen=True)
class PenaltyPoint:
    """At a copy of x: r = v/tau - g(x) (None if m = 0), G(x) and dec = eig(M/tau - G(x)) (None if d = 0).

    The read-only (n, d, d) stack ``dG`` of dG(x, i), the ``value`` and the read-only ``grad`` are made on
    first read and kept; the n x n Hessian is not, since a solve keeps every iterate's point."""

    prob: NsdpProblem
    p: PenaltyParams
    x: np.ndarray
    r: np.ndarray | None
    G: np.ndarray | None
    dec: matfun.EigenDecomp | None

    @cached_property
    def dG(self) -> np.ndarray:
        Gs = _dG_stack(self.prob, self.x)
        Gs.flags.writeable = False
        return Gs

    @cached_property
    def value(self) -> float:
        return penalty_value(self)

    @cached_property
    def grad(self) -> np.ndarray:
        g = penalty_grad(self)
        g.flags.writeable = False
        return g


def penalty_at(prob: NsdpProblem, x, p: PenaltyParams) -> PenaltyPoint:
    """Evaluate g and G once at x and eigendecompose M/tau - G(x) once."""
    x = _vec(x, prob.n).copy()
    r = Gx = dec = None
    if prob.m > 0:
        if p.v is not None and p.v.shape != (prob.m,):
            raise InvalidInputError(f"v must have shape ({prob.m},), got {p.v.shape}")
        r = (np.zeros(prob.m) if p.v is None else p.v) / p.tau - _real("g", prob.g(x), (prob.m,))
    if prob.d > 0:
        Gx = symmetrize(_real("G", prob.G(x), (prob.d, prob.d)))
        if p.M is not None and p.M.shape != (prob.d, prob.d):
            raise InvalidInputError(f"M must have shape ({prob.d}, {prob.d}), got {p.M.shape}")
        dec = matfun.eig_sym(-Gx if p.M is None else symmetrize(p.M / p.tau - Gx))
    return PenaltyPoint(prob, p, x, r, Gx, dec)


def penalty_value(at: PenaltyPoint) -> float:
    prob, p = at.prob, at.p
    st = p.sigma * p.tau
    val = p.rho * float(_real("f", prob.f(at.x), ())) if p.rho != 0.0 else 0.0
    if at.r is not None:
        val += 0.5 * st * float(at.r @ at.r)
    if at.dec is not None:
        val += 0.25 * st * matfun.quartic_trace_from(at.dec)
    return float(val)


def penalty_grad(at: PenaltyPoint) -> np.ndarray:
    prob, p, x = at.prob, at.p, at.x
    st = p.sigma * p.tau
    grad = p.rho * _real("grad_f", prob.grad_f(x), (prob.n,)) if p.rho != 0.0 else np.zeros(prob.n)
    if at.r is not None:
        grad = grad - st * (_real("jac_g", prob.jac_g(x), (prob.n, prob.m)) @ at.r)
    if at.dec is not None:
        grad = grad - st * dG_adjoint(at.dG, matfun.q_cube_from(at.dec))
    return grad


def penalty_hess(at: PenaltyPoint) -> np.ndarray:
    """Exact Hessian of the penalty, symmetrized.

    With P = dec.vectors, C = ``matfun.dq_coeff(dec)`` and
    K_i = P^T dG(x, i) P, orthogonality of P gives <dG_i, P (C o K_j) P^T> =
    <K_i, C o K_j>, so the matrix block is st * (K (C o K)^T - d2G_contract(x, [.]+^3)).
    """
    prob, p, x, r, dec = at.prob, at.p, at.x, at.r, at.dec
    st = p.sigma * p.tau
    if p.rho != 0.0:
        H = p.rho * symmetrize(_real("hess_f", prob.hess_f(x), (prob.n, prob.n)))
    else:
        H = np.zeros((prob.n, prob.n))
    if r is not None:
        for j in range(prob.m):
            if r[j] != 0.0:
                H = H - st * r[j] * symmetrize(_real("hess_g", prob.hess_g(x, j), (prob.n, prob.n)))
        J = _real("jac_g", prob.jac_g(x), (prob.n, prob.m))
        H = H + st * (J @ J.T)
    if dec is not None:
        P = dec.vectors
        K = (P.T @ at.dG @ P).reshape(prob.n, -1)
        H = H + st * (K @ (matfun.dq_coeff(dec).ravel() * K).T - d2G_contract(prob, x, matfun.q_cube_from(dec)))
    return symmetrize(H)
