"""The smooth penalty function and its exact first and second derivatives.

For parameters (v, M, rho, sigma, tau) the penalty is

    F(x) = rho*f(x) + (sigma*tau/2) ||v/tau - g(x)||^2
                    + (sigma*tau/4) tr([M/tau - G(x)]+^4)

which is twice continuously differentiable in x.  ``penalty_at`` evaluates
the two pieces every term is built from, r = v/tau - g(x) and the
eigendecomposition of M/tau - G(x), once per point; ``penalty_value``,
``penalty_grad`` and ``penalty_hess`` read them, and f, grad_f, jac_g, dG and
[M/tau - G(x)]+^3 made once on first read, from that ``PenaltyPoint`` and add
the derivatives of f, g and G.  Only rho and sigma weigh those pieces, so
``PenaltyPoint.reweighted`` moves a point to new weights without evaluating
anything again.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import matfun
from .errors import InvalidInputError, read_only, real_array, require_instance, require_real, require_real_fields
from .matfun import symmetrize
from .model import NsdpProblem, _dG_stack, _point, _read, _shape, d2G_contract, dG_adjoint, hess_fg


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
        require_real_fields(self)
        if self.M is not None:
            M = real_array("M", self.M)
            if M.ndim != 2 or M.shape[0] != M.shape[1]:
                raise InvalidInputError(f"M must be a square matrix, got shape {M.shape}")
            object.__setattr__(self, "M", symmetrize(M))
        if self.v is not None:
            object.__setattr__(self, "v", np.atleast_1d(real_array("v", self.v)))
        if not all(np.isfinite(a).all() for a in (self.rho, self.sigma, self.tau, self.v, self.M) if a is not None):
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
        require_real("gamma", gamma)
        if not gamma > 0:
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

    ``f`` = f(x), ``grad_f`` = grad_f(x) and ``J`` = jac_g(x) (neither written into), the read-only stack ``dG`` of
    dG(x, i), the read-only ``q_cube`` = [M/tau - G(x)]+^3, the ``value`` and the read-only ``grad`` are made on
    first read and kept; the Hessian is not, since a solve keeps every point.  None of these but ``value`` and
    ``grad`` depends on rho or sigma, so ``reweighted`` carries the others to the same x under a new weight."""

    prob: NsdpProblem
    p: PenaltyParams
    x: np.ndarray
    r: np.ndarray | None
    G: np.ndarray | None
    dec: matfun.EigenDecomp | None

    @cached_property
    def f(self) -> float:
        return float(_read(self.prob, "f", self.x))

    @cached_property
    def grad_f(self) -> np.ndarray:
        return _read(self.prob, "grad_f", self.x)

    @cached_property
    def J(self) -> np.ndarray:
        return _read(self.prob, "jac_g", self.x)

    @cached_property
    def dG(self) -> np.ndarray:
        return read_only(_dG_stack(self.prob, self.x))

    def share_dG(self, stack: np.ndarray | None) -> np.ndarray:
        """Read ``stack`` as this point's ``dG`` when the two hold the same bits, and return the stack it reads.

        Bits, not values, so 0.0 and -0.0 stay apart; neither stack is copied.  A solve passes the stack of its
        last kept point, so the kept points of an affine G share one stack."""
        if stack is not None and _same_bits(stack, self.dG):
            self.__dict__["dG"] = stack  # where cached_property keeps its value
        return self.dG

    @cached_property
    def q_cube(self) -> np.ndarray:
        return read_only(matfun.q_cube_from(self.dec))

    def reweighted(self, p: PenaltyParams) -> "PenaltyPoint":
        """This point under ``p``, whose v, M and tau must equal this point's (bit for bit), so r, G and dec hold.

        The new point reads this one's r, G, dec and x, and whichever of ``f``, ``grad_f``, ``J``, ``dG`` and
        ``q_cube`` this one has made; its ``value`` and ``grad`` are made again on first read."""
        require_instance("p", p, PenaltyParams)
        if not (p.tau == self.p.tau and _same_bits(p.v, self.p.v) and _same_bits(p.M, self.p.M)):
            raise InvalidInputError("reweighted needs params with this point's v, M and tau")
        point = PenaltyPoint(self.prob, p, self.x, self.r, self.G, self.dec)
        for name in ("f", "grad_f", "J", "dG", "q_cube"):
            if name in self.__dict__:  # where cached_property keeps a made value
                point.__dict__[name] = self.__dict__[name]
        return point

    @cached_property
    def value(self) -> float:
        return penalty_value(self)

    @cached_property
    def grad(self) -> np.ndarray:
        return read_only(penalty_grad(self))


def _same_bits(a: np.ndarray | None, b: np.ndarray | None) -> bool:
    """Whether a and b are both None, or arrays of one shape holding the same bits (so 0.0 and -0.0 differ)."""
    if a is None or b is None or a is b:
        return a is b
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def penalty_at(prob: NsdpProblem, x, p: PenaltyParams) -> PenaltyPoint:
    """Evaluate g and G once at x and eigendecompose M/tau - G(x) once.  A v given must have the shape of g's output
    and an M that of G's, also where m = 0 or d = 0; both are checked before any hook call."""
    x = _point(prob, x).copy()
    require_instance("p", p, PenaltyParams)
    for name, shift, hook in (("v", p.v, "g"), ("M", p.M, "G")):
        if shift is not None and shift.shape != _shape(prob, hook):
            raise InvalidInputError(f"{name} must have shape {_shape(prob, hook)}, got {shift.shape}")
    r = Gx = dec = None
    if prob.m > 0:
        r = (np.zeros(prob.m) if p.v is None else p.v) / p.tau - _read(prob, "g", x)
    if prob.d > 0:
        Gx = symmetrize(_read(prob, "G", x))
        dec = matfun.eig_sym(-Gx if p.M is None else p.M / p.tau - Gx)
    return PenaltyPoint(prob, p, x, r, Gx, dec)


def _sigma_tau(at: PenaltyPoint) -> float:
    """sigma*tau of the point ``at``, which must be a PenaltyPoint: the first check of each function taking one."""
    require_instance("at", at, PenaltyPoint)
    return at.p.sigma * at.p.tau


def penalty_value(at: PenaltyPoint) -> float:
    st = _sigma_tau(at)
    p = at.p
    val = p.rho * at.f if p.rho != 0.0 else 0.0
    if at.r is not None:
        val += 0.5 * st * float(at.r @ at.r)
    if at.dec is not None:
        val += 0.25 * st * matfun.quartic_trace_from(at.dec)
    return float(val)


def penalty_grad(at: PenaltyPoint) -> np.ndarray:
    st = _sigma_tau(at)
    prob, p = at.prob, at.p
    grad = p.rho * at.grad_f if p.rho != 0.0 else np.zeros(prob.n)
    if at.r is not None:
        grad = grad - st * (at.J @ at.r)
    if at.dec is not None:
        grad = grad - st * dG_adjoint(at.dG, at.q_cube)
    return grad


def penalty_hess(at: PenaltyPoint) -> np.ndarray:
    """Exact Hessian of the penalty, symmetrized once, when complete.

    With P = dec.vectors, C = ``matfun.dq_coeff(dec)`` and
    K_i = P^T dG(x, i) P, orthogonality of P gives <dG_i, P (C o K_j) P^T> =
    <K_i, C o K_j>, so the matrix block is st * (K (C o K)^T - d2G_contract(x, [.]+^3)).
    """
    st = _sigma_tau(at)
    prob, p, x, r, dec = at.prob, at.p, at.x, at.r, at.dec
    H = hess_fg(prob, x, p.rho, None if r is None else st * r)
    if r is not None:
        H = H + st * (at.J @ at.J.T)
    if dec is not None:
        P = dec.vectors
        K = (P.T @ at.dG @ P).reshape(prob.n, -1)
        H = H + st * (K @ (matfun.dq_coeff(dec).ravel() * K).T - d2G_contract(prob, x, at.q_cube))
    return symmetrize(H)
