"""Outer penalty method.

Each outer iteration minimizes the smooth penalty with the current weight
gamma down to certificate tolerance delta (gradient norm and Hessian
eigenvalue bound), recovers multipliers from the penalty gradient structure,
records the first-order residuals, and then applies the warm-start and
gamma-update rules:

* the next start is the new iterate if its penalty value does not exceed
  f(x0), otherwise the feasible start x0;
* gamma is kept when k = 0 or the infeasibility fell by factor eta,
  multiplied by theta otherwise;
* delta decays geometrically.

The run stops once infeasibility and delta are below their tolerances, at
the iteration cap, or on inner-solver failure / gamma passing ``GAMMA_CAP``;
each inner solve runs under ``TrConfig()``'s limits.  Then the
records are built from one ``optimality.evaluate_residuals`` call per
distinct kept point: an outer iteration that keeps gamma and ends where it
started repeats the certificate of the record before it, with its own copies
of y and Z.

A solve keeps one cache: the last point evaluated and its Hessian, made on
first request.  The ``script_F`` parameters are built once per value of gamma
and stand for it: a request at the cached x's bits under the same parameters
reads the cached point, under a new gamma its ``PenaltyPoint.reweighted`` copy
(only the value, the gradient and the Hessian are made again), and any other x
gets a new ``penalty.penalty_at`` point.  ``tr_minimize`` reads a point's
value, gradient and Hessian in a row and each outer iteration starts where the
last one ended or at x0, so each x is evaluated once (x0 again after a reset).
f(x0), the start point's infeasibility and every iterate's f and certificates
read the same points, so the driver calls no hook itself.  A kept point whose
dG stack holds the same bits as the last kept one reads that stack instead of
its own, so the kept points of an affine G hold one stack between them.
"""

import time
from dataclasses import dataclass

import numpy as np

from . import optimality, penalty, trustregion
from .errors import (InvalidInputError, StartNotFeasibleError, read_only, require_instance, require_int,
                     require_real_fields)
from .matfun import default_zero_tol
from .model import NsdpProblem

FEAS_OPT_REACHED = "FeasOptReached"
MAX_OUTER = "MaxOuter"
INNER_FAILURE = "InnerFailure"

BRANCH_ACCEPT = "accept"
BRANCH_RESET = "reset"

# the most infeasibility u(x0) a start point may have
FEAS_CHECK_TOL = 1e-8
# the largest penalty weight gamma a solve may start at or move to
GAMMA_CAP = 1e14


@dataclass(frozen=True)
class PenaltyConfig:
    """The outer loop's schedule, checked when built; frozen: change it by ``dataclasses.replace``.

    Its fields are exactly the ``solve`` flags.  The start point's infeasibility and gamma are checked against
    the module constants ``FEAS_CHECK_TOL`` and ``GAMMA_CAP``."""

    eta: float = 0.5
    theta: float = 10.0
    gamma0: float = 1.0
    delta0: float = 0.1
    beta: float = 0.5
    tol_feas: float = 1e-8
    tol_opt: float = 1e-6
    max_outer: int = 60

    def __post_init__(self):
        require_real_fields(self)
        for name in ("gamma0", "theta", "tol_feas", "tol_opt"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite")
        if not (0 < self.eta < 1):
            raise InvalidInputError("eta must lie in (0, 1)")
        if not self.theta > 1:
            raise InvalidInputError("theta must exceed 1")
        if not 0 < self.gamma0 <= GAMMA_CAP:
            raise InvalidInputError(f"gamma0 must lie in (0, GAMMA_CAP] = (0, {GAMMA_CAP:g}]")
        if not (0 < self.delta0 < 1):
            raise InvalidInputError("delta0 must lie in (0, 1)")
        if not (0 < self.beta < 1):
            raise InvalidInputError("beta must lie in (0, 1)")
        if self.tol_feas < 0 or self.tol_opt < 0:
            raise InvalidInputError("tolerances must be nonnegative")
        require_int("max_outer", self.max_outer, 1)


@dataclass
class IterateRecord:
    k: int
    gamma: float
    delta: float
    u: float
    stationarity: float
    complementarity: float
    second_order: float
    subspace_dim: int
    f_value: float
    script_F_value: float
    script_F_at_start: float
    xhat_branch: str
    inner_iterations: int
    x: np.ndarray
    y: np.ndarray
    Z: np.ndarray


@dataclass
class SolveReport:
    problem: str
    config: PenaltyConfig
    iterates: list
    final_status: str
    b_count: int
    detail: str = ""
    wall_time_sec: float = 0.0

    @property
    def final(self) -> IterateRecord | None:
        return self.iterates[-1] if self.iterates else None


def next_gamma(k: int, gamma: float, u_next: float, u_prev: float, eta: float, theta: float) -> float:
    """Penalty-weight update: hold when k = 0 or u_next <= eta * u_prev, else multiply.

    With u_prev = 0 the comparison passes only when u_next is exactly 0.
    """
    if k == 0 or u_next <= eta * u_prev:
        return gamma
    return theta * gamma


def next_xhat(x_next: np.ndarray, script_F_next: float, f0: float, x0: np.ndarray) -> tuple[np.ndarray, str]:
    """Warm-start update: keep the new iterate unless its penalty value exceeds f(x0)."""
    if script_F_next <= f0:
        return x_next, BRANCH_ACCEPT
    return x0, BRANCH_RESET


def estimate_b_count(at: penalty.PenaltyPoint, u: float) -> int:
    """Rank of the near-null eigenspace of G at an approximate limit point.

    Counts eigenvalues of G (the negated ones of the point ``at``) below
    max(10 * u, classification tolerance); an active constraint approached
    from the infeasible side leaves eigenvalues of magnitude about u, which
    the plain classification tolerance would miss.
    """
    require_instance("at", at, penalty.PenaltyPoint)
    if at.dec is None:
        return 0
    cut = max(10.0 * u, default_zero_tol(at.dec))
    return int(np.sum(at.dec.values >= -cut))


def solve(prob: NsdpProblem, config: PenaltyConfig | None = None,
          b_count: int | None = None) -> SolveReport:
    """Run the outer penalty method on a problem with a feasible start.

    ``prob`` and ``config`` are checked when built; here only their types are
    checked, and only ``config=None`` selects ``PenaltyConfig()``.  ``b_count``
    is the trusted dimension of the null eigenspace of G at the limit, used for
    the second-order certificates; when omitted it is estimated from the final
    iterate.  Every record is built after the loop, from
    ``optimality.evaluate_residuals`` at the penalty point it was taken at, once per distinct point.
    """
    require_instance("prob", prob, NsdpProblem)
    cfg = PenaltyConfig() if config is None else config
    require_instance("config", cfg, PenaltyConfig)
    if b_count is not None:
        require_int("b_count", b_count, 0, prob.d)
    t0 = time.perf_counter()
    x0 = prob.start_point
    # (k, gamma, delta, start value, TrResult, branch, point) of every converged outer iteration
    steps = []
    xhat = x0
    gamma = cfg.gamma0
    params = penalty.special_params("script_F", gamma)  # stands for gamma: built again only when gamma moves
    delta = cfg.delta0
    status = MAX_OUTER
    detail = ""
    last = [None, None]  # the last point evaluated and its read-only Hessian, made on first request

    def at(z):
        point = last[0]
        if point is None or z.tobytes() != point.x.tobytes():
            last[:] = penalty.penalty_at(prob, z, params), None
        elif point.p is not params:  # only gamma moved: script_F's v, M and tau never change
            last[:] = point.reweighted(params), None
        return last[0]

    def hess(z):
        point = at(z)
        if last[1] is None:
            last[1] = read_only(penalty.penalty_hess(point))  # shared between calls, never copied
        return last[1]

    u0 = optimality.infeasibility_u(at(x0))
    if not u0 <= FEAS_CHECK_TOL:  # a NaN infeasibility is not feasible either
        raise StartNotFeasibleError(f"start point of {prob.name!r} has infeasibility {u0:.3e} > {FEAS_CHECK_TOL:.3e}")
    f0 = at(x0).f
    u_prev = u0

    for k in range(cfg.max_outer):
        start_value = at(xhat).value
        res = trustregion.tr_minimize(lambda z: at(z).value, lambda z: at(z).grad, hess, xhat, delta)
        if res.status != trustregion.CONVERGED:
            status = INNER_FAILURE
            detail = f"inner solver returned {res.status} at outer iteration {k}"
            break

        point = at(res.x)  # the point tr_minimize certified last, its gradient and dG stack made
        if prob.d > 0 and steps:
            point.share_dG(steps[-1][-1].dG)
        u_next = optimality.infeasibility_u(point)
        xhat, branch = next_xhat(res.x, res.value, f0, x0)
        steps.append((k + 1, gamma, delta, start_value, res, branch, point))

        if u_next <= cfg.tol_feas and delta <= cfg.tol_opt:
            status = FEAS_OPT_REACHED
            break

        gamma_next = next_gamma(k, gamma, u_next, u_prev, cfg.eta, cfg.theta)
        if gamma_next > GAMMA_CAP:
            status = INNER_FAILURE
            detail = f"penalty weight {gamma_next:.3e} exceeds cap {GAMMA_CAP:.3e}"
            break
        if gamma_next != gamma:
            gamma = gamma_next
            params = penalty.special_params("script_F", gamma)
        delta = cfg.beta * delta
        u_prev = u_next

    if b_count is None:
        b_count = estimate_b_count(steps[-1][-1], u_next) if steps else 0
    records = []
    certified = None  # the point of the last record; a repeated point repeats its certificate
    for k, gamma_k, delta_k, start_value, res, branch, point in steps:
        if point is not certified:
            certified = point
            cert, mult = optimality.evaluate_residuals(point, b_count)
        records.append(IterateRecord(
            k=k, gamma=gamma_k, delta=delta_k, u=cert.feasibility_u, stationarity=cert.stationarity,
            complementarity=cert.complementarity, second_order=cert.second_order, subspace_dim=cert.subspace_dim,
            f_value=point.f, script_F_value=res.value, script_F_at_start=start_value,
            xhat_branch=branch, inner_iterations=res.iterations, x=res.x, y=mult.y.copy(), Z=mult.Z.copy()))

    return SolveReport(
        problem=prob.name,
        config=cfg,
        iterates=records,
        final_status=status,
        b_count=int(b_count),
        detail=detail,
        wall_time_sec=time.perf_counter() - t0,
    )
