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
the iteration cap, or on inner-solver failure / gamma blow-up; then each
iterate's record is built from one ``optimality.evaluate_residuals`` call at
its kept point.

Each (gamma, x) of a solve is evaluated once: one ``penalty.penalty_at``
point (one G, one eigendecomposition, one dG stack) keeps the penalty value
and gradient and feeds the Hessian, and an outer iteration that keeps gamma
and starts where the previous one ended reuses them.  The start point's
infeasibility and every iterate's certificates read the same points:
``penalty_at`` is the only caller of G and of the eigensolver in a solve.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import optimality, penalty, trustregion
from .errors import InvalidInputError, StartNotFeasibleError, require_int
from .matfun import default_zero_tol
from .model import NsdpProblem, _real

FEAS_OPT_REACHED = "FeasOptReached"
MAX_OUTER = "MaxOuter"
INNER_FAILURE = "InnerFailure"

BRANCH_ACCEPT = "accept"
BRANCH_RESET = "reset"


@dataclass
class PenaltyConfig:
    eta: float = 0.5
    theta: float = 10.0
    gamma0: float = 1.0
    delta0: float = 0.1
    beta: float = 0.5
    tol_feas: float = 1e-8
    tol_opt: float = 1e-6
    max_outer: int = 60
    feas_check_tol: float = 1e-8
    gamma_cap: float = 1e14
    tr: trustregion.TrConfig = field(default_factory=trustregion.TrConfig)

    def validate(self):
        for name in ("gamma0", "theta", "tol_feas", "tol_opt", "feas_check_tol", "gamma_cap"):
            if not np.isfinite(getattr(self, name)):
                raise InvalidInputError(f"{name} must be finite")
        if not (0 < self.eta < 1):
            raise InvalidInputError("eta must lie in (0, 1)")
        if not self.theta > 1:
            raise InvalidInputError("theta must exceed 1")
        if not self.gamma0 > 0:
            raise InvalidInputError("gamma0 must be positive")
        if not self.gamma_cap >= self.gamma0:
            raise InvalidInputError("gamma_cap must be at least gamma0")
        if not (0 < self.delta0 < 1):
            raise InvalidInputError("delta0 must lie in (0, 1)")
        if not (0 < self.beta < 1):
            raise InvalidInputError("beta must lie in (0, 1)")
        if self.tol_feas < 0 or self.tol_opt < 0 or self.feas_check_tol < 0:
            raise InvalidInputError("tolerances must be nonnegative")
        require_int("max_outer", self.max_outer, 1)
        self.tr.validate()
        return self


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
    if at.dec is None:
        return 0
    cut = max(10.0 * u, default_zero_tol(at.dec))
    return int(np.sum(at.dec.values >= -cut))


def solve(prob: NsdpProblem, config: PenaltyConfig | None = None,
          b_count: int | None = None) -> SolveReport:
    """Run the outer penalty method on a problem with a feasible start.

    ``b_count`` is the trusted dimension of the null eigenspace of G at the
    limit, used for the second-order certificates; when omitted it is
    estimated from the final iterate.  Every record is built after the loop,
    from ``optimality.evaluate_residuals`` at the penalty point it was taken at.
    """
    cfg = (config or PenaltyConfig()).validate()
    if b_count is not None:
        require_int("b_count", b_count, 0, prob.d)
    needed = (("hess_f", True), ("hess_g", prob.m > 0), ("d2G", prob.d > 0))
    missing = [hook for hook, used in needed if used and getattr(prob, hook) is None]
    if missing:
        raise InvalidInputError(f"problem {prob.name!r} has no {', '.join(missing)} hook; "
                                "supply it or build the problem with fd_second_order=True")
    t0 = time.perf_counter()
    x0 = np.atleast_1d(np.asarray(prob.start_point, dtype=float))
    # (k, gamma, delta, start value, TrResult, branch, point) of every converged outer iteration
    steps = []
    xhat = x0
    gamma = cfg.gamma0
    delta = cfg.delta0
    status = MAX_OUTER
    detail = ""

    def once_per_point(evaluate):
        # keeps the last (gamma, z) and its result, so a repeated point is not
        # recomputed; gamma is that of the current outer iteration
        last = [None, None]

        def memo(z):
            key = gamma, z.tobytes()
            if key != last[0]:
                result = evaluate(z)
                if isinstance(result, np.ndarray):
                    result.flags.writeable = False  # shared between calls, never copied
                last[:] = key, result
            return last[1]
        return memo

    at = once_per_point(lambda z: penalty.penalty_at(prob, z, penalty.special_params("script_F", gamma)))
    hess = once_per_point(lambda z: penalty.penalty_hess(at(z)))

    u0 = optimality.infeasibility_u(at(x0))
    if u0 > cfg.feas_check_tol:
        raise StartNotFeasibleError(
            f"start point of {prob.name!r} has infeasibility {u0:.3e} > {cfg.feas_check_tol:.3e}")
    f0 = float(_real("f", prob.f(x0), ()))
    u_prev = u0

    for k in range(cfg.max_outer):
        start_value = at(xhat).value
        res = trustregion.tr_minimize(lambda z: at(z).value, lambda z: at(z).grad, hess, xhat, delta, cfg.tr)
        if res.status != trustregion.CONVERGED:
            status = INNER_FAILURE
            detail = f"inner solver returned {res.status} at outer iteration {k}"
            break

        point = at(res.x)  # the point tr_minimize certified last
        u_next = optimality.infeasibility_u(point)
        xhat, branch = next_xhat(res.x, res.value, f0, x0)
        steps.append((k + 1, gamma, delta, start_value, res, branch, point))

        if u_next <= cfg.tol_feas and delta <= cfg.tol_opt:
            status = FEAS_OPT_REACHED
            break

        gamma_next = next_gamma(k, gamma, u_next, u_prev, cfg.eta, cfg.theta)
        if gamma_next > cfg.gamma_cap:
            status = INNER_FAILURE
            detail = f"penalty weight {gamma_next:.3e} exceeds cap {cfg.gamma_cap:.3e}"
            break
        gamma = gamma_next
        delta = cfg.beta * delta
        u_prev = u_next

    if b_count is None:
        b_count = estimate_b_count(steps[-1][-1], u_next) if steps else 0
    records = []
    for k, gamma_k, delta_k, start_value, res, branch, point in steps:
        cert, mult = optimality.evaluate_residuals(point, b_count)
        records.append(IterateRecord(
            k=k, gamma=gamma_k, delta=delta_k, u=cert.feasibility_u, stationarity=cert.stationarity,
            complementarity=cert.complementarity, second_order=cert.second_order, subspace_dim=cert.subspace_dim,
            f_value=float(_real("f", prob.f(res.x), ())), script_F_value=res.value, script_F_at_start=start_value,
            xhat_branch=branch, inner_iterations=res.iterations, x=res.x, y=mult.y, Z=mult.Z))

    return SolveReport(
        problem=prob.name,
        config=replace(cfg),
        iterates=records,
        final_status=status,
        b_count=int(b_count),
        detail=detail,
        wall_time_sec=time.perf_counter() - t0,
    )
