"""Trust-region Newton minimizer targeting second-order stationarity.

The subproblem min g^T p + p^T B p / 2 over ||p|| <= radius is solved
near-exactly.  Its common case, a positive definite B whose Newton step fits
the radius, is taken from a Cholesky factorization of B; every other case
(a boundary step, an indefinite or singular B, the hard case) is solved in
the eigenbasis of B, so that the outer loop can certify both a gradient
bound and an eigenvalue bound at termination.  The eigenvalue is computed
only where the gradient bound already holds, since elsewhere it cannot
change the decision.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, require_int
from .matfun import _norm, _pow2_unit, symmetrize

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
RADIUS_COLLAPSE = "RadiusCollapse"

# cap on the Newton steps for a boundary root; from the far-left start the
# iteration has needed at most a dozen on random secular equations
_NEWTON_MAX_STEPS = 50


@dataclass
class TrConfig:
    delta0_radius: float = 1.0
    max_iter: int = 10000
    eta1: float = 0.1
    eta2: float = 0.75
    shrink: float = 0.25
    grow: float = 2.0
    radius_min: float = 1e-14

    def __post_init__(self):
        self.validate()

    def validate(self):
        if not (0 < self.delta0_radius < np.inf and 0 <= self.radius_min < np.inf):
            raise InvalidInputError("need finite delta0_radius > 0 and radius_min >= 0")
        require_int("max_iter", self.max_iter, 1)
        if not (0 < self.eta1 < self.eta2 < 1):
            raise InvalidInputError("need 0 < eta1 < eta2 < 1")
        if not (0 < self.shrink < 1 < self.grow < np.inf):
            raise InvalidInputError("need 0 < shrink < 1 < grow < inf")
        return self


@dataclass
class TrResult:
    x: np.ndarray
    value: float
    grad_norm: float
    iterations: int
    status: str


def ms_subproblem(B, grad, radius: float) -> np.ndarray:
    """Near-exact solution of the trust-region subproblem.

    Returns p with (B + lam*I) p = -grad for some lam >= 0 such that
    B + lam*I is PSD, ||p|| <= radius and lam * (radius - ||p||) = 0; a
    boundary step has ||p|| = radius to a few ulps.

    Factor first (Moré & Sorensen 1983): when a Cholesky factorization of B
    succeeds and the Newton step solving B p = -grad is finite and fits the
    radius, that step is returned with lam = 0, and no eigendecomposition is
    made.  Otherwise B is eigendecomposed.  A boundary step's lam comes from
    Newton's method on the secular equation, which relies on 1/||p(lam)||
    being concave.  The hard case (gradient orthogonal to the bottom
    eigenspace of an indefinite B) is resolved by stepping along the
    eigenvector of the smallest eigenvalue.
    """
    B = np.asarray(B, dtype=float)
    grad = np.atleast_1d(np.asarray(grad, dtype=float))
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(grad)) and np.isfinite(radius)):
        raise InvalidInputError("ms_subproblem requires finite inputs")
    if not radius > 0:
        raise InvalidInputError("radius must be positive")
    B = symmetrize(B)
    n = grad.shape[0]
    if B.shape != (n, n):
        raise InvalidInputError(f"B must be {n}x{n}, got {B.shape}")

    # factor first: a Cholesky factorization certifies B positive definite.  numpy's linalg reports
    # a failed factorization or solve as LinAlgError, not as a warning, and a step that overflows
    # has the norm inf, which fails the fit test; each of these falls through to the eigen path
    try:
        np.linalg.cholesky(B)
        p = np.linalg.solve(B, -grad)
        if _norm(p) <= radius * (1 + 1e-12):
            return p
    except np.linalg.LinAlgError:
        pass

    w, Q = np.linalg.eigh(B)  # ascending
    gbar = Q.T @ grad
    wmin = float(w[0])

    # interior Newton step when B is positive definite and the step fits; a step that
    # overflows has the norm inf or nan, which fails the test, and is left to the boundary path
    if wmin > 0:
        with np.errstate(over="ignore", invalid="ignore"):
            p = Q @ (-gbar / w)
        if _norm(p) <= radius * (1 + 1e-12):
            return p

    lam_lb = max(0.0, -wmin)
    # shifted spectrum: wshift[0] is exactly 0 when B is indefinite, so the
    # denominators wshift + eta never suffer the cancellation of w + lam
    wshift = w + lam_lb
    scale = max(1.0, float(np.max(np.abs(w))))
    cluster = w - wmin <= 1e-13 * scale
    g_cluster = _norm(gbar[cluster])

    if g_cluster <= 1e-13 * max(1.0, _norm(gbar)):
        # gradient (numerically) orthogonal to the bottom eigenspace
        coeff = np.zeros(n)
        free = ~cluster
        coeff[free] = -gbar[free] / wshift[free]
        norm_tilde = _norm(coeff)
        if norm_tilde <= radius:
            if lam_lb == 0.0:
                return Q @ coeff  # interior: B PSD, lam = 0
            tau = math.sqrt(radius - norm_tilde) * math.sqrt(radius + norm_tilde)
            return Q @ coeff + tau * Q[:, 0]
    eta = _boundary_offset(gbar, wshift, radius, scale)
    return Q @ (-gbar / (wshift + eta))


def _boundary_offset(gbar, wshift, radius, scale):
    """Root of ||p(eta)|| = radius in the offset eta = lam - lam_lb > 0.

    Working in the offset keeps roots close to the pole at full relative
    precision.  The root is found by Newton's method on the secular equation
    1/radius - 1/||p(eta)|| = 0 (Moré & Sorensen 1983): 1/||p(eta)|| is
    concave and increasing in eta, so Newton started left of the root climbs
    to it monotonically and stops on the boundary to a few ulps.
    """
    # the last term bounds |gbar / (wshift + eta)| by 2**1000, so the start check cannot overflow
    eta = max(1e-16 * scale, 1e-300, math.ldexp(float(np.max(np.abs(gbar))), -1000))
    if radius > 1024.0:
        # p(eta) scales with gbar, so the root is unchanged when gbar and the radius are taken in
        # units of the exact power of two that brings the radius below 1; then neither ||p|| nor
        # radius * sum(coeff**2 / denom) can overflow.  Below 1024 the latter stays under
        # 1024 * n * 1e300 (eta >= 1e-300), so the scaling, exact only while gbar * unit stays
        # normal, is skipped there and those iterates keep their rounding
        unit = _pow2_unit(radius)
        gbar, radius = gbar * unit, radius * unit
    while _norm(gbar / (wshift + eta)) <= radius:
        # numerically at/below the boundary already: shrink the offset
        eta *= 0.01
        if eta < 1e-280:
            return eta
    for _ in range(_NEWTON_MAX_STEPS):
        denom = wshift + eta
        coeff = gbar / denom
        # rescaled, so that no square overflows however far left the start lies
        unit = _pow2_unit(coeff)
        coeff *= unit
        nrm = float(np.linalg.norm(coeff))  # ||p(eta)|| * unit
        step = (nrm / unit - radius) * nrm**2 / (radius * float(np.sum(coeff**2 / denom)))
        if not (np.isfinite(step) and step > 4 * np.finfo(float).eps * eta):
            break
        eta += step
    return eta


def tr_minimize(fun, grad, hess, x0, delta: float, config: TrConfig | None = None) -> TrResult:
    """Minimize a twice-differentiable function until both certificates hold.

    Terminates with status ``Converged`` at a point x where
    ``||grad(x)|| <= delta`` and ``lambda_min(hess(x)) >= -delta``; lambda_min
    is computed once per start or accepted point, and only where ||grad|| <= delta.
    Accepted iterates decrease the objective monotonically.  ``MaxIter`` and
    ``RadiusCollapse`` report failure; the best point found is returned.
    A trial point whose value, gradient or Hessian raises an ArithmeticError or
    ValueError or is not finite is rejected; at the start point these propagate.

    Parameters
    ----------
    fun, grad, hess : callables
        Objective value, gradient and (symmetric) Hessian hooks.  Their
        results are only read, never written into, so a hook may return
        a cached array.
    x0 : array_like
        Start point.
    delta : float
        Certificate tolerance, in (0, 1).
    config : TrConfig, optional
        Radius-management constants.
    """
    if not (0 < delta < 1):
        raise InvalidInputError("delta must lie in (0, 1)")
    cfg = (config or TrConfig()).validate()

    def derivatives(z):
        # gradient, its norm, Hessian and both certificates; `and` skips the eigensolve if ||g|| > delta
        g_z = np.atleast_1d(np.asarray(grad(z), dtype=float))
        H_z = symmetrize(np.asarray(hess(z), dtype=float))
        if not (np.all(np.isfinite(g_z)) and np.all(np.isfinite(H_z))):
            raise InvalidInputError("gradient or Hessian has non-finite entries")
        gnorm_z = _norm(g_z)
        return g_z, gnorm_z, H_z, gnorm_z <= delta and np.linalg.eigvalsh(H_z)[0] >= -delta

    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    radius = cfg.delta0_radius
    f_x = float(fun(x))
    g_x, gnorm, H_x, certified = derivatives(x)

    for it in range(cfg.max_iter):
        if certified or radius < cfg.radius_min:
            status = CONVERGED if certified else RADIUS_COLLAPSE
            break
        p = ms_subproblem(H_x, g_x, radius)
        pred = -(float(g_x @ p) + 0.5 * float(p @ H_x @ p))
        x_new = x + p
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(f_x))
        try:
            f_new = float(fun(x_new))
            if pred <= noise:
                # the model predicts a change below evaluation precision; the
                # ratio test carries no signal there, so take the (near-Newton)
                # step as long as it does not measurably increase the objective
                accept, grow = np.isfinite(f_new) and f_new <= f_x + noise, False
            else:
                ratio = (f_x - f_new) / pred if np.isfinite(f_new) else -np.inf
                accept = ratio >= cfg.eta1
                grow = ratio >= cfg.eta2 and _norm(p) >= 0.99 * radius
            new_derivatives = derivatives(x_new) if accept else None
        except (ArithmeticError, ValueError):  # InvalidInputError and LinAlgError are ValueErrors
            accept = False  # a hook failed at the trial point
        if not accept:
            radius *= cfg.shrink
            continue
        x, f_x = x_new, f_new
        g_x, gnorm, H_x, certified = new_derivatives
        if grow:
            radius *= cfg.grow
    else:
        it, status = cfg.max_iter, MAX_ITER
    return TrResult(x=x, value=f_x, grad_norm=gnorm, iterations=it, status=status)
