"""Trust-region Newton minimizer targeting second-order stationarity.

The subproblem min g^T p + p^T B p / 2 over ||p|| <= radius is solved
near-exactly in the eigenbasis of B (dimensions here are small), including
the hard case, so that the outer loop can certify both a gradient bound and
an eigenvalue bound at termination.
"""

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import InvalidInputError
from .matfun import symmetrize

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
RADIUS_COLLAPSE = "RadiusCollapse"


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
        if not (0 < self.eta1 < self.eta2 < 1):
            raise InvalidInputError("need 0 < eta1 < eta2 < 1")
        if not (self.shrink < 1 < self.grow):
            raise InvalidInputError("need shrink < 1 < grow")


@dataclass
class TrResult:
    x: np.ndarray
    value: float
    grad_norm: float
    min_hess_eig: float
    iterations: int
    status: str


def ms_subproblem(B, grad, radius: float) -> np.ndarray:
    """Near-exact solution of the trust-region subproblem.

    Returns p with (B + lam*I) p = -grad for some lam >= 0 such that
    B + lam*I is PSD, ||p|| <= radius (to ~1e-8 relative) and
    lam * (radius - ||p||) = 0.  The hard case (gradient orthogonal to the
    bottom eigenspace of an indefinite B) is resolved by stepping along the
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

    w, Q = np.linalg.eigh(B)  # ascending
    gbar = Q.T @ grad
    wmin = float(w[0])

    # interior Newton step when B is positive definite and the step fits
    if wmin > 0:
        p = Q @ (-gbar / w)
        if np.linalg.norm(p) <= radius * (1 + 1e-12):
            return p

    lam_lb = max(0.0, -wmin)
    # shifted spectrum: wshift[0] is exactly 0 when B is indefinite, so the
    # denominators wshift + eta never suffer the cancellation of w + lam
    wshift = w + lam_lb
    scale = max(1.0, float(np.max(np.abs(w))))
    cluster = w - wmin <= 1e-13 * scale
    g_cluster = float(np.linalg.norm(gbar[cluster]))

    if g_cluster <= 1e-13 * max(1.0, float(np.linalg.norm(gbar))):
        # gradient (numerically) orthogonal to the bottom eigenspace
        coeff = np.zeros(n)
        free = ~cluster
        coeff[free] = -gbar[free] / wshift[free]
        norm_tilde = float(np.linalg.norm(coeff))
        if norm_tilde <= radius:
            if lam_lb == 0.0:
                return Q @ coeff  # interior: B PSD, lam = 0
            tau = np.sqrt(max(radius**2 - norm_tilde**2, 0.0))
            return Q @ coeff + tau * Q[:, 0]
    eta = _boundary_offset(gbar, wshift, radius, scale)
    return Q @ (-gbar / (wshift + eta))


def _boundary_offset(gbar, wshift, radius, scale):
    """Root of ||p(eta)|| = radius in the offset eta = lam - lam_lb > 0.

    Working in the offset keeps roots close to the pole at full relative
    precision; a Newton polish on the reciprocal-norm equation then pushes
    the boundary mismatch down to evaluation noise.
    """

    def norm_at(eta):
        # an exact pole gives inf, which the bracketing logic handles
        with np.errstate(divide="ignore"):
            return float(np.linalg.norm(gbar / (wshift + eta)))

    lo = max(1e-16 * scale, 1e-300)
    while norm_at(lo) <= radius:
        # numerically at/below the boundary already: shrink the offset
        lo *= 0.01
        if lo < 1e-280:
            return lo
    hi = max(scale, 1.0)
    while norm_at(hi) >= radius:
        hi = hi * 2 + 1.0

    def phi(eta):
        return 1.0 / radius - 1.0 / norm_at(eta)

    eta = brentq(phi, lo, hi, xtol=1e-300, rtol=8.9e-16, maxiter=200)
    # Newton polish: phi is smooth and nearly linear in eta near the root
    for _ in range(3):
        denom = wshift + eta
        coeff = gbar / denom
        nrm = float(np.linalg.norm(coeff))
        if nrm == 0.0 or not np.isfinite(nrm):
            break
        s3 = float(np.sum(coeff**2 / denom))
        if s3 <= 0.0 or not np.isfinite(s3):
            break
        step = (nrm - radius) * nrm**2 / (radius * s3)
        if not np.isfinite(step) or eta + step <= 0.0:
            break
        eta += step
    return eta


def tr_minimize(fun, grad, hess, x0, delta: float, config: TrConfig | None = None) -> TrResult:
    """Minimize a twice-differentiable function until both certificates hold.

    Terminates with status ``Converged`` at a point x where
    ``||grad(x)|| <= delta`` and ``lambda_min(hess(x)) >= -delta``.  Accepted
    iterates decrease the objective monotonically.  ``MaxIter`` and
    ``RadiusCollapse`` report failure; the best point found is returned.

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
    cfg = config or TrConfig()
    x = np.atleast_1d(np.asarray(x0, dtype=float)).copy()
    radius = cfg.delta0_radius
    f_x = float(fun(x))
    g_x = np.atleast_1d(np.asarray(grad(x), dtype=float))
    H_x = symmetrize(np.asarray(hess(x), dtype=float))
    lam_min = float(np.linalg.eigvalsh(H_x)[0])

    for it in range(cfg.max_iter):
        gnorm = float(np.linalg.norm(g_x))
        if gnorm <= delta and lam_min >= -delta:
            return TrResult(x=x, value=f_x, grad_norm=gnorm, min_hess_eig=lam_min,
                            iterations=it, status=CONVERGED)
        if radius < cfg.radius_min:
            return TrResult(x=x, value=f_x, grad_norm=gnorm, min_hess_eig=lam_min,
                            iterations=it, status=RADIUS_COLLAPSE)
        p = ms_subproblem(H_x, g_x, radius)
        pred = -(float(g_x @ p) + 0.5 * float(p @ H_x @ p))
        x_new = x + p
        f_new = float(fun(x_new))
        noise = 8.0 * np.finfo(float).eps * (1.0 + abs(f_x))
        if pred <= noise:
            # the model predicts a change below evaluation precision; the
            # ratio test carries no signal there, so take the (near-Newton)
            # step as long as it does not measurably increase the objective
            if np.isfinite(f_new) and f_new <= f_x + noise:
                x, f_x = x_new, f_new
                g_x = np.atleast_1d(np.asarray(grad(x), dtype=float))
                H_x = symmetrize(np.asarray(hess(x), dtype=float))
                lam_min = float(np.linalg.eigvalsh(H_x)[0])
            else:
                radius *= cfg.shrink
            continue
        ratio = (f_x - f_new) / pred if np.isfinite(f_new) else -np.inf
        if ratio >= cfg.eta1:
            x, f_x = x_new, f_new
            g_x = np.atleast_1d(np.asarray(grad(x), dtype=float))
            H_x = symmetrize(np.asarray(hess(x), dtype=float))
            lam_min = float(np.linalg.eigvalsh(H_x)[0])
            if ratio >= cfg.eta2 and np.linalg.norm(p) >= 0.99 * radius:
                radius *= cfg.grow
        else:
            radius *= cfg.shrink

    gnorm = float(np.linalg.norm(g_x))
    return TrResult(x=x, value=f_x, grad_norm=gnorm, min_hess_eig=lam_min,
                    iterations=cfg.max_iter, status=MAX_ITER)
