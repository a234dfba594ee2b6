"""Trust-region Newton minimizer targeting second-order stationarity.

The subproblem min g^T p + p^T B p / 2 over ||p|| <= radius is solved
near-exactly.  Its common case, a positive definite B whose Newton step fits
the radius, is taken from a Cholesky factorization of B; every other case
(a boundary step, an indefinite or singular B, the hard case) is solved in
the eigenbasis of B, so that the outer loop can certify both a gradient
bound and an eigenvalue bound at termination.  The eigenvalue bound is
computed only where the gradient bound already holds, since elsewhere it
cannot change the decision, and is certified by a Cholesky factorization of
the shifted Hessian; ``eigvalsh`` decides only where that factorization fails.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, real_array, require_instance, require_int, require_real, require_real_fields
from .matfun import _norm, _pow2_unit, symmetrize

CONVERGED = "Converged"
MAX_ITER = "MaxIter"
RADIUS_COLLAPSE = "RadiusCollapse"

# cap on the Newton steps for a boundary root; from the far-left start the
# iteration has needed at most a dozen on random secular equations
_NEWTON_MAX_STEPS = 50
# the step rule of tr_minimize: the start radius; a trial is accepted when its ratio of actual to predicted
# decrease reaches ETA1, and a boundary step grows the radius by GROW when the ratio reaches ETA2; a rejected
# trial shrinks it by SHRINK
DELTA0_RADIUS = 1.0
ETA1 = 0.1
ETA2 = 0.75
SHRINK = 0.25
GROW = 2.0


@dataclass(frozen=True)
class TrConfig:
    """The stopping limits of ``tr_minimize``: its iteration cap and the radius below which it reports
    ``RadiusCollapse``.  Its step rule is fixed by the module constants ``DELTA0_RADIUS``, ``ETA1``, ``ETA2``,
    ``SHRINK`` and ``GROW``.  Checked when built; frozen, so change a field with ``dataclasses.replace``."""

    max_iter: int = 10000
    radius_min: float = 1e-14

    def __post_init__(self):
        require_real_fields(self)
        if not 0 <= self.radius_min < np.inf:
            raise InvalidInputError("need finite radius_min >= 0")
        require_int("max_iter", self.max_iter, 1)


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
    made; it is the only interior Newton step.  Otherwise B is
    eigendecomposed.  A boundary step's lam comes from Newton's method on the
    secular equation, which relies on 1/||p(lam)|| being concave; a fitting
    Newton step of a positive definite B that failed to factor gets lam below
    1e-280 there.  The hard case (gradient orthogonal to the bottom
    eigenspace) steps along the bottom eigenvector, or is interior.
    """
    grad = np.atleast_1d(real_array("grad", grad))
    if grad.ndim != 1 or grad.size == 0:
        raise InvalidInputError(f"grad must be a vector of at least one entry, got shape {grad.shape}")
    n = grad.shape[0]
    B = real_array("B", B, (n, n))
    require_real("radius", radius)
    if not (np.isfinite(B).all() and np.isfinite(grad).all() and np.isfinite(radius)):
        raise InvalidInputError("ms_subproblem requires finite inputs")
    if not radius > 0:
        raise InvalidInputError("radius must be positive")
    B = symmetrize(B)

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


def _second_order_certified(H: np.ndarray, delta: float) -> bool:
    """Whether lambda_min(H) >= -delta, for a finite symmetric H.

    A successful ``np.linalg.cholesky(H + delta I)`` certifies it: the
    factorization is backward stable, so it succeeds only if H + delta I is
    positive definite up to a perturbation of order n u ||H|| (Higham,
    *Accuracy and Stability of Numerical Algorithms*, 2002, ch. 10), the
    order of ``eigvalsh``'s own error.  Where it fails (LAPACK reports a
    non-positive or NaN pivot as ``LinAlgError``, never as a warning), the
    smallest eigenvalue from ``eigvalsh`` decides.
    """
    try:
        np.linalg.cholesky(H + delta * np.eye(H.shape[0]))
        return True
    except np.linalg.LinAlgError:
        return bool(np.linalg.eigvalsh(H)[0] >= -delta)


def tr_minimize(fun, grad, hess, x0, delta: float, config: TrConfig | None = None) -> TrResult:
    """Minimize a twice-differentiable function until both certificates hold.

    Terminates with status ``Converged`` at a point x where
    ``||grad(x)|| <= delta`` and ``lambda_min(hess(x)) >= -delta``.  The
    eigenvalue bound is checked once per start or accepted point, and only where
    ||grad|| <= delta: a successful Cholesky factorization of hess(x) + delta I
    certifies it, and ``eigvalsh`` decides only where that factorization fails.
    Accepted iterates decrease the objective monotonically.  ``MaxIter`` and
    ``RadiusCollapse`` report failure; the best point found is returned.
    A trial point whose value, gradient or Hessian raises an ArithmeticError or ValueError, or is not
    finite, real and of its shape, is rejected; at the start point these propagate.

    Parameters
    ----------
    fun, grad, hess : callables
        Objective value (a scalar), gradient (n,) and (symmetric) Hessian (n, n)
        hooks.  Their results are only read, never written into, so a hook may
        return a cached array.
    x0 : array_like
        Start point of n entries (a scalar when n = 1).
    delta : float
        Certificate tolerance, in (0, 1).
    config : TrConfig, optional
        Iteration cap and radius floor; None (only None) selects ``TrConfig()``.
    """
    require_real("delta", delta)
    if not (0 < delta < 1):
        raise InvalidInputError("delta must lie in (0, 1)")
    cfg = TrConfig() if config is None else config
    require_instance("config", cfg, TrConfig)
    x = np.atleast_1d(real_array("x0", x0)).copy()
    if x.ndim != 1 or x.size == 0:
        raise InvalidInputError(f"x0 must be a vector of at least one entry, got shape {x.shape}")
    n = x.size

    def derivatives(z):
        # gradient, its norm, Hessian and both certificates; `and` skips the second-order one if ||g|| > delta
        g_z = real_array("grad", grad(z), (n,))
        H_z = symmetrize(real_array("hess", hess(z), (n, n)))
        if not (np.isfinite(g_z).all() and np.isfinite(H_z).all()):
            raise InvalidInputError("gradient or Hessian has non-finite entries")
        gnorm_z = _norm(g_z)
        return g_z, gnorm_z, H_z, gnorm_z <= delta and _second_order_certified(H_z, delta)

    radius = DELTA0_RADIUS
    f_x = float(real_array("fun", fun(x), ()))
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
            f_new = float(real_array("fun", fun(x_new), ()))
            if pred <= noise:
                # the model predicts a change below evaluation precision; the
                # ratio test carries no signal there, so take the (near-Newton)
                # step as long as it does not measurably increase the objective
                accept, grow = np.isfinite(f_new) and f_new <= f_x + noise, False
            else:
                ratio = (f_x - f_new) / pred if np.isfinite(f_new) else -np.inf
                accept = ratio >= ETA1
                grow = ratio >= ETA2 and _norm(p) >= 0.99 * radius
            new_derivatives = derivatives(x_new) if accept else None
        except (ArithmeticError, ValueError):  # InvalidInputError and LinAlgError are ValueErrors
            accept = False  # a hook failed at the trial point
        if not accept:
            radius *= SHRINK
            continue
        x, f_x = x_new, f_new
        g_x, gnorm, H_x, certified = new_derivatives
        if grow:
            radius *= GROW
    else:
        it, status = cfg.max_iter, MAX_ITER
    return TrResult(x=x, value=f_x, grad_norm=gnorm, iterations=it, status=status)
