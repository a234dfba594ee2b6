"""Problem abstraction for nonlinear SDPs.

A problem bundles twice-differentiable hooks for the objective f, equality
constraints g (optional, m = 0 when absent) and a symmetric-matrix constraint
G (optional, d = 0 when absent), together with the linear operators built on
the partial derivatives of G.  Hooks must be reentrant and side-effect-free.
"""

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .matfun import symmetrize

FD_STEP_SECOND_ORDER = 1e-5


def _vec(x, n: int, name: str = "x") -> np.ndarray:
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (n,):
        raise InvalidInputError(f"{name} must have shape ({n},), got {x.shape}")
    return x


def _central_diff(hook: str, fn, x: np.ndarray, step: float, i: int | None = None) -> np.ndarray:
    """(fn(x + h_i e_i) - fn(x - h_i e_i)) / (2 h_i) with h = step * (1 + |x|).

    For one coordinate i, or stacked over all i along a new leading axis.
    This is the one finite-difference routine of the package; fn's outputs
    are read as the output of ``hook``, so complex output raises.
    """
    x = np.asarray(x, dtype=float)
    if i is None:
        return np.stack([_central_diff(hook, fn, x, step, i) for i in range(x.size)])
    e = np.zeros(x.size)
    e[i] = step * (1.0 + abs(x[i]))
    return (_real(hook, fn(x + e)) - _real(hook, fn(x - e))) / (2 * e[i])


@dataclass
class NsdpProblem:
    """Problem data: minimize f(x) subject to g(x) = 0 and G(x) PSD.

    Jacobian convention: ``jac_g(x)`` is n x m with column j equal to the
    gradient of g_j.  ``dG(x, i)`` is the partial derivative of G in x_i and
    ``d2G(x, i, j)`` the second partial; both return symmetric d x d arrays.

    Second-derivative hooks may be omitted by passing
    ``fd_second_order=True``; they are then synthesized by central
    differences of the first-derivative hooks with per-coordinate step
    ``1e-5 * (1 + |x_i|)``.
    """

    name: str
    n: int
    m: int
    d: int
    start_point: np.ndarray
    f: Callable[[np.ndarray], float]
    grad_f: Callable[[np.ndarray], np.ndarray]
    hess_f: Callable[[np.ndarray], np.ndarray] | None = None
    g: Callable[[np.ndarray], np.ndarray] | None = None
    jac_g: Callable[[np.ndarray], np.ndarray] | None = None
    hess_g: Callable[[np.ndarray, int], np.ndarray] | None = None
    G: Callable[[np.ndarray], np.ndarray] | None = None
    dG: Callable[[np.ndarray, int], np.ndarray] | None = None
    d2G: Callable[[np.ndarray, int, int], np.ndarray] | None = None
    fd_second_order: bool = field(default=False)

    def __post_init__(self):
        self.start_point = _vec(self.start_point, self.n, "start_point")
        if self.m > 0 and (self.g is None or self.jac_g is None):
            raise InvalidInputError(f"problem {self.name!r}: m > 0 requires g and jac_g hooks")
        if self.d > 0 and (self.G is None or self.dG is None):
            raise InvalidInputError(f"problem {self.name!r}: d > 0 requires G and dG hooks")
        if self.fd_second_order:
            if self.hess_f is None:
                self.hess_f = self._fd_hess_f
            if self.m > 0 and self.hess_g is None:
                self.hess_g = self._fd_hess_g
            if self.d > 0 and self.d2G is None:
                self.d2G = self._fd_d2G

    # synthesized second derivatives (central differences of first-derivative hooks)
    def _fd_hess_f(self, x):
        return symmetrize(_central_diff("grad_f", self.grad_f, x, FD_STEP_SECOND_ORDER))

    def _fd_hess_g(self, x, j):
        return symmetrize(_central_diff("jac_g", lambda z: self.jac_g(z)[:, j], x, FD_STEP_SECOND_ORDER))

    def _fd_d2G(self, x, i, j):
        Dij = _central_diff("dG", lambda z: self.dG(z, i), x, FD_STEP_SECOND_ORDER, j)
        Dji = _central_diff("dG", lambda z: self.dG(z, j), x, FD_STEP_SECOND_ORDER, i)
        return symmetrize(0.5 * (Dij + Dji))


def _real(hook: str, value) -> np.ndarray:
    """A hook's output as a float array; complex, ragged or non-numeric output raises ``InvalidInputError``."""
    try:
        out = np.asarray(value)
    except ValueError:
        raise InvalidInputError(f"{hook} returned ragged output") from None
    if out.dtype.kind not in "biuf":
        raise InvalidInputError(f"{hook} must return real numbers, got {out.dtype} output")
    return out.astype(float, copy=False)


def _gather(hook: str, entries: list, d: int) -> np.ndarray:
    """Hook outputs as one (k, d, d) float array, built by a single ``np.asarray`` call."""
    out = _real(hook, entries)
    if out.shape[1:] != (d, d):
        raise InvalidInputError(f"{hook} must return {d} x {d} arrays, got {out.shape[1:]}")
    return out


def _dG_stack(prob: NsdpProblem, x: np.ndarray) -> np.ndarray:
    """The n partial derivatives dG(x, i), symmetrized, as one (n, d, d) array."""
    Gs = _gather("dG", [prob.dG(x, i) for i in range(prob.n)], prob.d)
    return 0.5 * (Gs + Gs.transpose(0, 2, 1))


def dG_adjoint(Gs: np.ndarray, Z) -> np.ndarray:
    """Adjoint of the directional derivative: component i is <Gs[i], Z> for the (n, d, d) stack Gs of dG(x, i)."""
    n, d = Gs.shape[:2]
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (d, d):
        raise InvalidInputError(f"Z must have shape ({d}, {d}), got {Z.shape}")
    return Gs.reshape(n, -1) @ Z.ravel()


def d2G_contract(prob: NsdpProblem, x, W) -> np.ndarray:
    """The symmetric n x n matrix [<d2G(x, i, j), W>]_ij.

    One ``d2G`` call per upper-triangle entry, row by row (i, then j >= i);
    each row is gathered into one array and contracted with W in one
    product, so at most n matrices are held.
    """
    x = _vec(x, prob.n)
    W = np.asarray(W, dtype=float)
    if W.shape != (prob.d, prob.d):
        raise InvalidInputError(f"W must have shape ({prob.d}, {prob.d}), got {W.shape}")
    n = prob.n
    out = np.zeros((n, n))
    for i in range(n):
        row = _gather("d2G", [prob.d2G(x, i, j) for j in range(i, n)], prob.d).reshape(n - i, -1) @ W.ravel()
        out[i, i:] = out[i:, i] = row
    return out


@dataclass
class DerivativeAuditReport:
    """Per-hook relative errors of analytic derivatives against central differences."""

    errors: dict
    step: float
    first_order_threshold: float
    second_order_threshold: float
    passed: bool
    failures: list


def _rel_err(hook: str, analytic, fd: np.ndarray) -> float:
    analytic = _real(hook, analytic)
    return float(np.linalg.norm((analytic - fd).ravel()) / (1.0 + np.linalg.norm(analytic.ravel())))


def audit_derivatives(prob: NsdpProblem, x, step: float = 1e-6) -> DerivativeAuditReport:
    """Check every derivative hook against a central difference of its neighbor.

    First derivatives are compared at relative threshold 1e-6, second
    derivatives at 1e-4.  A hook that raises or returns non-finite or
    complex values is recorded with error ``inf``; the audit still completes.
    """
    if not step > 0:
        raise InvalidInputError("step must be positive")
    x = _vec(x, prob.n)
    thr1, thr2 = 1e-6, 1e-4

    def fd(hook, fn):
        return _central_diff(hook, fn, x, step)

    # each check lists one relative error per hook call it audits
    checks = {"grad_f": lambda: [_rel_err("grad_f", prob.grad_f(x), fd("f", prob.f))]}
    if prob.hess_f is not None:
        checks["hess_f"] = lambda: [_rel_err("hess_f", prob.hess_f(x), symmetrize(fd("grad_f", prob.grad_f)))]
    if prob.m > 0:
        checks["jac_g"] = lambda: [_rel_err("jac_g", prob.jac_g(x), fd("g", prob.g))]
        if prob.hess_g is not None:
            checks["hess_g"] = lambda: [_rel_err("hess_g", prob.hess_g(x, j),
                                                 symmetrize(fd("jac_g", lambda z: prob.jac_g(z)[:, j])))
                                        for j in range(prob.m)]
    if prob.d > 0:
        checks["dG"] = lambda: [_rel_err("dG", prob.dG(x, i), D) for i, D in enumerate(fd("G", prob.G))]
        if prob.d2G is not None:
            checks["d2G"] = lambda: [_rel_err("d2G", prob.d2G(x, i, j), D)
                                     for i in range(prob.n) for j, D in enumerate(fd("dG", lambda z: prob.dG(z, i)))]

    errors: dict[str, float] = {}
    for label, check in checks.items():
        try:
            err = float(np.max(check()))  # np.max, unlike max, propagates NaN
        except Exception:
            err = float("inf")
        errors[label] = err if np.isfinite(err) else float("inf")

    thresholds = {"grad_f": thr1, "jac_g": thr1, "dG": thr1, "hess_f": thr2, "hess_g": thr2, "d2G": thr2}
    failures = [k for k, v in errors.items() if v > thresholds[k]]
    return DerivativeAuditReport(
        errors=errors,
        step=step,
        first_order_threshold=thr1,
        second_order_threshold=thr2,
        passed=not failures,
        failures=failures,
    )
