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


def _central_diff(hook: str, fn, x: np.ndarray, step: float, i: int) -> np.ndarray:
    """(fn(x + h_i e_i) - fn(x - h_i e_i)) / (2 h_i) with h = step * (1 + |x|), for one coordinate i.

    fn's outputs are read as the output of ``hook``, so complex output raises.
    """
    x = np.asarray(x, dtype=float)
    e = np.zeros(x.size)
    e[i] = step * (1.0 + abs(x[i]))
    return (_real(hook, fn(x + e)) - _real(hook, fn(x - e))) / (2 * e[i])


def _shifts(x: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """h = step * (1 + |x|) and the read-only (2n, n) array of the points x + h_i e_i (rows :n), then x - h_i e_i.

    Each row equals the ``x + e`` and ``x - e`` of ``_central_diff``, bit for bit.
    """
    h = step * (1.0 + np.abs(x))
    D = np.diag(h)
    points = np.concatenate([x + D, x - D])
    points.flags.writeable = False
    return h, points


def _stacked_diff(hook: str, fn, shifts: tuple[np.ndarray, np.ndarray], shape: tuple) -> np.ndarray:
    """``_central_diff`` for every coordinate i along a new leading axis, at the points of ``_shifts``.

    fn's 2n outputs are gathered as one array of ``hook`` outputs of the given
    shape and differenced in one operation, with the same IEEE operations
    per entry as the one-coordinate routine.
    """
    h, points = shifts
    out = _gather(hook, [fn(z) for z in points], shape)
    n = h.size
    diff = out[:n] - out[n:]
    diff /= (2 * h).reshape(n, *(1,) * len(shape))
    return diff


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
                self._fd_jac_g_diff = (None, None)
            if self.d > 0 and self.d2G is None:
                self.d2G = self._fd_d2G

    # synthesized second derivatives (central differences of first-derivative hooks)
    def _fd_hess_f(self, x):
        shifts = _shifts(_vec(x, self.n), FD_STEP_SECOND_ORDER)
        return symmetrize(_stacked_diff("grad_f", self.grad_f, shifts, (self.n,)))

    def _fd_hess_g(self, x, j):
        # one stacked difference of jac_g gives every column j; the last point's is kept, so the m
        # calls at one x difference jac_g once (2n calls), not m times.  The (x.tobytes(), difference)
        # pair is read once, so that a concurrent call cannot pair one x with another's difference
        x = _vec(x, self.n)
        key, diff = self._fd_jac_g_diff
        if key != x.tobytes():
            shifts = _shifts(x, FD_STEP_SECOND_ORDER)
            key, diff = x.tobytes(), _stacked_diff("jac_g", self.jac_g, shifts, (self.n, self.m))
            self._fd_jac_g_diff = key, diff
        return symmetrize(diff[:, :, j])

    def _fd_d2G(self, x, i, j):
        Dij = _central_diff("dG", lambda z: self.dG(z, i), x, FD_STEP_SECOND_ORDER, j)
        Dji = _central_diff("dG", lambda z: self.dG(z, j), x, FD_STEP_SECOND_ORDER, i)
        return symmetrize(0.5 * (Dij + Dji))


def _real(hook: str, value, shape: tuple | None = None) -> np.ndarray:
    """A hook's output as a float array.

    Complex, ragged or non-numeric output, and output whose shape is not
    ``shape`` when one is given, raises ``InvalidInputError`` naming the hook.
    """
    try:
        out = np.asarray(value)
    except ValueError:
        raise InvalidInputError(f"{hook} returned ragged output") from None
    if out.dtype.kind not in "biuf":
        raise InvalidInputError(f"{hook} must return real numbers, got {out.dtype} output")
    if shape is not None and out.shape != shape:
        raise InvalidInputError(f"{hook} must return shape {shape}, got {out.shape}")
    return out.astype(float, copy=False)


def _gather(hook: str, entries: list, shape: tuple) -> np.ndarray:
    """Hook outputs of one shape as one (k, *shape) float array, built by a single ``np.asarray`` call."""
    out = _real(hook, entries)
    if out.shape[1:] != shape:
        raise InvalidInputError(f"{hook} must return shape {shape}, got {out.shape[1:]}")
    return out


def _dG_stack(prob: NsdpProblem, x: np.ndarray) -> np.ndarray:
    """The n partial derivatives dG(x, i), symmetrized, as one (n, d, d) array."""
    Gs = _gather("dG", [prob.dG(x, i) for i in range(prob.n)], (prob.d, prob.d))
    return 0.5 * (Gs + Gs.transpose(0, 2, 1))


def dG_adjoint(Gs: np.ndarray, Z) -> np.ndarray:
    """Adjoint of the directional derivative: component i is <Gs[i], Z> for the (n, d, d) stack Gs of dG(x, i)."""
    n, d = Gs.shape[:2]
    Z = np.asarray(Z, dtype=float)
    if Z.shape != (d, d):
        raise InvalidInputError(f"Z must have shape ({d}, {d}), got {Z.shape}")
    return Gs.reshape(n, -1) @ Z.ravel()


def hess_fg(prob: NsdpProblem, x: np.ndarray, rho: float, y) -> np.ndarray:
    """rho * hess f(x) - sum_j y_j hess g_j(x), each output shape-checked and symmetrized; a zero weight
    calls no hook, and y is read only when m > 0."""
    n = prob.n
    H = rho * symmetrize(_real("hess_f", prob.hess_f(x), (n, n))) if rho != 0.0 else np.zeros((n, n))
    for j in range(prob.m):
        if y[j] != 0.0:
            H = H - y[j] * symmetrize(_real("hess_g", prob.hess_g(x, j), (n, n)))
    return H


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
        row = _gather("d2G", [prob.d2G(x, i, j) for j in range(i, n)], W.shape).reshape(n - i, -1) @ W.ravel()
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


def _norms(v: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each entry of a (k, ...) stack, as ``matfun._norm`` takes it.

    Each entry is scaled by its own ``matfun._pow2_unit``, so no square overflows, and its norm is the square
    root of one dot product of the raveled entry with itself, taken by a batched matmul, so it rounds as
    ``np.linalg.norm`` of that scaled entry does (a reduction along an axis would sum in another order).
    """
    unit = np.ldexp(1.0, -np.maximum(np.frexp(np.abs(v).reshape(len(v), -1).max(axis=1))[1], -1021))
    rows = (v.reshape(len(v), -1) * unit[:, None])[:, None]
    return np.sqrt(rows @ rows.transpose(0, 2, 1)).ravel() / unit


def _rel_err(analytic: np.ndarray, fd: np.ndarray) -> np.ndarray:
    """||a_k - fd_k|| / (1 + ||a_k||) for each entry k of two (k, ...) stacks."""
    return _norms(analytic - fd) / (1.0 + _norms(analytic))


def audit_derivatives(prob: NsdpProblem, x, step: float = 1e-6) -> DerivativeAuditReport:
    """Check every derivative hook against a central difference of its neighbor.

    First derivatives are compared at relative threshold 1e-6, second
    derivatives at 1e-4.  A hook that raises, returns non-finite or complex
    values, or returns another shape than the solver reads (f a scalar,
    grad_f (n,), hess_f and hess_g (n, n), g (m,), jac_g (n, m), G, dG and
    d2G (d, d)) is recorded with error ``inf``; the audit still completes.

    Every difference reads the same 2n shifted points x +- h_i e_i, handed
    to the hooks as read-only rows, so a hook that writes into its argument
    fails its check.  The hook calls are those of one difference per
    analytic output: f, g and G 2n times each, grad_f 1 + 2n, jac_g 1 + 2nm,
    dG n + 2n^2, d2G n^2, and hess_f once and hess_g m times.
    """
    if not step > 0:
        raise InvalidInputError("step must be positive")
    x = _vec(x, prob.n)
    n, m, d = prob.n, prob.m, prob.d
    thr1, thr2 = 1e-6, 1e-4
    shifts = _shifts(x, step)

    def fd(hook, fn, shape):
        return _stacked_diff(hook, fn, shifts, shape)

    def one(hook, value, shape):  # a single analytic output, as a stack of one
        return _real(hook, value, shape)[None]

    # each check returns one relative error per analytic hook output it audits
    checks = {"grad_f": lambda: _rel_err(one("grad_f", prob.grad_f(x), (n,)), fd("f", prob.f, ())[None])}
    if prob.hess_f is not None:
        checks["hess_f"] = lambda: _rel_err(one("hess_f", prob.hess_f(x), (n, n)),
                                            symmetrize(fd("grad_f", prob.grad_f, (n,)))[None])
    if m > 0:
        checks["jac_g"] = lambda: _rel_err(one("jac_g", prob.jac_g(x), (n, m)), fd("g", prob.g, (m,))[None])
        if prob.hess_g is not None:
            checks["hess_g"] = lambda: _rel_err(
                _gather("hess_g", [prob.hess_g(x, j) for j in range(m)], (n, n)),
                np.stack([symmetrize(fd("jac_g", prob.jac_g, (n, m))[:, :, j]) for j in range(m)]))
    if d > 0:
        checks["dG"] = lambda: _rel_err(_gather("dG", [prob.dG(x, i) for i in range(n)], (d, d)),
                                        fd("G", prob.G, (d, d)))
        if prob.d2G is not None:
            # row i: the n outputs d2G(x, i, j) against the difference of dG(., i) over j
            checks["d2G"] = lambda: np.concatenate([
                _rel_err(_gather("d2G", [prob.d2G(x, i, j) for j in range(n)], (d, d)),
                         fd("dG", lambda z: prob.dG(z, i), (d, d)))
                for i in range(n)])

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
