"""Problem abstraction for nonlinear SDPs.

A problem bundles twice-differentiable hooks for the objective f, equality
constraints g (optional, m = 0 when absent) and a symmetric-matrix constraint
G (optional, d = 0 when absent), together with the linear operators built on
the partial derivatives of G.  Hooks must be reentrant and side-effect-free.
This module makes every hook call, and reads every output in the shape
``HOOK_SHAPES`` gives it: ``_read`` one output, ``_gather`` many of one hook.
"""

from dataclasses import dataclass
from itertools import repeat
from operator import is_
from typing import Callable

import numpy as np

from .errors import InvalidInputError, read_only, real_array, require_instance, require_int
from .matfun import _triangles, _upper_ints, symmetrize

FD_STEP_SECOND_ORDER = 1e-5
# audit_derivatives: the step of its central differences, h_i = FD_STEP_AUDIT * (1 + |x_i|), and the largest
# relative error each audited hook may have, 1e-6 for a first derivative and 1e-4 for a second
FD_STEP_AUDIT = 1e-6
AUDIT_THRESHOLDS = {"grad_f": 1e-6, "jac_g": 1e-6, "dG": 1e-6, "hess_f": 1e-4, "hess_g": 1e-4, "d2G": 1e-4}
# the shape of each hook's output in the problem's dimensions (README, Hooks), the one statement of it
HOOK_SHAPES = {"f": (), "grad_f": ("n",), "hess_f": ("n", "n"), "g": ("m",), "jac_g": ("n", "m"),
               "hess_g": ("n", "n"), "G": ("d", "d"), "dG": ("d", "d"), "d2G": ("d", "d")}


def _vec(x, n: int, name: str = "x") -> np.ndarray:
    """x as a float (n,) array; a scalar stands for a one-entry vector."""
    x = np.atleast_1d(real_array(name, x))
    if x.shape != (n,):
        raise InvalidInputError(f"{name} must have shape ({n},), got {x.shape}")
    return x


@dataclass(frozen=True)
class NsdpProblem:
    """Problem data: minimize f(x) subject to g(x) = 0 and G(x) PSD.

    Each hook returns an output of the shape ``HOOK_SHAPES`` gives it: ``jac_g(x)`` has column j the gradient of
    g_j, ``hess_g(x, y)`` is sum_j y_j hess g_j(x) for an (m,) weight y, and ``dG(x, i)`` and ``d2G(x, i, j)`` are
    the symmetric first and second partials of G in x_i (and x_j).  Hook outputs are only read, never written, so a
    hook may return one shared (say read-only) array for many entries, as a ``d2G`` of an affine G returns one zero.
    A contraction reads its outputs only after its last call, and an output shared by every call once.

    Checked when built: n >= 1, m >= 0 and d >= 0 are integers, every hook given is callable, and the hooks read are
    present (f, grad_f, hess_f; g, jac_g, hess_g when m > 0; G, dG, d2G when d > 0).  Second-derivative hooks may be
    omitted by passing ``fd_second_order=True``; their fields stay None, and their readers difference this problem's
    own grad_f, jac_g or dG stack at x + h_j e_j, then x - h_j e_j, for j = 0, ..., n - 1, contracting each
    difference as it is made (``_synthesized``), so a ``dataclasses.replace`` copy differences its own hooks.
    Frozen, with a read-only copy of ``start_point``.
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
    hess_g: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    G: Callable[[np.ndarray], np.ndarray] | None = None
    dG: Callable[[np.ndarray, int], np.ndarray] | None = None
    d2G: Callable[[np.ndarray, int, int], np.ndarray] | None = None
    fd_second_order: bool = False

    def __post_init__(self):
        for name, lo in (("n", 1), ("m", 0), ("d", 0)):
            require_int(name, getattr(self, name), lo)
        object.__setattr__(self, "start_point", read_only(_vec(self.start_point, self.n, "start_point").copy()))
        for hook in HOOK_SHAPES:
            value = getattr(self, hook)
            if (value is not None or hook in ("f", "grad_f")) and not callable(value):
                raise InvalidInputError(f"problem {self.name!r}: hook {hook} is not callable, got {value!r}")
        if self.m > 0 and (self.g is None or self.jac_g is None):
            raise InvalidInputError(f"problem {self.name!r}: m > 0 requires g and jac_g hooks")
        if self.d > 0 and (self.G is None or self.dG is None):
            raise InvalidInputError(f"problem {self.name!r}: d > 0 requires G and dG hooks")
        needed = (("hess_f", True), ("hess_g", self.m > 0), ("d2G", self.d > 0))
        missing = [hook for hook, used in needed if used and getattr(self, hook) is None]
        if missing and not self.fd_second_order:
            raise InvalidInputError(f"problem {self.name!r} has no {', '.join(missing)} hook; "
                                    "supply it or build the problem with fd_second_order=True")


def _point(prob: NsdpProblem, x) -> np.ndarray:
    """x as the (n,) point of ``prob``, which must be an NsdpProblem: the first check of each function taking both."""
    require_instance("prob", prob, NsdpProblem)
    return _vec(x, prob.n)


def _shape(prob: NsdpProblem, hook: str) -> tuple:
    """The shape ``HOOK_SHAPES`` gives the output of ``prob``'s hook."""
    return tuple(getattr(prob, dim) for dim in HOOK_SHAPES[hook])


def _read(prob: NsdpProblem, hook: str, x: np.ndarray, *args) -> np.ndarray:
    """``prob``'s hook called once at x (and ``args``), its output read by ``real_array`` in the table's shape."""
    return real_array(hook, getattr(prob, hook)(x, *args), _shape(prob, hook))


def _shifts(x: np.ndarray, step: float) -> tuple[np.ndarray, np.ndarray]:
    """h = step * (1 + |x|) and the read-only (2n, n) array of the points x + h_i e_i (rows :n), then x - h_i e_i."""
    h = step * (1.0 + np.abs(x))
    D = np.diag(h)
    return h, read_only(np.concatenate([x + D, x - D]))


def _central_diff(prob: NsdpProblem, hook: str, shifts: tuple[np.ndarray, np.ndarray], j: int) -> np.ndarray:
    """(hook(x + h_j e_j) - hook(x - h_j e_j)) / (2 h_j) at the points of ``_shifts``: for dG, of the two
    ``_dG_outputs`` stacks as they are read; for any other hook, of its two outputs read by one ``_gather``.
    Non-finite or huge outputs (inf - inf) give a non-finite difference without a numpy warning, which the audit
    records as an error of inf and the solver rejects in a Hessian; the hooks' own warnings surface."""
    h, points = shifts
    pair = points[j], points[h.size + j]
    plus, minus = [_dG_outputs(prob, p) for p in pair] if hook == "dG" else \
        _gather(hook, [getattr(prob, hook)(p) for p in pair], _shape(prob, hook))
    with np.errstate(over="ignore", invalid="ignore"):
        diff = plus - minus
        diff /= 2 * h[j]
    return diff


def _synthesized(prob: NsdpProblem, hook: str, shifts: tuple[np.ndarray, np.ndarray], weights) -> np.ndarray:
    """The weights contracted with the central differences at ``shifts`` of grad_f (k = 1), of the columns of jac_g
    (k = m) or of the entries of the ``_dG_outputs`` stack (k = d*d): (k,) weights give an (n, n) matrix, (k, K) a
    (K, n, n) stack.  Each coordinate's ``_central_diff`` is contracted as soon as it is made, so two hook outputs
    are held at a time, and the result is symmetrized once.  At the step FD_STEP_SECOND_ORDER it is every second
    derivative left to fd_second_order: hess_f(x) (grad_f, weights (1,)), hess_g(x, y) (jac_g, y) and
    [<d2G(x, i, j), W>]_ij (dG, W raveled), from 2n grad_f or jac_g calls, or 2n^2 dG calls."""
    n = prob.n
    out = np.empty((*np.shape(weights)[1:], n, n))
    for j in range(n):
        diff = _central_diff(prob, hook, shifts, j)
        with np.errstate(over="ignore", invalid="ignore"):
            out[..., j, :] = (diff.reshape(n, -1) @ weights).T
    return symmetrize(out)


def _gather(hook: str, entries: list, shape: tuple) -> np.ndarray:
    """Hook outputs of one shape as one (k, *shape) float array, read by one ``real_array`` call."""
    out = real_array(hook, entries)
    if out.shape[1:] != shape:
        raise InvalidInputError(f"{hook} must have shape {shape}, got {out.shape[1:]}")
    return out


def _dG_outputs(prob: NsdpProblem, x: np.ndarray) -> np.ndarray:
    """The n outputs dG(x, i) as one (n, d, d) array, as the hook returned them: the one reader of the dG hook."""
    return _gather("dG", list(map(prob.dG, repeat(x), range(prob.n))), _shape(prob, "dG"))


def _dG_stack(prob: NsdpProblem, x: np.ndarray) -> np.ndarray:
    """The n partial derivatives dG(x, i), symmetrized, as one (n, d, d) array."""
    return symmetrize(_dG_outputs(prob, x))


def dG_adjoint(Gs: np.ndarray, Z) -> np.ndarray:
    """Adjoint of the directional derivative: component i is <Gs[i], Z> for the (n, d, d) stack Gs of dG(x, i)."""
    Gs = real_array("Gs", Gs)
    if Gs.ndim != 3 or Gs.shape[1] != Gs.shape[2]:
        raise InvalidInputError(f"Gs must be an (n, d, d) stack, got shape {Gs.shape}")
    n, d = Gs.shape[:2]
    return Gs.reshape(n, -1) @ real_array("Z", Z, (d, d)).ravel()


def hess_fg(prob: NsdpProblem, x: np.ndarray, rho: float, y) -> np.ndarray:
    """rho * hess f(x) - hess_g(x, y), each hook output shape-checked and read as given, a left-out hook synthesized
    (the caller symmetrizes the sum once); y is read only when m > 0, and hess_g once, never when every weight is 0."""
    x = _point(prob, x)
    if rho == 0.0:
        H = np.zeros((prob.n, prob.n))
    elif prob.hess_f is None:
        H = rho * _synthesized(prob, "grad_f", _shifts(x, FD_STEP_SECOND_ORDER), np.ones(1))
    else:
        H = rho * _read(prob, "hess_f", x)
    if prob.m > 0 and np.any(y):
        H = H - (_synthesized(prob, "jac_g", _shifts(x, FD_STEP_SECOND_ORDER), y) if prob.hess_g is None else
                 _read(prob, "hess_g", x, y))
    return H


def d2G_contract(prob: NsdpProblem, x, W) -> np.ndarray:
    """The symmetric n x n matrix [<d2G(x, i, j), W>]_ij.

    One ``d2G`` call per upper-triangle entry, in row-major order (i, then j >= i), with int indices: one ``map``
    over ``matfun._upper_ints``.  The outputs are read only after the last call, never written.  When every call
    returned one object (a hook that returns one shared array, such as the read-only zero of an affine G), it is
    read once, with the same checks, and its one contraction with W fills the matrix; otherwise all n(n+1)/2
    outputs are gathered into one array, contracted with W in one product, and fill both triangles.  Without a d2G
    hook it is ``_synthesized``; without a matrix constraint (d = 0) it is the n x n zero, and no hook is called.
    """
    x = _point(prob, x)
    W = real_array("W", W, (prob.d, prob.d))
    n = prob.n
    if prob.d == 0:
        return np.zeros((n, n))
    w = W.ravel()
    if prob.d2G is None:
        return _synthesized(prob, "dG", _shifts(x, FD_STEP_SECOND_ORDER), w)
    outs = list(map(prob.d2G, repeat(x), *_upper_ints(n)))
    first = outs[0]
    if outs[-1] is first and all(map(is_, outs, repeat(first))):
        return np.full((n, n), (_gather("d2G", [first], _shape(prob, "d2G")).reshape(1, w.size) @ w)[0])
    vals = _gather("d2G", outs, _shape(prob, "d2G")).reshape(len(outs), w.size) @ w
    rows, cols = _triangles(n)[0]
    out = np.zeros((n, n))
    out[rows, cols] = out[cols, rows] = vals
    return out


@dataclass
class DerivativeAuditReport:
    """Per-hook relative errors of analytic derivatives against central differences of relative step ``step``
    (``FD_STEP_AUDIT``), and the hooks whose error exceeds their ``AUDIT_THRESHOLDS`` entry."""

    errors: dict
    step: float
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
    """||a_k - fd_k|| / (1 + ||a_k||) for each entry k of two (k, ...) stacks; non-finite (inf - inf, inf / inf)
    without a numpy warning where either stack is."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _norms(analytic - fd) / (1.0 + _norms(analytic))


def audit_derivatives(prob: NsdpProblem, x) -> DerivativeAuditReport:
    """Check every derivative hook the problem supplies against a central difference of its neighbor.

    The step is ``FD_STEP_AUDIT * (1 + |x_i|)``; each hook's relative error is compared with its
    ``AUDIT_THRESHOLDS`` entry, 1e-6 for first derivatives and 1e-4 for second.  A hook that raises, returns
    non-finite or complex values, or returns another shape than ``HOOK_SHAPES`` gives it (the shape the solver
    reads) is recorded with error ``inf``; the audit still completes.

    Every difference is a ``_central_diff`` at the same 2n shifted points, x + h_j e_j then x - h_j e_j for
    j = 0, ..., n - 1, handed to the hooks as read-only rows, so a hook that writes into its argument fails its
    check; hess_f and hess_g are checked against ``_synthesized`` with unit weights.  The hook calls are those of
    one difference per analytic output, and of one for all columns of jac_g: f, g and G 2n times each, grad_f and
    jac_g 1 + 2n, dG n + 2n^2 (a difference of the dG stack per coordinate), d2G n^2, hess_f once and hess_g m
    times, once per unit weight e_j, with the weights handed as read-only rows too.  Second derivatives left to
    ``fd_second_order`` are differences: not audited.
    """
    x = _point(prob, x)
    n, m, d = prob.n, prob.m, prob.d
    shifts = _shifts(x, FD_STEP_AUDIT)
    units = read_only(np.eye(m))

    def fd(hook):  # the first derivative in every coordinate, along a new leading axis
        return np.stack([_central_diff(prob, hook, shifts, j) for j in range(n)])

    # each check returns one relative error per analytic hook output it audits (a single output as a stack of one)
    checks = {"grad_f": lambda: _rel_err(_read(prob, "grad_f", x)[None], fd("f")[None])}
    if prob.hess_f is not None:
        checks["hess_f"] = lambda: _rel_err(_read(prob, "hess_f", x)[None],
                                            _synthesized(prob, "grad_f", shifts, np.ones((1, 1))))
    if m > 0:
        checks["jac_g"] = lambda: _rel_err(_read(prob, "jac_g", x)[None], fd("g")[None])
    if m > 0 and prob.hess_g is not None:
        checks["hess_g"] = lambda: _rel_err(
            _gather("hess_g", list(map(prob.hess_g, repeat(x), units)), _shape(prob, "hess_g")),
            _synthesized(prob, "jac_g", shifts, units))
    if d > 0:
        checks["dG"] = lambda: _rel_err(_dG_outputs(prob, x), fd("G"))
    if d > 0 and prob.d2G is not None:
        # coordinate j: d2G(x, i, j) over i against one difference of the dG stack in x_j, two stacks held at a time
        checks["d2G"] = lambda: np.concatenate([
            _rel_err(_gather("d2G", [prob.d2G(x, i, j) for i in range(n)], _shape(prob, "d2G")),
                     _central_diff(prob, "dG", shifts, j))
            for j in range(n)])

    errors: dict[str, float] = {}
    for label, check in checks.items():
        try:
            err = float(np.max(check()))  # np.max, unlike max, propagates NaN
        except Exception:
            err = float("inf")
        errors[label] = err if np.isfinite(err) else float("inf")

    failures = [k for k, v in errors.items() if v > AUDIT_THRESHOLDS[k]]
    return DerivativeAuditReport(errors=errors, step=FD_STEP_AUDIT, passed=not failures, failures=failures)
