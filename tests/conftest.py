import dataclasses
import functools
import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nsdpen import driver, matfun, model, penalty, problems, trustregion
from nsdpen.model import NsdpProblem

settings.register_profile(
    "suite", max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def corpus_runs():
    """One full solve per corpus problem, shared by the whole session."""
    runs = {}
    for name in problems.list_problems():
        entry = problems.get_problem(name)
        report = driver.solve(entry.problem, entry.config, b_count=entry.b_count_at_solution)
        runs[name] = (entry, report)
    return runs


def script_F_point(prob: NsdpProblem, x, gamma: float = 1.0) -> penalty.PenaltyPoint:
    """The penalty point the certificates read: ``script_F`` at (gamma, x)."""
    return penalty.penalty_at(prob, x, penalty.special_params("script_F", gamma))


def q_cube(X) -> np.ndarray:
    """[X]+^3 through one eigendecomposition; finite differences of it check dq."""
    return matfun.q_cube_from(matfun.eig_sym(X))


def eig_classes(dec: matfun.EigenDecomp):
    """Masks of the eigenvalues that ``dq_coeff`` counts as positive, zero and negative."""
    tol = matfun.default_zero_tol(dec)
    return dec.values > tol, np.abs(dec.values) <= tol, dec.values < -tol


def rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ball_problem(d: int, m: int = 0, fd_second_order: bool = False, seed: int = 0) -> NsdpProblem:
    """A non-affine test problem over a symmetric d x d matrix X(x) (n = d(d+1)/2).

    f = (1/2)||X(x) - C||^2, G(x) = I - X(x)^2 (so d2G is constant and
    nonzero) and, for m > 0, quadratic equalities g_k = x^T A_k x / 2 + b_k^T x.
    With ``fd_second_order`` the second-derivative hooks are left out and
    synthesized by the model.
    """
    gen = rng(seed)
    iu = np.triu_indices(d)
    n = iu[0].size
    B = np.zeros((n, d, d))
    B[np.arange(n), iu[0], iu[1]] = 1.0
    B[np.arange(n), iu[1], iu[0]] = 1.0
    C = gen.normal(size=(d, d))
    C = C + C.T
    A = gen.normal(size=(m, n, n))
    A = A + A.transpose(0, 2, 1)
    b = gen.normal(size=(m, n))

    def X(x):
        return np.tensordot(x, B, 1)

    hooks = dict(
        f=lambda x: 0.5 * float(np.sum((X(x) - C) ** 2)),
        grad_f=lambda x: np.einsum("kab,ab->k", B, X(x) - C),
        G=lambda x: np.eye(d) - X(x) @ X(x),
        dG=lambda x, i: -(B[i] @ X(x) + X(x) @ B[i]),
    )
    if not fd_second_order:
        hooks.update(hess_f=lambda x: np.einsum("iab,jab->ij", B, B),
                     d2G=lambda x, i, j: -(B[i] @ B[j] + B[j] @ B[i]))
    if m > 0:
        hooks.update(g=lambda x: 0.5 * np.einsum("i,kij,j->k", x, A, x) + b @ x,
                     jac_g=lambda x: (A @ x + b).T)
        if not fd_second_order:
            hooks["hess_g"] = lambda x, y: np.tensordot(y, A, 1)
    return NsdpProblem(name=f"ball-test-d{d}", n=n, m=m, d=d, start_point=np.zeros(n),
                       fd_second_order=fd_second_order, **hooks)


def cap_target(d: int, seed: int) -> np.ndarray:
    """The target C of ``cap_problem(d, seed)``: eigenvalues on both sides of 1, at least one above."""
    gen = rng(seed)
    above = max(1, d // 2)
    values = np.concatenate([1.0 + gen.uniform(0.3, 1.5, above), gen.uniform(-1.5, 0.7, d - above)])
    return sym_from_spectrum(gen, values)


def cap_problem(d: int, seed: int = 0, fd_second_order: bool = False) -> NsdpProblem:
    """The nearest symmetric d x d matrix X(x) to a target C with X <= I, as G(x) = I - X(x)^3 (n = d(d+1)/2).

    G is cubic, so dG and d2G both depend on x.  f = (1/2)||X(x) - C||^2 and
    X(x) has the basis of ``ball_problem``; C is ``cap_target(d, seed)``, and
    the answer clips its eigenvalues at 1 (``cap_reference``).
    With ``fd_second_order`` the second-derivative hooks are left out.
    """
    iu = np.triu_indices(d)
    n = iu[0].size
    B = np.zeros((n, d, d))
    B[np.arange(n), iu[0], iu[1]] = 1.0
    B[np.arange(n), iu[1], iu[0]] = 1.0
    C = cap_target(d, seed)

    def X(x):
        return np.tensordot(x, B, 1)

    def dG(x, i):
        Y = X(x)
        return -(B[i] @ Y @ Y + Y @ B[i] @ Y + Y @ Y @ B[i])

    def d2G(x, i, j):
        Y = X(x)
        return -(B[i] @ B[j] @ Y + B[i] @ Y @ B[j] + Y @ B[i] @ B[j]
                 + B[j] @ B[i] @ Y + B[j] @ Y @ B[i] + Y @ B[j] @ B[i])

    hooks = dict(f=lambda x: 0.5 * float(np.sum((X(x) - C) ** 2)),
                 grad_f=lambda x: np.einsum("kab,ab->k", B, X(x) - C),
                 G=lambda x: np.eye(d) - X(x) @ X(x) @ X(x), dG=dG)
    if not fd_second_order:
        hooks.update(hess_f=lambda x: np.einsum("iab,jab->ij", B, B), d2G=d2G)
    return NsdpProblem(name=f"cap-test-d{d}", n=n, m=0, d=d, start_point=np.zeros(n),
                       fd_second_order=fd_second_order, **hooks)


def cap_reference(d: int, seed: int) -> np.ndarray:
    """The solution x of ``cap_problem(d, seed)``: the upper triangle of its target with the eigenvalues above 1
    set to 1."""
    values, vectors = np.linalg.eigh(cap_target(d, seed))
    X = (vectors * np.minimum(values, 1.0)) @ vectors.T
    return X[np.triu_indices(d)]


def bench_families():
    """The benchmark's generated problem families, ``bench/families.py``, loaded without changing ``sys.path``."""
    path = Path(__file__).resolve().parents[1] / "bench" / "families.py"
    spec = importlib.util.spec_from_file_location("bench_families", path)
    families = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(families)
    return families


def nearest_psd_d5():
    """The benchmark's nearest-PSD instance at d = 5 (n = 15), seed 1, under its family config."""
    return (bench_families().nearest_psd(5, np.random.default_rng(1)).problem,
            driver.PenaltyConfig(tol_feas=1e-4, max_outer=40))


def spectrum_matrix(gen: np.random.Generator, values) -> np.ndarray:
    """A symmetric matrix with the given eigenvalues and a random eigenbasis."""
    Q, _ = np.linalg.qr(gen.normal(size=(len(values), len(values))))
    return (Q * np.asarray(values, dtype=float)) @ Q.T


def random_sym(gen: np.random.Generator, d: int, scale: float = 1.0) -> np.ndarray:
    A = gen.normal(size=(d, d)) * scale
    return 0.5 * (A + A.T)


def random_orthogonal(gen: np.random.Generator, d: int) -> np.ndarray:
    """A Haar-random orthogonal d x d matrix: Q of a Gaussian QR, its columns signed by diag(R)."""
    Q, R = np.linalg.qr(gen.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


def sym_from_spectrum(gen: np.random.Generator, values) -> np.ndarray:
    """A symmetric matrix with the given eigenvalues and a ``random_orthogonal`` eigenbasis."""
    values = np.asarray(values, dtype=float)
    Q = random_orthogonal(gen, values.size)
    return (Q * values) @ Q.T


def fd_grad(fun, x, n):
    """Central differences of a scalar function, step 1e-5 * (1 + |x_i|), one coordinate at a time."""
    h = 1e-5 * (1.0 + np.abs(x))
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        out[i] = (fun(x + e) - fun(x - e)) / (2 * h[i])
    return out


def fd_jac(vec_fun, x, n):
    """Central differences of a vector function as the columns of its Jacobian, with the step of ``fd_grad``."""
    h = 1e-5 * (1.0 + np.abs(x))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        cols.append((vec_fun(x + e) - vec_fun(x - e)) / (2 * h[i]))
    return np.column_stack(cols)


def kkt_residuals(B, g, radius, p):
    """Residuals of the subproblem optimality system, recovered from p."""
    B = np.asarray(B, dtype=float)
    g = np.asarray(g, dtype=float)
    nrm = np.linalg.norm(p)
    if nrm > 0:
        lam = float(-(B @ p + g) @ p / (p @ p))
    else:
        lam = 0.0
    lam = max(lam, 0.0)
    stat = np.linalg.norm((B + lam * np.eye(len(g))) @ p + g)
    comp = abs(lam * (radius - nrm))
    overrun = max(0.0, nrm - radius)
    wmin = np.linalg.eigvalsh(B)[0]
    shifted = max(0.0, -(wmin + lam))
    return stat, comp, overrun, shifted, lam


def strip_wall_time(text: str) -> str:
    """A JSON report's text without its ``wall_time_sec`` line, the one entry that differs between runs."""
    return "\n".join(line for line in text.splitlines() if '"wall_time_sec"' not in line)


# (d, m, fd_second_order) of the ball problems the loop-assembly references cover
BALL_CASES = [(4, 0, False), (4, 0, True), (3, 2, False), (3, 2, True)]


def mixed_ball_point(gen: np.random.Generator, d: int) -> np.ndarray:
    """An x of ``ball_problem(d)`` where G(x) has positive, zero and negative eigenvalues."""
    X = spectrum_matrix(gen, [1.0, 2.0, 0.5, -0.3][:d])  # G = I - X^2: 0, -3, 0.75, 0.91
    return X[np.triu_indices(d)].copy()


HOOKS = ("f", "grad_f", "hess_f", "g", "jac_g", "hess_g", "G", "dG", "d2G")


def second_derivatives(prob: NsdpProblem):
    """hess_f(x), hess_g(x, j) = hess g_j(x) and d2G(x, i, j) of ``prob``, entry by entry: each hook the problem
    supplies (hess_g at the unit weight e_j), and for each it leaves to ``fd_second_order`` the loop references' own
    central differences of its first derivative, one coordinate at a time with the model's step, symmetrized."""
    n, units = prob.n, np.eye(prob.m)

    def diff(fn, x, j):  # (fn(x + h_j e_j) - fn(x - h_j e_j)) / (2 h_j), h_j = FD_STEP_SECOND_ORDER * (1 + |x_j|)
        e = np.zeros(n)
        e[j] = model.FD_STEP_SECOND_ORDER * (1.0 + abs(x[j]))
        return (np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2 * e[j])

    def hess_f(x):
        return matfun.symmetrize(np.stack([diff(prob.grad_f, x, j) for j in range(n)]))

    def hess_g(x, k):
        return matfun.symmetrize(np.stack([diff(lambda z: prob.jac_g(z)[:, k], x, j) for j in range(n)]))

    def d2G(x, i, j):  # the mean of the differences of dG(., i) in x_j and of dG(., j) in x_i
        return matfun.symmetrize(0.5 * (diff(lambda z: prob.dG(z, i), x, j) + diff(lambda z: prob.dG(z, j), x, i)))

    return (prob.hess_f or hess_f, hess_g if prob.hess_g is None else lambda x, j: prob.hess_g(x, units[j]),
            prob.d2G or d2G)


def counting(prob: NsdpProblem):
    """A copy of ``prob`` whose hooks count their calls, and the dict of counts."""
    counts = dict.fromkeys(HOOKS, 0)

    def wrap(name, fn):
        def hook(*args):
            counts[name] += 1
            return fn(*args)
        return hook

    hooks = {h: wrap(h, getattr(prob, h)) for h in HOOKS if getattr(prob, h) is not None}
    return dataclasses.replace(prob, **hooks), counts


def cap_inner_iterations(monkeypatch, max_iter: int):
    """Run every later ``trustregion.tr_minimize`` call, a solve's inner solves among them, under
    ``TrConfig(max_iter=max_iter)``."""
    monkeypatch.setattr(trustregion, "tr_minimize", functools.partial(trustregion.tr_minimize,
                                                                        config=trustregion.TrConfig(max_iter=max_iter)))


def record_certificates(monkeypatch) -> list:
    """Patch numpy's ``cholesky`` and ``eigvalsh`` to log, inside ``trustregion.tr_minimize`` but outside its
    ``ms_subproblem``, each factorization attempt as ("cholesky", succeeded) and each eigensolve as
    ("eigvalsh",); returns the log."""
    events, logging = [], [False]
    cholesky, eigvalsh = np.linalg.cholesky, np.linalg.eigvalsh

    def logged_cholesky(A):
        try:
            out = cholesky(A)
        except np.linalg.LinAlgError:
            if logging[0]:
                events.append(("cholesky", False))
            raise
        if logging[0]:
            events.append(("cholesky", True))
        return out

    def logged_eigvalsh(A):
        if logging[0]:
            events.append(("eigvalsh",))
        return eigvalsh(A)

    def switched(fn, on):  # fn, run with logging set to on
        def call(*args, **kwargs):
            before, logging[0] = logging[0], on
            try:
                return fn(*args, **kwargs)
            finally:
                logging[0] = before
        return call

    monkeypatch.setattr(np.linalg, "cholesky", logged_cholesky)
    monkeypatch.setattr(np.linalg, "eigvalsh", logged_eigvalsh)
    monkeypatch.setattr(trustregion, "tr_minimize", switched(trustregion.tr_minimize, True))
    monkeypatch.setattr(trustregion, "ms_subproblem", switched(trustregion.ms_subproblem, False))
    return events


def eigvalsh_follows_each_failed_factorization(events: list) -> bool:
    """Whether, in a ``record_certificates`` log, an eigensolve comes right after each failed factorization
    attempt and nowhere else."""
    return all((event == ("eigvalsh",)) == (k > 0 and events[k - 1] == ("cholesky", False))
               for k, event in enumerate(events))
