import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from nsdpen import driver, matfun, penalty, problems
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
            hooks["hess_g"] = lambda x, k: A[k]
    return NsdpProblem(name=f"ball-test-d{d}", n=n, m=m, d=d, start_point=np.zeros(n),
                       fd_second_order=fd_second_order, **hooks)


def spectrum_matrix(gen: np.random.Generator, values) -> np.ndarray:
    """A symmetric matrix with the given eigenvalues and a random eigenbasis."""
    Q, _ = np.linalg.qr(gen.normal(size=(len(values), len(values))))
    return (Q * np.asarray(values, dtype=float)) @ Q.T


# (d, m, fd_second_order) of the ball problems the loop-assembly references cover
BALL_CASES = [(4, 0, False), (4, 0, True), (3, 2, False), (3, 2, True)]


def mixed_ball_point(gen: np.random.Generator, d: int) -> np.ndarray:
    """An x of ``ball_problem(d)`` where G(x) has positive, zero and negative eigenvalues."""
    X = spectrum_matrix(gen, [1.0, 2.0, 0.5, -0.3][:d])  # G = I - X^2: 0, -3, 0.75, 0.91
    return X[np.triu_indices(d)].copy()


HOOKS = ("f", "grad_f", "hess_f", "g", "jac_g", "hess_g", "G", "dG", "d2G")


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
