"""Generated problem families of the benchmark.

Both families fit a symmetric d x d matrix X to a seeded random symmetric
target C,

    minimize  (1/2) ||X(x) - C||_F^2,

with X parametrized by its upper triangle (n = d(d+1)/2 unknowns).

* ``nearest_psd``: G(x) = X(x) must be PSD.  G is affine, so d2G is zero;
  the start is X = I and the solution is the PSD projection of C.
* ``nearest_ball``: G(x) = I - X(x)^2 must be PSD, i.e. ||X||_2 <= 1.  G is
  quadratic, so d2G is constant and nonzero; the start is X = 0 and the
  solution clips the eigenvalues of C to [-1, 1].

C = Q diag(lam) Q^T with Q Haar-random.  The eigenvalues are drawn from
fixed intervals that keep a gap of at least 0.25 to the kink of the
projection, so every seed gives a strictly complementary problem with the
same number of active eigenvalues: a different seed changes the numbers,
not the kind of work the solver has to do.  References are computed with
``numpy.linalg.eigh``, independently of nsdpen's spectral kernel.
"""

from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from nsdpen import NsdpProblem


@dataclass(frozen=True)
class Instance:
    problem: NsdpProblem
    matrix: Callable[[np.ndarray], np.ndarray]  # x -> X(x)
    reference: np.ndarray  # the solution matrix in closed form


def _haar(rng: np.random.Generator, d: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((d, d)))
    return Q * np.sign(np.diag(R))


def _target(rng: np.random.Generator, intervals) -> np.ndarray:
    lam = np.concatenate([rng.uniform(lo, hi, size=k) for k, lo, hi in intervals])
    Q = _haar(rng, lam.size)
    return (Q * lam) @ Q.T


def _spectral(C: np.ndarray, fn) -> np.ndarray:
    w, V = np.linalg.eigh(C)
    return (V * fn(w)) @ V.T


@cache
def _basis(d: int) -> np.ndarray:
    """B_k = dX/dx_k, one symmetric unit matrix per upper-triangle entry; read-only."""
    iu = np.triu_indices(d)
    n = iu[0].size
    basis = np.zeros((n, d, d))
    basis[np.arange(n), iu[0], iu[1]] = 1.0
    basis[np.arange(n), iu[1], iu[0]] = 1.0
    basis.flags.writeable = False
    return basis


@cache
def _ball_second(d: int) -> np.ndarray:
    """d2G of the ball constraint, -(B_i B_j + B_j B_i), which does not depend on x; read-only."""
    basis = _basis(d)
    products = np.einsum("iab,jbc->ijac", basis, basis)
    second = -(products + products.transpose(1, 0, 2, 3))
    second.flags.writeable = False
    return second


def _frobenius_fit(d: int, C: np.ndarray):
    """f, grad_f, hess_f of (1/2)||X(x) - C||_F^2, the map x -> X(x) and its basis."""
    iu = np.triu_indices(d)
    n = iu[0].size
    weights = np.where(iu[0] == iu[1], 1.0, 2.0)
    basis = _basis(d)
    hess = np.diag(weights)

    def matrix(x):
        X = np.zeros((d, d))
        X[iu] = x
        X.T[iu] = x
        return X

    def f(x):
        D = matrix(x) - C
        return 0.5 * float(np.sum(D * D))

    def grad_f(x):
        return weights * (matrix(x) - C)[iu]

    return dict(n=n, f=f, grad_f=grad_f, hess_f=lambda x: hess), matrix, basis, iu


def nearest_psd(d: int, rng: np.random.Generator) -> Instance:
    """Nearest PSD matrix; half of the eigenvalues of C are negative."""
    neg = d // 2
    C = _target(rng, [(neg, -2.0, -0.25), (d - neg, 0.25, 2.0)])
    fit, matrix, basis, iu = _frobenius_fit(d, C)
    zero = np.zeros((d, d))
    zero.flags.writeable = False
    prob = NsdpProblem(
        name=f"nearest-psd-d{d}", m=0, d=d,
        start_point=np.eye(d)[iu],
        G=matrix,
        dG=lambda x, i: basis[i],
        d2G=lambda x, i, j: zero,
        **fit,
    )
    return Instance(prob, matrix, _spectral(C, lambda w: np.maximum(w, 0.0)))


def nearest_ball(d: int, rng: np.random.Generator) -> Instance:
    """Nearest matrix of spectral norm at most 1; C has eigenvalues beyond +1 and -1."""
    out = max(1, d // 4)
    C = _target(rng, [(out, 1.25, 2.0), (out, -2.0, -1.25), (d - 2 * out, -0.75, 0.75)])
    fit, matrix, basis, _ = _frobenius_fit(d, C)
    eye = np.eye(d)
    second = _ball_second(d)

    def G(x):
        X = matrix(x)
        return eye - X @ X

    def dG(x, i):
        X = matrix(x)
        return -(basis[i] @ X + X @ basis[i])

    prob = NsdpProblem(
        name=f"nearest-ball-d{d}", m=0, d=d,
        start_point=np.zeros(fit["n"]),
        G=G, dG=dG, d2G=lambda x, i, j: second[i, j],
        **fit,
    )
    return Instance(prob, matrix, _spectral(C, lambda w: np.clip(w, -1.0, 1.0)))


FAMILIES = {"psd": nearest_psd, "ball": nearest_ball}
