"""Built-in problem corpus with analytically known solutions.

Each entry exercises a distinct mechanism: an active scalar PSD bound, a
matrix-valued projection, an equality-degenerate feasibility set with no KKT
point, and a mixed equality + SDP model.  The registry is immutable after
import and is the name contract used by the CLI.  Each entry's ``config`` is
known to reach ``FeasOptReached`` under the gamma cap (infeasibility decays like
gamma^(-1/3), so feasibility tolerances are problem-specific).
"""

from dataclasses import dataclass

import numpy as np

from .driver import PenaltyConfig
from .errors import UnknownProblemError, read_only
from .model import NsdpProblem
from .optimality import MultiplierPair


@dataclass(frozen=True)
class CorpusEntry:
    problem: NsdpProblem
    known_solution: np.ndarray | None
    known_multipliers: MultiplierPair | None
    degeneracy_notes: str
    b_count_at_solution: int
    config: PenaltyConfig


# the partial derivatives in x_i of the corpus's X(x) = [[x0]] (key d = 1) or [[x0, x2], [x2, x1]] (key d = 2):
# read-only, one array per entry returned by every dG call (hook outputs are only read)
_DX = {1: (read_only(np.ones((1, 1))),),
       2: tuple(read_only(np.array(a)) for a in ([[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 1.0]],
                                                  [[0.0, 1.0], [1.0, 0.0]]))}


def _zero(d: int) -> np.ndarray:
    """One read-only d x d zero for every call (hook outputs are only read): an affine G's d2G, an affine g's hess_g."""
    return read_only(np.zeros((d, d)))


def _scalar_bound() -> CorpusEntry:
    # minimize (x+1)^2 subject to x >= 0 (as a 1x1 PSD constraint);
    # solution x = 0 with active bound and multiplier 2
    zero = _zero(1)
    prob = NsdpProblem(
        name="scalar-bound",
        n=1, m=0, d=1,
        start_point=np.array([1.0]),
        f=lambda x: float((x[0] + 1.0) ** 2),
        grad_f=lambda x: np.array([2.0 * (x[0] + 1.0)]),
        hess_f=lambda x: np.array([[2.0]]),
        G=lambda x: np.array([[x[0]]]),
        dG=lambda x, i: _DX[1][i],
        d2G=lambda x, i, j: zero,
    )
    return CorpusEntry(
        problem=prob,
        known_solution=np.array([0.0]),
        known_multipliers=MultiplierPair(y=np.zeros(0), Z=np.array([[2.0]])),
        degeneracy_notes="bound active at the solution; strictly feasible start",
        b_count_at_solution=1,
        config=PenaltyConfig(tol_feas=3e-5, tol_opt=1e-6, max_outer=40),
    )


_NEAREST_TARGET = np.array([[0.0, 1.0], [1.0, 0.0]])


def _x_to_mat(x):
    return np.array([[x[0], x[2]], [x[2], x[1]]])


def _nearest_psd() -> CorpusEntry:
    # minimize (1/2)||X(x) - C||_F^2 subject to X(x) PSD, X parametrized by
    # (X11, X22, X12); the solution is the PSD projection of C
    C = _NEAREST_TARGET
    zero = _zero(2)

    def f(x):
        D = _x_to_mat(x) - C
        return 0.5 * float(np.sum(D * D))

    def grad_f(x):
        D = _x_to_mat(x) - C
        return np.array([D[0, 0], D[1, 1], 2.0 * D[0, 1]])

    prob = NsdpProblem(
        name="nearest-psd",
        n=3, m=0, d=2,
        start_point=np.array([1.0, 1.0, 0.0]),
        f=f,
        grad_f=grad_f,
        hess_f=lambda x: np.diag([1.0, 1.0, 2.0]),
        G=lambda x: _x_to_mat(x),
        dG=lambda x, i: _DX[2][i],
        d2G=lambda x, i, j: zero,
    )
    return CorpusEntry(
        problem=prob,
        known_solution=np.array([0.5, 0.5, 0.5]),
        known_multipliers=MultiplierPair(y=np.zeros(0), Z=np.array([[0.5, -0.5], [-0.5, 0.5]])),
        degeneracy_notes="solution on the PSD boundary (one zero eigenvalue)",
        b_count_at_solution=1,
        config=PenaltyConfig(tol_feas=9e-5, tol_opt=1e-6, max_outer=40),
    )


def _equality_degenerate() -> CorpusEntry:
    # minimize x subject to x^2 = 0: feasible set {0}, the constraint
    # gradient vanishes there, so no KKT point exists; the multiplier
    # sequence y_k = -gamma * x_k^2 diverges while the Lagrangian gradient
    # still tends to zero
    prob = NsdpProblem(
        name="equality-degenerate",
        n=1, m=1, d=0,
        start_point=np.array([0.0]),
        f=lambda x: float(x[0]),
        grad_f=lambda x: np.array([1.0]),
        hess_f=lambda x: np.zeros((1, 1)),
        g=lambda x: np.array([x[0] ** 2]),
        jac_g=lambda x: np.array([[2.0 * x[0]]]),
        hess_g=lambda x, y: np.array([[2.0 * y[0]]]),
    )
    return CorpusEntry(
        problem=prob,
        known_solution=np.array([0.0]),
        known_multipliers=None,
        degeneracy_notes=(
            "no KKT point: the stationarity equation 1 - 2*x*y = 0 has no "
            "solution at the only feasible point x = 0; asymptotic "
            "certificates hold with unbounded y"
        ),
        b_count_at_solution=0,
        config=PenaltyConfig(theta=2.0, tol_feas=1e-8, tol_opt=1e-6, max_outer=50),
    )


def _corr_matrix() -> CorpusEntry:
    # fit the off-diagonal of a 2x2 correlation matrix toward -1.5: the
    # matrix is [[1 + x0, x2], [x2, 1 + x1]] with equality constraints
    # pinning the diagonal deviations x0, x1 to zero, and the PSD constraint
    # clamps the off-diagonal at -1 (one zero eigenvalue).  Parametrizing
    # the diagonal by its deviation keeps the stiff coordinates of the
    # penalized subproblems near zero, where floats are dense.
    target = -1.5
    zero, zero_n = _zero(2), _zero(3)
    prob = NsdpProblem(
        name="corr-matrix",
        n=3, m=2, d=2,
        start_point=np.zeros(3),
        f=lambda x: 0.5 * float((x[2] - target) ** 2),
        grad_f=lambda x: np.array([0.0, 0.0, x[2] - target]),
        hess_f=lambda x: np.diag([0.0, 0.0, 1.0]),
        g=lambda x: np.array([x[0], x[1]]),
        jac_g=lambda x: np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]),
        hess_g=lambda x, y: zero_n,
        G=lambda x: np.array([[1.0 + x[0], x[2]], [x[2], 1.0 + x[1]]]),
        dG=lambda x, i: _DX[2][i],
        d2G=lambda x, i, j: zero,
    )
    return CorpusEntry(
        problem=prob,
        known_solution=np.array([0.0, 0.0, -1.0]),
        known_multipliers=MultiplierPair(
            y=np.array([-0.25, -0.25]),
            Z=np.array([[0.25, 0.25], [0.25, 0.25]]),
        ),
        degeneracy_notes="mixed equality + SDP; PSD constraint active at the boundary",
        b_count_at_solution=1,
        config=PenaltyConfig(tol_feas=1e-4, tol_opt=1e-6, max_outer=40),
    )


_REGISTRY = {
    "scalar-bound": _scalar_bound,
    "nearest-psd": _nearest_psd,
    "equality-degenerate": _equality_degenerate,
    "corr-matrix": _corr_matrix,
}


def list_problems() -> list[str]:
    return sorted(_REGISTRY)


def get_problem(name: str) -> CorpusEntry:
    try:
        build = _REGISTRY[name]
    except KeyError:
        raise UnknownProblemError(f"unknown problem {name!r}; available: {', '.join(list_problems())}") from None
    return build()
