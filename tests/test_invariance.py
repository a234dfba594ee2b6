"""Whole solves are invariant under relabelling.

Renumbering the unknowns (z = x[perm]) and rotating the matrix constraint (G -> Q G Q^T with Q orthogonal)
change nothing the method reads: at corresponding points the penalty values, the norms and the spectra agree.
A solve of the relabelled problem must therefore take the same path as the original, up to rounding: the
same status, gamma sequence, inner iteration counts, subspace dimensions and b_count, and, with the
relabelling undone, the same x, y and Z at every record.  x is compared within 1e-12; y = -gamma g(x) and
Z = gamma [-G(x)]+^3 carry the rounding of g and G multiplied by about gamma^(1/3) (g and G shrink like
gamma^(-1/3)), so their bound is 1e-12 up to gamma = 1e6 and grows like gamma^(1/3) beyond it.
"""

import dataclasses

import numpy as np
import pytest

from nsdpen import driver, problems

from conftest import ball_problem, cap_problem, nearest_psd_d5, rng


def relabelled(prob, perm: np.ndarray, Q: np.ndarray):
    """``prob`` in the unknowns z = x[perm], with G(x) replaced by Q G(x) Q^T."""
    inv, idx = np.argsort(perm), perm.tolist()
    block = np.ix_(perm, perm)

    def rot(A):
        return Q @ A @ Q.T

    hooks = dict(f=lambda z: prob.f(z[inv]),
                 grad_f=lambda z: prob.grad_f(z[inv])[perm],
                 hess_f=lambda z: prob.hess_f(z[inv])[block])
    if prob.m > 0:
        hooks.update(g=lambda z: prob.g(z[inv]),
                     jac_g=lambda z: prob.jac_g(z[inv])[perm],
                     hess_g=lambda z, y: prob.hess_g(z[inv], y)[block])
    if prob.d > 0:
        hooks.update(G=lambda z: rot(prob.G(z[inv])),
                     dG=lambda z, i: rot(prob.dG(z[inv], idx[i])),
                     d2G=lambda z, i, j: rot(prob.d2G(z[inv], idx[i], idx[j])))
    return dataclasses.replace(prob, name=prob.name + "-relabelled", start_point=prob.start_point[perm], **hooks)


def corr_matrix():
    entry = problems.get_problem("corr-matrix")
    return entry.problem, entry.config


CASES = {"ball-d3": lambda: (ball_problem(3), driver.PenaltyConfig(tol_feas=1e-4, max_outer=40)),
         "cap-d3": lambda: (cap_problem(3, seed=7), driver.PenaltyConfig(tol_feas=1e-4, tol_opt=1e-6, max_outer=40)),
         "psd-d5": nearest_psd_d5,
         "corr-matrix": corr_matrix}


@pytest.mark.parametrize("case", list(CASES))
def test_relabelled_solve_takes_the_same_path(case):
    prob, cfg = CASES[case]()
    gen = rng(sum(map(ord, case)))
    perm = gen.permutation(prob.n)
    Q, _ = np.linalg.qr(gen.normal(size=(prob.d, prob.d)))
    original, moved = (driver.solve(p, cfg) for p in (prob, relabelled(prob, perm, Q)))
    assert original.final_status == moved.final_status == driver.FEAS_OPT_REACHED
    assert original.b_count == moved.b_count
    assert [(rec.gamma, rec.inner_iterations, rec.subspace_dim) for rec in moved.iterates] == \
        [(rec.gamma, rec.inner_iterations, rec.subspace_dim) for rec in original.iterates]
    for rec, twin in zip(original.iterates, moved.iterates):
        tol = 1e-14 * (100.0 + rec.gamma ** (1 / 3))
        assert np.max(np.abs(twin.x - rec.x[perm])) <= 1e-12, rec.k
        assert np.max(np.abs(twin.y - rec.y), initial=0.0) <= tol, rec.k
        assert np.max(np.abs(twin.Z - Q @ rec.Z @ Q.T)) <= tol, rec.k
