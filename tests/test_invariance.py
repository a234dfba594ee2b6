"""Whole solves are invariant under relabelling and under an inactive block.

Renumbering the unknowns (z = x[perm]) and rotating the matrix constraint (G -> Q G Q^T with Q orthogonal)
change nothing the method reads: at corresponding points the penalty values, the norms and the spectra agree.
Nor does lifting G to diag(G, s I_k) with s > 0, dG and d2G padded with zeros: the added eigenvalues of -G
are -s, inactive, so [-G]+ and the penalty, its derivatives and every certificate are those of G.
A solve of the moved problem must therefore take the same path as the original, up to rounding: the
same status, gamma sequence, inner iteration counts, subspace dimensions and b_count, and, with the
move undone, the same x, y and Z at every record.  x is compared within 1e-12; y = -gamma g(x) and
Z = gamma [-G(x)]+^3 carry the rounding of g and G multiplied by about gamma^(1/3) (g and G shrink like
gamma^(-1/3)), so their bound is 1e-12 up to gamma = 1e6 and grows like gamma^(1/3) beyond it.
"""

import dataclasses
import functools

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


def padded(A, corner, Q=None):
    """diag(A, corner), conjugated by Q when one is given."""
    d, k = len(A), len(corner)
    out = np.zeros((d + k, d + k))
    out[:d, :d], out[d:, d:] = A, corner
    return out if Q is None else Q @ out @ Q.T


def lifted(prob, k: int, s: float, Q=None):
    """``prob`` with G(x) replaced by diag(G(x), s I_k), conjugated by Q when one is given; dG and d2G are padded
    with zeros the same way."""
    block, zero = s * np.eye(k), np.zeros((k, k))
    return dataclasses.replace(prob, name=prob.name + "-lifted", d=prob.d + k, G=lambda x: padded(prob.G(x), block, Q),
                               dG=lambda x, i: padded(prob.dG(x, i), zero, Q),
                               d2G=lambda x, i, j: padded(prob.d2G(x, i, j), zero, Q))


@functools.cache
def original(case):
    prob, cfg = CASES[case]()
    return prob, cfg, driver.solve(prob, cfg)


def assert_same_path(original, moved, x_of, Z_of):
    """``moved`` took the path of ``original``, whose x and Z ``x_of`` and ``Z_of`` map to the moved problem's."""
    assert original.final_status == moved.final_status == driver.FEAS_OPT_REACHED
    assert original.b_count == moved.b_count
    assert [(rec.gamma, rec.inner_iterations, rec.subspace_dim) for rec in moved.iterates] == \
        [(rec.gamma, rec.inner_iterations, rec.subspace_dim) for rec in original.iterates]
    for rec, twin in zip(original.iterates, moved.iterates):
        tol = 1e-14 * (100.0 + rec.gamma ** (1 / 3))
        assert np.max(np.abs(twin.x - x_of(rec.x))) <= 1e-12, rec.k
        assert np.max(np.abs(twin.y - rec.y), initial=0.0) <= tol, rec.k
        assert np.max(np.abs(twin.Z - Z_of(rec.Z))) <= tol, rec.k


@pytest.mark.parametrize("case", list(CASES))
def test_relabelled_solve_takes_the_same_path(case):
    prob, cfg, report = original(case)
    gen = rng(sum(map(ord, case)))
    perm = gen.permutation(prob.n)
    Q, _ = np.linalg.qr(gen.normal(size=(prob.d, prob.d)))
    assert_same_path(report, driver.solve(relabelled(prob, perm, Q), cfg), lambda x: x[perm], lambda Z: Q @ Z @ Q.T)


# (case, k, s, conjugated): on corr-matrix, the cheapest solve, every block-diagonal lift with k in {1, 3} and
# s in {1e-3, 1, 1e3} and both lifts conjugated by a random orthogonal Q at s = 1; one of each kind on psd-d5
# (no equalities) and ball-d3 (G not affine), so the lifts add about 0.4 s.  Conjugated at s = 100 or 1e3 the
# eigensolver's absolute error, about eps * s, swamps the small active eigenvalues, and most of these solves end
# in InnerFailure: not pinned here.
LIFTS = [("corr-matrix", k, s, False) for k in (1, 3) for s in (1e-3, 1.0, 1e3)] + \
    [("corr-matrix", k, 1.0, True) for k in (1, 3)] + \
    [("psd-d5", 3, 1e3, False), ("psd-d5", 1, 1.0, True), ("ball-d3", 1, 1e-3, False), ("ball-d3", 3, 1.0, True)]


@pytest.mark.parametrize("case, k, s, conjugated", LIFTS)
def test_inactive_block_changes_nothing(case, k, s, conjugated):
    prob, cfg, report = original(case)
    Q = np.linalg.qr(rng(k + sum(map(ord, case))).normal(size=(prob.d + k, prob.d + k)))[0] if conjugated else None
    moved = driver.solve(lifted(prob, k, s, Q), cfg)
    assert_same_path(report, moved, lambda x: x, lambda Z: padded(Z, np.zeros((k, k)), Q))
