import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import brentq

from nsdpen import matfun, optimality, penalty, problems
from nsdpen.errors import InvalidInputError
from nsdpen.model import NsdpProblem

from conftest import (BALL_CASES, ball_problem, cap_problem, counting, eig_classes, fd_jac, mixed_ball_point, rng,
                      script_F_point, second_derivatives)


def unconstrained_indefinite():
    # no constraints at all: the reduced curvature matrix is just hess_f
    return NsdpProblem(
        name="indefinite",
        n=2, m=0, d=0,
        start_point=np.zeros(2),
        f=lambda x: 0.5 * (x[0] ** 2 - 2.0 * x[1] ** 2),
        grad_f=lambda x: np.array([x[0], -2.0 * x[1]]),
        hess_f=lambda x: np.diag([1.0, -2.0]),
    )


def scalar_free_matrix(values):
    # n = 1 with a constant matrix constraint; handy for multiplier algebra
    values = np.asarray(values, dtype=float)
    d = values.size
    return NsdpProblem(
        name="fixed-matrix",
        n=1, m=0, d=d,
        start_point=np.zeros(1),
        f=lambda x: 0.0,
        grad_f=lambda x: np.zeros(1),
        hess_f=lambda x: np.zeros((1, 1)),
        G=lambda x: np.diag(values),
        dG=lambda x, i: np.zeros((d, d)),
        d2G=lambda x, i, j: np.zeros((d, d)),
    )


def mixed_point(prob, seed):
    """A point where G(x) has positive, zero and negative eigenvalues, with multipliers y, Z."""
    gen = rng(seed)
    x = mixed_ball_point(gen, prob.d)
    y = gen.normal(size=prob.m)
    Z = gen.normal(size=(prob.d, prob.d))
    return x, y, Z + Z.T


def loop_lagrangian_hess(prob, x, y, Z):
    """Reference Lagrangian Hessian: one trace inner product per upper-triangle entry."""
    hess_f, hess_g, d2G = second_derivatives(prob)
    H = matfun.symmetrize(np.asarray(hess_f(x), dtype=float))
    for j in range(prob.m):
        H -= y[j] * matfun.symmetrize(np.asarray(hess_g(x, j), dtype=float))
    for i in range(prob.n):
        for j in range(i, prob.n):
            val = float(np.sum(np.asarray(d2G(x, i, j), dtype=float) * Z))
            H[i, j] -= val
            if i != j:
                H[j, i] -= val
    return matfun.symmetrize(H)


def loop_sigma_term(prob, x, Z):
    """Reference sigma-term: one trace inner product per entry."""
    dec = matfun.eig_sym(np.asarray(prob.G(x), dtype=float))
    keep = np.abs(dec.values) > matfun.default_zero_tol(dec)
    inv = np.zeros(prob.d)
    inv[keep] = 1.0 / dec.values[keep]
    pinv = (dec.vectors * inv) @ dec.vectors.T
    Gi = [matfun.symmetrize(np.asarray(prob.dG(x, i), dtype=float)) for i in range(prob.n)]
    left = [Z @ Gi[i] @ pinv for i in range(prob.n)]
    S = np.zeros((prob.n, prob.n))
    for i in range(prob.n):
        for j in range(prob.n):
            S[i, j] = 2.0 * float(np.sum(left[i] * Gi[j]))
    return matfun.symmetrize(S)


class TestLoopEquivalence:
    @pytest.mark.parametrize("d,m,fd", BALL_CASES)
    def test_matches_loop_assembly(self, d, m, fd):
        self.check_loop_assembly(ball_problem(d, m=m, fd_second_order=fd, seed=d + m))

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "synthesized"])
    def test_x_dependent_curvature_matches_loop_assembly(self, fd):
        # G = I - X^3: d2G moves with x, so a contraction or a difference taken at another point shows
        self.check_loop_assembly(cap_problem(3, seed=3, fd_second_order=fd))

    @staticmethod
    def check_loop_assembly(prob):
        for seed in (40, 41):
            x, y, Z = mixed_point(prob, seed)
            assert all(mask.any() for mask in eig_classes(matfun.eig_sym(prob.G(x))))
            for point in (x, rng(seed).normal(size=prob.n)):
                for new, ref in ((optimality.lagrangian_hess(prob, point, y, Z), loop_lagrangian_hess(prob, point, y, Z)),
                                 (optimality.sigma_term(script_F_point(prob, point), Z), loop_sigma_term(prob, point, Z))):
                    assert np.linalg.norm(new - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_hook_counts(self):
        prob, counts = counting(ball_problem(4, m=2))
        x, y, Z = mixed_point(prob, 42)
        n = prob.n
        H = optimality.lagrangian_hess(prob, x, y, Z)
        assert np.array_equal(H, H.T)  # every part is exactly symmetric, so no final symmetrize is needed
        assert (counts["dG"], counts["d2G"]) == (0, n * (n + 1) // 2)
        at = script_F_point(prob, x)
        counts.update(dict.fromkeys(counts, 0))
        optimality.sigma_term(at, Z)
        assert (counts["G"], counts["dG"], counts["d2G"]) == (0, n, 0)


class TestLagrangian:
    def test_zero_multipliers(self):
        prob = problems.get_problem("nearest-psd").problem
        x = np.array([0.3, -0.4, 1.1])
        assert np.allclose(optimality.lagrangian_grad(prob, x, None, np.zeros((2, 2))), prob.grad_f(x))
        assert np.allclose(optimality.lagrangian_hess(prob, x, None, np.zeros((2, 2))), prob.hess_f(x))

    def test_scalar_bound_kkt_point(self):
        prob = problems.get_problem("scalar-bound").problem
        out = optimality.lagrangian_grad(prob, np.array([0.0]), None, np.array([[2.0]]))
        assert out[0] == pytest.approx(0.0, abs=1e-15)

    def test_gradient_matches_central_difference(self):
        gen = rng(31)
        prob = problems.get_problem("corr-matrix").problem
        for _ in range(10):
            x = gen.normal(size=3)
            y = gen.normal(size=2)
            Z = gen.normal(size=(2, 2))
            Z = 0.5 * (Z + Z.T)

            def L(z):
                val = prob.f(z) - float(np.asarray(prob.g(z)) @ y)
                val -= float(np.sum(np.asarray(prob.G(z)) * Z))
                return val

            h = 1e-5 * (1 + np.abs(x))
            fd = np.zeros(3)
            for i in range(3):
                e = np.zeros(3)
                e[i] = h[i]
                fd[i] = (L(x + e) - L(x - e)) / (2 * h[i])
            ana = optimality.lagrangian_grad(prob, x, y, Z)
            assert np.linalg.norm(ana - fd) <= 1e-6 * (1 + np.linalg.norm(ana))

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "synthesized"])
    def test_x_dependent_curvature_hessian_matches_difference_of_gradient(self, fd):
        # G = I - X^3 at an infeasible point (X has the eigenvalue 2 > 1): the d2G term is read at x
        prob = cap_problem(3, seed=5, fd_second_order=fd)
        x, _, Z = mixed_point(prob, 38)
        assert np.linalg.eigvalsh(prob.G(x))[0] < -1.0
        ana = optimality.lagrangian_hess(prob, x, None, Z)
        fd_H = fd_jac(lambda z: optimality.lagrangian_grad(prob, z, None, Z), x, prob.n)
        assert np.linalg.norm(ana - 0.5 * (fd_H + fd_H.T)) <= 1e-6 * (1 + np.linalg.norm(ana))

    def test_hessian_matches_central_difference_of_gradient(self):
        gen = rng(37)
        prob = problems.get_problem("corr-matrix").problem
        for _ in range(5):
            x = gen.normal(size=3)
            y = gen.normal(size=2)
            Z = gen.normal(size=(2, 2))
            Z = 0.5 * (Z + Z.T)
            h = 1e-5 * (1 + np.abs(x))
            cols = []
            for i in range(3):
                e = np.zeros(3)
                e[i] = h[i]
                cols.append((optimality.lagrangian_grad(prob, x + e, y, Z)
                             - optimality.lagrangian_grad(prob, x - e, y, Z)) / (2 * h[i]))
            fd = np.column_stack(cols)
            ana = optimality.lagrangian_hess(prob, x, y, Z)
            assert np.linalg.norm(ana - 0.5 * (fd + fd.T)) <= 1e-4 * (1 + np.linalg.norm(ana))


class TestRecoverMultipliers:
    def test_fixed_spectrum(self):
        prob = scalar_free_matrix([1.0, -1.0])
        mult = optimality.recover_multipliers(script_F_point(prob, np.zeros(1), 3.0))
        assert np.allclose(mult.Z, np.diag([0.0, 3.0]))

    def test_feasible_point_gives_zero(self):
        entry = problems.get_problem("corr-matrix")
        mult = optimality.recover_multipliers(script_F_point(entry.problem, entry.problem.start_point, 5.0))
        assert np.allclose(mult.y, 0.0)
        assert np.allclose(mult.Z, 0.0)

    def test_recovered_z_psd(self):
        gen = rng(32)
        prob = problems.get_problem("nearest-psd").problem
        for _ in range(10):
            x = gen.normal(size=3)
            Z = optimality.recover_multipliers(script_F_point(prob, x, 11.0)).Z
            assert np.linalg.eigvalsh(Z)[0] >= -1e-10 * (1 + np.linalg.norm(Z))

    def test_scalar_bound_stationarity_identity(self):
        # at the minimizer of the penalized subproblem the recovered
        # multiplier satisfies z = gamma*(-x)^3 = 2(1+x)
        prob = problems.get_problem("scalar-bound").problem
        for gamma in (1e2, 1e5, 1e8):
            x_star = -brentq(lambda t: gamma * t**3 - 2.0 * (1.0 - t), 0.0, 1.0, xtol=1e-15)
            mult = optimality.recover_multipliers(script_F_point(prob, np.array([x_star]), gamma))
            assert mult.Z[0, 0] == pytest.approx(2.0 * (1.0 + x_star), rel=1e-9)

    def test_requires_positive_gamma(self):
        prob = problems.get_problem("scalar-bound").problem
        with pytest.raises(InvalidInputError):
            optimality.recover_multipliers(script_F_point(prob, np.zeros(1), 0.0))

    def test_recovered_z_commutes_and_vanishes_on_positive_eigenspace(self):
        gen = rng(33)
        prob = problems.get_problem("nearest-psd").problem
        for _ in range(20):
            x = gen.normal(size=3)
            Gx = np.asarray(prob.G(x))
            Z = optimality.recover_multipliers(script_F_point(prob, x, 4.0)).Z
            scale = 1 + np.linalg.norm(Gx) * np.linalg.norm(Z)
            assert np.linalg.norm(Gx @ Z - Z @ Gx) <= 1e-9 * scale
            dec = matfun.eig_sym(Gx)
            for j in np.flatnonzero(eig_classes(dec)[0]):
                v = dec.vectors[:, j]
                assert abs(v @ Z @ v) <= 1e-12 * (1 + np.linalg.norm(Z))


class TestPenaltyPointInput:
    def test_gamma_is_sigma_tau(self):
        prob = problems.get_problem("corr-matrix").problem
        x = np.array([0.3, -1.4, 0.8])
        at = penalty.penalty_at(prob, x, penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=2.0, tau=3.0))
        ref = optimality.recover_multipliers(script_F_point(prob, x, 6.0))
        mult = optimality.recover_multipliers(at)
        assert np.array_equal(mult.y, ref.y) and np.array_equal(mult.Z, ref.Z)

    @pytest.mark.parametrize("shift", ["v", "M"])
    def test_shifted_point_rejected(self, shift):
        prob = problems.get_problem("corr-matrix").problem
        shifts = dict(v=None, M=None)
        shifts[shift] = np.ones(2) if shift == "v" else np.eye(2)
        at = penalty.penalty_at(prob, prob.start_point, penalty.PenaltyParams(rho=1.0, sigma=1.0, tau=1.0, **shifts))
        Z = np.eye(2)
        for call in (lambda: optimality.recover_multipliers(at),
                     lambda: optimality.infeasibility_u(at),
                     lambda: optimality.jordan_complementarity(at, Z),
                     lambda: optimality.sigma_term(at, Z),
                     lambda: optimality.critical_subspace_basis(at, 1),
                     lambda: optimality.second_order_residual(at, np.zeros(2), Z, np.eye(3))):
            with pytest.raises(InvalidInputError, match="v = M = None"):
                call()


class TestJordan:
    def test_zero_multiplier(self):
        prob = scalar_free_matrix([1.0, -1.0])
        prod, norm = optimality.jordan_complementarity(script_F_point(prob, np.zeros(1)), np.zeros((2, 2)))
        assert norm == 0.0 and np.allclose(prod, 0.0)

    def test_diagonal_example(self):
        prob = scalar_free_matrix([1.0, -1.0])
        prod, norm = optimality.jordan_complementarity(script_F_point(prob, np.zeros(1)), np.diag([0.0, 3.0]))
        assert np.allclose(prod, np.diag([0.0, -3.0]))
        assert norm == pytest.approx(3.0)

    @given(st.integers(0, 10**6))
    def test_norm_bounded_by_plain_product(self, seed):
        gen = rng(seed)
        d = int(gen.integers(1, 7))
        G = gen.normal(size=(d, d))
        G = 0.5 * (G + G.T)
        B = gen.normal(size=(d, d))
        Z = B @ B.T  # PSD
        prod = 0.5 * (G @ Z + Z @ G)
        assert np.linalg.norm(prod) <= np.linalg.norm(G @ Z) + 1e-12 * (1 + np.linalg.norm(G @ Z))


class TestSigmaTerm:
    def test_zero_multiplier(self):
        prob = problems.get_problem("nearest-psd").problem
        assert np.allclose(optimality.sigma_term(script_F_point(prob, np.array([1.0, 1.0, 0.0])), np.zeros((2, 2))), 0.0)

    def test_scalar_pseudo_inverse(self):
        prob = problems.get_problem("scalar-bound").problem
        for x, z in ((0.5, 2.0), (-0.3, 1.5)):
            out = optimality.sigma_term(script_F_point(prob, np.array([x])), np.array([[z]]))
            assert out[0, 0] == pytest.approx(2.0 * z / x)

    def test_symmetry_and_homogeneity(self):
        gen = rng(34)
        prob = problems.get_problem("nearest-psd").problem
        for _ in range(10):
            x = gen.normal(size=3)
            Z = gen.normal(size=(2, 2))
            Z = 0.5 * (Z + Z.T)
            S = optimality.sigma_term(script_F_point(prob, x), Z)
            assert np.array_equal(S, S.T)
            a = float(gen.uniform(0.1, 5.0))
            Sa = optimality.sigma_term(script_F_point(prob, x), a * Z)
            assert np.allclose(Sa, a * S, rtol=1e-12, atol=1e-12)

    @staticmethod
    def assert_matches_trace_oracle(prob, x, Z):
        # brute-force entries 2 tr(Z dG_i pinv(G) dG_j) with the library
        # pseudo-inverse as the independent path
        pinv = np.linalg.pinv(np.asarray(prob.G(x)), rcond=1e-10)
        ref = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                ref[i, j] = 2.0 * np.trace(Z @ prob.dG(x, i) @ pinv @ prob.dG(x, j))
        ref = 0.5 * (ref + ref.T)
        S = optimality.sigma_term(script_F_point(prob, x), Z)
        assert np.linalg.norm(S - ref) <= 1e-9 * (1 + np.linalg.norm(ref))

    def test_entrywise_trace_oracle(self):
        gen = rng(38)
        prob = problems.get_problem("nearest-psd").problem
        for _ in range(5):
            x = gen.normal(size=3) + np.array([1.0, 1.0, 0.0])
            Z = gen.normal(size=(2, 2))
            Z = 0.5 * (Z + Z.T)
            self.assert_matches_trace_oracle(prob, x, Z)

    @pytest.mark.parametrize("s", [1.5e-10, 0.6e-10])
    def test_pseudo_inverse_cut_at_default_zero_tol(self, s):
        # G = diag(1, s) has ||G||_F = ||G||_2 = 1, so pinv's cut 1e-10 ||G||_2 is default_zero_tol: s = 1.5e-10 is
        # inverted and 0.6e-10 zeroed, and a cut scaled by d = 2 either way gets one of them wrong by about 1e10
        prob = problems.get_problem("nearest-psd").problem
        Z = np.array([[0.3, -1.2], [-1.2, 0.7]])
        self.assert_matches_trace_oracle(prob, np.array([1.0, s, 0.0]), Z)


class TestInfeasibility:
    def test_feasible(self):
        entry = problems.get_problem("corr-matrix")
        assert optimality.infeasibility_u(script_F_point(entry.problem, entry.problem.start_point)) == 0.0

    def test_equality_part(self):
        prob = NsdpProblem(
            name="two-eq", n=1, m=2, d=0,
            start_point=np.zeros(1),
            f=lambda x: 0.0, grad_f=lambda x: np.zeros(1),
            hess_f=lambda x: np.zeros((1, 1)),
            g=lambda x: np.array([3.0, -4.0]),
            jac_g=lambda x: np.zeros((1, 2)),
            hess_g=lambda x, y: np.zeros((1, 1)),
        )
        assert optimality.infeasibility_u(script_F_point(prob, np.zeros(1))) == pytest.approx(5.0)

    def test_matrix_part(self):
        prob = scalar_free_matrix([1.0, -2.0])
        assert optimality.infeasibility_u(script_F_point(prob, np.zeros(1))) == pytest.approx(2.0)


class TestCriticalSubspace:
    def test_unconstrained_full_space(self):
        prob = unconstrained_indefinite()
        B = optimality.critical_subspace_basis(script_F_point(prob, np.zeros(2)), 0)
        assert B.shape == (2, 2)
        assert np.allclose(B.T @ B, np.eye(2))

    def test_square_independent_jacobian_empty(self):
        prob = NsdpProblem(
            name="full-eq", n=2, m=2, d=0,
            start_point=np.zeros(2),
            f=lambda x: 0.0, grad_f=lambda x: np.zeros(2),
            hess_f=lambda x: np.zeros((2, 2)),
            g=lambda x: x.copy(),
            jac_g=lambda x: np.eye(2),
            hess_g=lambda x, y: np.zeros((2, 2)),
        )
        B = optimality.critical_subspace_basis(script_F_point(prob, np.zeros(2)), 0)
        assert B.shape == (2, 0)

    def test_scalar_bound_active_compression_empty(self):
        prob = problems.get_problem("scalar-bound").problem
        B = optimality.critical_subspace_basis(script_F_point(prob, np.array([1e-8])), 1)
        assert B.shape == (1, 0)

    def test_constraints_annihilated(self):
        gen = rng(35)
        prob = problems.get_problem("nearest-psd").problem
        x = gen.normal(size=3)
        B = optimality.critical_subspace_basis(script_F_point(prob, x), 1)
        assert B.shape == (3, 2)
        dec = matfun.eig_sym(np.asarray(prob.G(x)))
        u = dec.vectors[:, -1]
        for col in B.T:
            D = sum(col[i] * np.asarray(prob.dG(x, i)) for i in range(3))
            assert abs(u @ D @ u) <= 1e-10

    def test_all_zero_rows_give_the_identity(self, monkeypatch):
        # dG = 0, so the compressed rows vanish; the SVD of a zero matrix may return any orthonormal basis (here a
        # reversed, negated one), and the basis is the identity whatever it returns
        prob = dataclasses.replace(ball_problem(2), dG=lambda x, i: np.zeros((2, 2)))
        at = script_F_point(prob, np.zeros(prob.n))
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd", lambda A: (lambda u, s, vt: (u, s, -vt[::-1]))(*svd(A)))
        assert np.array_equal(optimality.critical_subspace_basis(at, 2), np.eye(prob.n))

    def test_b_count_bounds(self):
        prob = problems.get_problem("nearest-psd").problem
        with pytest.raises(InvalidInputError):
            optimality.critical_subspace_basis(script_F_point(prob, np.zeros(3)), 3)
        for bad in (1.5, True):
            with pytest.raises(InvalidInputError):
                optimality.critical_subspace_basis(script_F_point(prob, np.zeros(3)), bad)


class TestSecondOrderResidual:
    def test_psd_reduced_matrix(self):
        prob = unconstrained_indefinite()
        basis = np.eye(2)[:, :1]  # only the positive-curvature direction
        assert optimality.second_order_residual(script_F_point(prob, np.zeros(2)), None, None, basis) == 0.0

    def test_indefinite_reduced_matrix(self):
        prob = unconstrained_indefinite()
        out = optimality.second_order_residual(script_F_point(prob, np.zeros(2)), None, None, np.eye(2))
        assert out == pytest.approx(2.0)

    def test_empty_basis_vacuous(self):
        prob = unconstrained_indefinite()
        assert optimality.second_order_residual(script_F_point(prob, np.zeros(2)), None, None, np.zeros((2, 0))) == 0.0

    @pytest.mark.parametrize("basis", [np.eye(3), np.ones(2), np.zeros((1, 2, 0))], ids=["rows", "vector", "stack"])
    def test_wrongly_shaped_basis_rejected(self, basis):
        prob = unconstrained_indefinite()
        with pytest.raises(InvalidInputError, match=r"^basis must be 2 x s$"):
            optimality.second_order_residual(script_F_point(prob, np.zeros(2)), None, None, basis)

    def test_rotation_invariance(self):
        gen = rng(36)
        prob = problems.get_problem("nearest-psd").problem
        x = gen.normal(size=3)
        at = script_F_point(prob, x, 3.0)
        mult = optimality.recover_multipliers(at)
        B = optimality.critical_subspace_basis(at, 1)
        theta = 1.2
        R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        r1 = optimality.second_order_residual(at, mult.y, mult.Z, B)
        r2 = optimality.second_order_residual(at, mult.y, mult.Z, B @ R)
        assert r1 == pytest.approx(r2, abs=1e-10)


class TestEvaluateResiduals:
    def test_bundle_consistency(self):
        prob = problems.get_problem("scalar-bound").problem
        res, mult = optimality.evaluate_residuals(script_F_point(prob, np.array([0.0]), 100.0), 1)
        # G(0) = 0 so the recovered multiplier vanishes and stationarity is
        # the raw objective gradient
        assert mult.Z[0, 0] == 0.0
        assert res.stationarity == pytest.approx(2.0)
        assert res.complementarity == 0.0
        assert res.feasibility_u == 0.0
        assert res.subspace_dim == 0

    def test_stationarity_is_penalty_gradient_norm(self):
        # the number solve records: the norm of the script_F gradient, not of a
        # separately assembled Lagrangian gradient (these differ in the last bits)
        gen = rng(39)
        entry = problems.get_problem("equality-degenerate")
        prob = entry.problem
        for _ in range(50):
            x = prob.start_point + gen.normal(size=prob.n)
            gamma = 10.0 ** gen.uniform(0, 12)
            res, _ = optimality.evaluate_residuals(script_F_point(prob, x, gamma), entry.b_count_at_solution)
            assert res.stationarity == float(np.linalg.norm(penalty.penalty_grad(script_F_point(prob, x, gamma))))
