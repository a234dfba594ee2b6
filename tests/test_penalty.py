import dataclasses
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsdpen import matfun, optimality, penalty, problems
from nsdpen.errors import InvalidInputError
from nsdpen.model import NsdpProblem

from conftest import (BALL_CASES, ball_problem, cap_problem, counting, eig_classes, fd_grad, fd_jac, mixed_ball_point,
                      rng, script_F_point, second_derivatives, spectrum_matrix)


def scalar_quartic_problem():
    # f = 0, G(x) = x as a 1x1 block: the penalty reduces to a scalar quartic
    return NsdpProblem(
        name="pure-quartic",
        n=1, m=0, d=1,
        start_point=np.array([1.0]),
        f=lambda x: 0.0,
        grad_f=lambda x: np.zeros(1),
        hess_f=lambda x: np.zeros((1, 1)),
        G=lambda x: np.array([[x[0]]]),
        dG=lambda x, i: np.array([[1.0]]),
        d2G=lambda x, i, j: np.zeros((1, 1)),
    )


def generic_params(prob, seed=100):
    gen = rng(seed)
    v = gen.normal(size=prob.m) if prob.m > 0 else None
    M = None
    if prob.d > 0:
        M = gen.normal(size=(prob.d, prob.d))
        M = 0.5 * (M + M.T)
    return penalty.PenaltyParams(v=v, M=M, rho=0.7, sigma=1.3, tau=2.0)


def mixed_point(prob, seed):
    """A point and parameters at which both G(x) and M/tau - G(x) have positive, zero and negative eigenvalues."""
    gen = rng(seed)
    x = mixed_ball_point(gen, prob.d)
    M = 2.0 * (prob.G(x) + spectrum_matrix(gen, [2.0, 0.0, -1.5, 0.7][:prob.d]))
    v = gen.normal(size=prob.m) if prob.m > 0 else None
    return x, penalty.PenaltyParams(v=v, M=M, rho=0.7, sigma=1.3, tau=2.0)


def loop_penalty_hess(prob, x, p):
    """Reference penalty Hessian assembled by explicit loops.

    n applications of the derivative operator of [.]+^3, then one trace
    inner product per upper-triangle entry.
    """
    st = p.sigma * p.tau
    hess_f, hess_g, d2G = second_derivatives(prob)
    H = p.rho * matfun.symmetrize(np.asarray(hess_f(x), dtype=float))
    if prob.m > 0:
        v = p.v if p.v is not None else np.zeros(prob.m)
        r = v / p.tau - np.asarray(prob.g(x), dtype=float)
        for j in range(prob.m):
            H = H - st * r[j] * matfun.symmetrize(np.asarray(hess_g(x, j), dtype=float))
        J = np.asarray(prob.jac_g(x), dtype=float)
        H = H + st * (J @ J.T)
    Gx = matfun.symmetrize(np.asarray(prob.G(x), dtype=float))
    dec = matfun.eig_sym(-Gx if p.M is None else p.M / p.tau - Gx)
    cube = matfun.q_cube_from(dec)
    Gi = [matfun.symmetrize(np.asarray(prob.dG(x, i), dtype=float)) for i in range(prob.n)]
    dq_Gj = [matfun.dq_apply(dec, Gj) for Gj in Gi]
    for i in range(prob.n):
        for j in range(i, prob.n):
            val = -st * float(np.sum(np.asarray(d2G(x, i, j), dtype=float) * cube))
            val += st * float(np.sum(Gi[i] * dq_Gj[j]))
            H[i, j] += val
            if i != j:
                H[j, i] += val
    return matfun.symmetrize(H)


class TestSpecialParams:
    def test_script_f(self):
        p = penalty.special_params("script_F", 2.0)
        assert p.v is None and p.M is None
        assert (p.rho, p.sigma, p.tau) == (1.0, 2.0, 1.0)

    def test_script_p(self):
        p = penalty.special_params("script_P")
        assert (p.rho, p.sigma, p.tau) == (0.0, 1.0, 1.0)

    def test_script_f_needs_positive_gamma(self):
        with pytest.raises(InvalidInputError):
            penalty.special_params("script_F", 0.0)
        with pytest.raises(InvalidInputError):
            penalty.special_params("script_F")

    def test_script_p_takes_no_gamma(self):
        with pytest.raises(InvalidInputError):
            penalty.special_params("script_P", 1.0)

    def test_unknown_kind(self):
        with pytest.raises(InvalidInputError):
            penalty.special_params("script_X")

    def test_param_validation(self):
        with pytest.raises(InvalidInputError):
            penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=0.0, tau=1.0)
        with pytest.raises(InvalidInputError):
            penalty.PenaltyParams(v=None, M=None, rho=-1.0, sigma=1.0, tau=1.0)
        for tau in (0.0, -1.0):
            with pytest.raises(InvalidInputError, match="^tau must be positive$"):
                penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=1.0, tau=tau)
        for bad in (dict(rho=np.nan), dict(rho=np.inf), dict(sigma=np.inf), dict(sigma=np.nan),
                    dict(tau=np.inf), dict(tau=np.nan),
                    dict(v=[np.nan, 0.0]), dict(v=[0.0, np.inf]),
                    dict(M=[[np.inf, 0.0], [0.0, 1.0]]), dict(M=[[1.0, np.nan], [0.0, 1.0]])):
            with pytest.raises(InvalidInputError, match="finite"):
                penalty.PenaltyParams(**{**dict(v=None, M=None, rho=1.0, sigma=1.0, tau=1.0), **bad})
        # a string raised a bare TypeError, and a bool ran as 1.0
        for bad in (dict(rho="1"), dict(sigma=True), dict(tau=None)):
            with pytest.raises(InvalidInputError, match=f"^{next(iter(bad))} must be a real number"):
                penalty.PenaltyParams(**{**dict(v=None, M=None, rho=1.0, sigma=1.0, tau=1.0), **bad})
        for gamma in ("10", True):
            with pytest.raises(InvalidInputError, match="^gamma must be a real number"):
                penalty.special_params("script_F", gamma)


class TestPenaltyPoint:
    @pytest.mark.parametrize("m", [0, 2])
    def test_hook_counts(self, m):
        # one g (when m > 0), one G and one eigendecomposition per point;
        # value and gradient read them and call neither again
        prob, counts = counting(ball_problem(4, m=m))
        x, p = mixed_point(prob, 113)
        counts.update(dict.fromkeys(counts, 0))
        eigs = []
        eig_sym = matfun.eig_sym

        def counting_eig_sym(X):
            eigs.append(X)
            return eig_sym(X)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(matfun, "eig_sym", counting_eig_sym)
            at = penalty.penalty_at(prob, x, p)
            assert (counts["g"], counts["G"], len(eigs)) == (int(m > 0), 1, 1)
            assert counts["f"] == counts["dG"] == 0
            assert (at.r is None) == (m == 0)
            counts.update(dict.fromkeys(counts, 0))
            penalty.penalty_value(at)
            penalty.penalty_grad(at)
            assert (counts["g"], counts["G"], len(eigs)) == (0, 0, 1)

    def test_one_dG_stack_per_point(self, monkeypatch):
        # a value alone makes no dG call; the gradient, the Hessian and the
        # certificates then share one stack: n dG calls for the point, and one [-G]+^3
        prob, counts = counting(ball_problem(4, m=2))
        gen = rng(114)
        at = script_F_point(prob, mixed_ball_point(gen, prob.d), 3.0)
        Z = spectrum_matrix(gen, [1.0, 0.5, 0.0, 0.0])
        cubes = []
        q_cube_from = matfun.q_cube_from
        monkeypatch.setattr(matfun, "q_cube_from", lambda dec: cubes.append(dec) or q_cube_from(dec))
        penalty.penalty_value(at)
        assert counts["dG"] == 0
        penalty.penalty_grad(at)
        penalty.penalty_hess(at)
        optimality.sigma_term(at, Z)
        assert optimality.critical_subspace_basis(at, 2).shape[1] > 0
        assert np.array_equal(optimality.recover_multipliers(at).Z, 3.0 * q_cube_from(at.dec))
        assert counts["dG"] == prob.n and len(cubes) == 1
        assert not at.dG.flags.writeable and not at.q_cube.flags.writeable

    def test_dG_shared_only_with_the_same_bits(self):
        # 0.0 * x[0] is -0.0 where x[0] < 0: the stacks at x and -x are equal in value, not in bits
        prob = dataclasses.replace(ball_problem(2), dG=lambda x, i: np.full((2, 2), 0.0 * x[0]))
        p = penalty.special_params("script_F", 1.0)
        x = np.ones(prob.n)
        first = penalty.penalty_at(prob, x, p)
        stack = first.share_dG(None)
        assert stack is first.dG
        same, negated = penalty.penalty_at(prob, x, p), penalty.penalty_at(prob, -x, p)
        assert same.share_dG(stack) is stack and same.dG is stack
        own = negated.dG
        assert np.array_equal(own, stack) and np.signbit(own).all() and not np.signbit(stack).any()
        assert negated.share_dG(stack) is own and negated.dG is own

    @pytest.mark.parametrize("hook,bad", [("f", lambda x: 1j), ("g", lambda x: [None]),
                                          ("G", lambda x: np.eye(2) * 1j), ("dG", lambda x, i: "0")])
    def test_non_real_hook_output_names_the_hook(self, hook, bad):
        prob = dataclasses.replace(ball_problem(2, m=1), **{hook: bad})
        with pytest.raises(InvalidInputError, match=f"^{hook} must be real numbers"):
            at = script_F_point(prob, prob.start_point)
            penalty.penalty_value(at)
            penalty.penalty_grad(at)

    def test_owns_a_copy_of_x(self):
        prob = ball_problem(3, m=2)
        x = prob.start_point.copy()
        at = penalty.penalty_at(prob, x, penalty.special_params("script_F", 2.0))
        before = penalty.penalty_value(at)
        x += 1.0
        assert np.array_equal(at.x, prob.start_point)
        assert penalty.penalty_value(at) == before

    def test_shape_checks(self):
        prob = ball_problem(3, m=2)
        x = prob.start_point
        with pytest.raises(InvalidInputError, match="x must have shape"):
            penalty.penalty_at(prob, x[:-1], penalty.special_params("script_F", 1.0))
        with pytest.raises(InvalidInputError, match="v must have shape"):
            penalty.penalty_at(prob, x, penalty.PenaltyParams(v=np.zeros(3), M=None, rho=1.0, sigma=1.0, tau=1.0))
        with pytest.raises(InvalidInputError, match="M must have shape"):
            penalty.penalty_at(prob, x, penalty.PenaltyParams(v=None, M=np.eye(2), rho=1.0, sigma=1.0, tau=1.0))

    @pytest.mark.parametrize("M", [0.5, [0.5, 0.5], np.zeros((2, 3)), np.zeros((2, 2, 2))])
    def test_non_square_M_rejected(self, M):
        # symmetrize transposes the last two axes, so M is checked to be a matrix before it is symmetrized
        with pytest.raises(InvalidInputError, match="M must be a square matrix"):
            penalty.PenaltyParams(v=None, M=M, rho=1.0, sigma=1.0, tau=1.0)


class TestReweighted:
    def test_accepts_only_the_same_shifts(self):
        # r and dec depend on v, M and tau, so only rho and sigma may change; bits decide, so -0.0 is not 0.0
        prob = ball_problem(4, m=2)
        x, p = mixed_point(prob, 116)
        p = dataclasses.replace(p, v=np.array([0.0, 1.5]))
        at = penalty.penalty_at(prob, x, p)
        for changes in (dict(v=np.array([-0.0, 1.5])), dict(v=None), dict(M=p.M + np.eye(prob.d)), dict(M=None),
                        dict(tau=3.0)):
            with pytest.raises(InvalidInputError, match="v, M and tau"):
                at.reweighted(dataclasses.replace(p, **changes))
        same = dataclasses.replace(p, v=p.v.copy(), M=p.M.copy(), rho=0.0, sigma=5.0)
        assert at.reweighted(same).p is same

    def test_carries_what_the_source_made(self, monkeypatch):
        # what does not depend on rho and sigma is the source's object: nothing is evaluated again; every cache
        # but value and grad is such, so a new one that reweighted forgets is made again and fails here
        carried = [name for name, attr in vars(penalty.PenaltyPoint).items()
                   if isinstance(attr, cached_property) and name not in ("value", "grad")]
        assert carried
        prob, counts = counting(ball_problem(4, m=2))
        x, p = mixed_point(prob, 117)
        q = dataclasses.replace(p, rho=0.2, sigma=7.0)
        at = penalty.penalty_at(prob, x, p)
        early = at.reweighted(q)  # taken before the source made its caches
        for name in carried:
            getattr(at, name)
        counts.update(dict.fromkeys(counts, 0))
        monkeypatch.setattr(matfun, "eig_sym", None)  # a reweighted point decomposes nothing
        new = at.reweighted(q)
        new.value, new.grad
        assert all(getattr(new, a) is getattr(at, a) for a in ("x", "r", "G", "dec", *carried))
        assert [counts[h] for h in ("f", "grad_f", "g", "jac_g", "G", "dG")] == [0] * 6
        # a cache the source had not made yet is made on the new point's own first read
        assert early.dG is not at.dG and np.array_equal(early.dG, at.dG) and counts["dG"] == prob.n

    def test_value_and_grad_made_again(self, monkeypatch):
        prob = ball_problem(4, m=2)
        x, p = mixed_point(prob, 118)
        at = penalty.penalty_at(prob, x, p)
        at.value, at.grad
        calls = []
        for name in ("penalty_value", "penalty_grad"):
            monkeypatch.setattr(penalty, name, lambda point, fn=getattr(penalty, name), name=name:
                                calls.append(name) or fn(point))
        same = at.reweighted(p)
        assert (same.value, same.grad.tobytes()) == (at.value, at.grad.tobytes()) and same.grad is not at.grad
        assert calls == ["penalty_value", "penalty_grad"]
        # under a new weight: the value, gradient and Hessian of a fresh point, bit for bit
        q = dataclasses.replace(p, rho=0.2, sigma=7.0)
        new, fresh = at.reweighted(q), penalty.penalty_at(prob, x, q)
        assert new.value == fresh.value != at.value
        assert new.grad.tobytes() == fresh.grad.tobytes() and not new.grad.flags.writeable
        assert penalty.penalty_hess(new).tobytes() == penalty.penalty_hess(fresh).tobytes()


class TestValue:
    def test_feasible_point_gives_objective(self):
        entry = problems.get_problem("nearest-psd")
        p = penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=3.0, tau=2.0)
        x = entry.problem.start_point
        assert penalty.penalty_value(penalty.penalty_at(entry.problem, x, p)) == pytest.approx(entry.problem.f(x))

    def test_scalar_quartic(self):
        prob = scalar_quartic_problem()
        p = penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=1.0, tau=1.0)
        assert penalty.penalty_value(penalty.penalty_at(prob, [-2.0], p)) == pytest.approx(4.0)

    def test_script_f_two_path(self):
        gen = rng(101)
        gamma = 7.5
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            for _ in range(5):
                x = prob.start_point + gen.normal(size=prob.n)
                lhs = penalty.penalty_value(penalty.penalty_at(prob, x, penalty.special_params("script_F", gamma)))
                direct = prob.f(x)
                if prob.m > 0:
                    direct += 0.5 * gamma * float(np.sum(np.asarray(prob.g(x)) ** 2))
                if prob.d > 0:
                    direct += 0.25 * gamma * matfun.quartic_trace_from(matfun.eig_sym(-np.asarray(prob.G(x))))
                assert lhs == pytest.approx(direct, rel=1e-12, abs=1e-12)

    @given(st.floats(1e-3, 1e3))
    def test_scaling_in_rho_sigma(self, c):
        prob = problems.get_problem("corr-matrix").problem
        x = np.array([0.2, -0.1, -1.3])
        base = penalty.PenaltyParams(v=np.array([0.3, -0.2]), M=np.eye(2), rho=0.5, sigma=2.0, tau=1.5)
        scaled = penalty.PenaltyParams(v=base.v, M=base.M, rho=c * base.rho, sigma=c * base.sigma, tau=base.tau)
        v0 = penalty.penalty_value(penalty.penalty_at(prob, x, base))
        v1 = penalty.penalty_value(penalty.penalty_at(prob, x, scaled))
        assert v1 == pytest.approx(c * v0, rel=1e-12)

    def test_infeasibility_measure_nonnegative_zero_iff_feasible(self):
        gen = rng(102)
        script_p = penalty.special_params("script_P")
        for name in problems.list_problems():
            entry = problems.get_problem(name)
            prob = entry.problem
            assert penalty.penalty_value(penalty.penalty_at(prob, prob.start_point, script_p)) <= 1e-24
            if entry.known_solution is not None:
                assert penalty.penalty_value(penalty.penalty_at(prob, entry.known_solution, script_p)) <= 1e-24
            for _ in range(10):
                x = prob.start_point + gen.normal(size=prob.n)
                at = penalty.penalty_at(prob, x, script_p)
                val = penalty.penalty_value(at)
                assert val >= 0.0
                if optimality.infeasibility_u(at) > 1e-6:
                    assert val > 0.0


class TestGradient:
    def test_scalar_quartic_gradient(self):
        prob = scalar_quartic_problem()
        p = penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=1.0, tau=1.0)
        out = penalty.penalty_grad(penalty.penalty_at(prob, [-2.0], p))
        assert out[0] == pytest.approx(-8.0)

    def test_strictly_feasible_reduces_to_objective_gradient(self):
        prob = problems.get_problem("nearest-psd").problem
        p = penalty.PenaltyParams(v=None, M=None, rho=2.5, sigma=1.0, tau=1.0)
        x = prob.start_point  # G(x) = I, strictly feasible
        assert np.allclose(penalty.penalty_grad(penalty.penalty_at(prob, x, p)), 2.5 * prob.grad_f(x))

    def test_finite_difference_oracle(self):
        gen = rng(103)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            for params in (penalty.special_params("script_F", 1.0), generic_params(prob)):
                for _ in range(5):
                    x = prob.start_point + gen.normal(size=prob.n)
                    ana = penalty.penalty_grad(penalty.penalty_at(prob, x, params))
                    fd = fd_grad(lambda z: penalty.penalty_value(penalty.penalty_at(prob, z, params)), x, prob.n)
                    rel = np.linalg.norm(ana - fd) / (1 + np.linalg.norm(ana))
                    assert rel <= 1e-6, (name, rel)

    def test_multiplier_decomposition_identity(self):
        # the penalty gradient equals the Lagrangian gradient at the
        # recovered multipliers
        gen = rng(104)
        gamma = 37.0
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            for _ in range(5):
                x = prob.start_point + gen.normal(size=prob.n)
                at = penalty.penalty_at(prob, x, penalty.special_params("script_F", gamma))
                mult = optimality.recover_multipliers(at)
                lhs = penalty.penalty_grad(at)
                rhs = optimality.lagrangian_grad(prob, x, mult.y, mult.Z)
                assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(lhs))


class TestHessian:
    def test_scalar_quartic_hessian(self):
        prob = scalar_quartic_problem()
        p = penalty.PenaltyParams(v=None, M=None, rho=1.0, sigma=1.0, tau=1.0)
        out = penalty.penalty_hess(penalty.penalty_at(prob, [-2.0], p))
        assert out[0, 0] == pytest.approx(12.0)

    def test_strictly_feasible_block_structure(self):
        # with v = 0 and g(x) = 0 at a strictly feasible x the spectral block
        # vanishes and only rho*hess_f + sigma*tau*J J^T remains
        prob = problems.get_problem("corr-matrix").problem
        x = prob.start_point
        p = penalty.PenaltyParams(v=None, M=None, rho=1.2, sigma=2.0, tau=3.0)
        H = penalty.penalty_hess(penalty.penalty_at(prob, x, p))
        J = prob.jac_g(x)
        expected = 1.2 * prob.hess_f(x) + 2.0 * 3.0 * (J @ J.T)
        assert np.allclose(H, expected, atol=1e-12)

    def test_finite_difference_oracle(self):
        gen = rng(105)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            for params in (penalty.special_params("script_F", 1.0), generic_params(prob)):
                for _ in range(5):
                    x = prob.start_point + gen.normal(size=prob.n)
                    ana = penalty.penalty_hess(penalty.penalty_at(prob, x, params))
                    fd = fd_jac(lambda z: penalty.penalty_grad(penalty.penalty_at(prob, z, params)), x, prob.n)
                    rel = np.linalg.norm(ana - 0.5 * (fd + fd.T)) / (1 + np.linalg.norm(ana))
                    assert rel <= 1e-4, (name, rel)

    def test_symmetry(self):
        gen = rng(106)
        prob = problems.get_problem("corr-matrix").problem
        for _ in range(10):
            x = prob.start_point + gen.normal(size=prob.n)
            H = penalty.penalty_hess(penalty.penalty_at(prob, x, generic_params(prob, seed=107)))
            assert np.array_equal(H, H.T)

    def test_works_with_synthesized_second_derivatives(self):
        base = problems.get_problem("nearest-psd").problem
        fd_prob = NsdpProblem(
            name="nearest-psd-fd", n=3, m=0, d=2,
            start_point=base.start_point,
            f=base.f, grad_f=base.grad_f,
            G=base.G, dG=base.dG,
        )
        x = np.array([0.2, -0.5, 0.9])
        p = penalty.special_params("script_F", 3.0)
        H_fd = penalty.penalty_hess(penalty.penalty_at(fd_prob, x, p))
        H_exact = penalty.penalty_hess(penalty.penalty_at(base, x, p))
        assert np.linalg.norm(H_fd - H_exact) <= 1e-6 * (1 + np.linalg.norm(H_exact))

    @pytest.mark.parametrize("d,m,fd", BALL_CASES)
    def test_matches_loop_assembly(self, d, m, fd):
        self.check_loop_assembly(ball_problem(d, m=m, synthesized=fd, seed=d + m))

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "synthesized"])
    def test_x_dependent_curvature_matches_loop_assembly(self, fd):
        # G = I - X^3: d2G moves with x, so a contraction or a difference taken at another point shows
        self.check_loop_assembly(cap_problem(3, seed=3, synthesized=fd))

    @pytest.mark.parametrize("fd", [False, True], ids=["analytic", "synthesized"])
    def test_x_dependent_curvature_matches_difference_of_gradient(self, fd):
        # at an infeasible point (X has the eigenvalue 2 > 1), where d2G(x) is far from its value at the start
        prob = cap_problem(3, seed=4, synthesized=fd)
        x, p = mixed_point(prob, 114)
        assert np.linalg.eigvalsh(prob.G(x))[0] < -1.0
        for params in (p, penalty.special_params("script_F", 3.0)):
            ana = penalty.penalty_hess(penalty.penalty_at(prob, x, params))
            fd_H = fd_jac(lambda z: penalty.penalty_grad(penalty.penalty_at(prob, z, params)), x, prob.n)
            assert np.linalg.norm(ana - 0.5 * (fd_H + fd_H.T)) <= 1e-6 * (1 + np.linalg.norm(ana))

    @staticmethod
    def check_loop_assembly(prob):
        for seed in (110, 111):
            x, p = mixed_point(prob, seed)
            gen = rng(seed)
            for point, params in ((x, p), (x, penalty.special_params("script_F", 3.0)),
                                  (gen.normal(size=prob.n), p)):
                if point is x:
                    M = params.M / params.tau if params.M is not None else 0.0
                    assert all(mask.any() for mask in eig_classes(matfun.eig_sym(M - prob.G(x))))
                ref = loop_penalty_hess(prob, point, params)
                H = penalty.penalty_hess(penalty.penalty_at(prob, point, params))
                assert np.linalg.norm(H - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_hook_counts(self):
        # n dG and n(n+1)/2 d2G calls per Hessian: the per-entry hook contract;
        # G was evaluated by penalty_at, not again here
        prob, counts = counting(ball_problem(4, m=2))
        x, p = mixed_point(prob, 112)
        at = penalty.penalty_at(prob, x, p)
        counts.update(dict.fromkeys(counts, 0))
        penalty.penalty_hess(at)
        n = prob.n
        assert (counts["G"], counts["g"], counts["dG"], counts["d2G"]) == (0, 0, n, n * (n + 1) // 2)

    def test_hook_counts_synthesized(self):
        # the synthesized second derivatives read this problem's first-derivative hooks: one grad_f, one jac_g
        # and one dG-stack difference (2n calls each, the last of n dG calls), besides J and the dG stack
        prob, counts = counting(ball_problem(3, m=2, synthesized=True))
        n = prob.n
        at = penalty.penalty_at(prob, rng(113).normal(size=n), penalty.special_params("script_F", 3.0))
        counts.update(dict.fromkeys(counts, 0))
        penalty.penalty_hess(at)
        assert counts == {"f": 0, "grad_f": 2 * n, "hess_f": 0, "g": 0, "jac_g": 1 + 2 * n, "hess_g": 0,
                          "G": 0, "dG": n + 2 * n * n, "d2G": 0}
