import dataclasses
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from nsdpen import cli, driver, matfun, model, optimality, penalty, problems, trustregion
from nsdpen.errors import InvalidInputError, StartNotFeasibleError
from nsdpen.model import NsdpProblem

from conftest import (ball_problem, cap_inner_iterations, cap_problem, cap_reference, counting,
                      eigvalsh_follows_each_failed_factorization, nearest_psd_d5, record_certificates, script_F_point)


class TestGammaRule:
    def test_insufficient_progress_multiplies(self):
        # u goes 0.5 -> 0.4 with eta = 0.5: 0.4 > 0.25, so gamma is scaled
        assert driver.next_gamma(1, 3.0, u_next=0.4, u_prev=0.5, eta=0.5, theta=10.0) == 30.0

    def test_sufficient_progress_holds(self):
        # u goes 0.5 -> 0.2: 0.2 <= 0.25 keeps gamma
        assert driver.next_gamma(1, 3.0, u_next=0.2, u_prev=0.5, eta=0.5, theta=10.0) == 3.0

    def test_first_iteration_always_holds(self):
        assert driver.next_gamma(0, 3.0, u_next=10.0, u_prev=0.0, eta=0.5, theta=10.0) == 3.0

    def test_zero_previous_requires_exact_zero(self):
        assert driver.next_gamma(2, 1.0, u_next=0.0, u_prev=0.0, eta=0.5, theta=10.0) == 1.0
        assert driver.next_gamma(2, 1.0, u_next=1e-9, u_prev=0.0, eta=0.5, theta=10.0) == 10.0

    def test_boundary_equality_holds(self):
        assert driver.next_gamma(3, 2.0, u_next=0.25, u_prev=0.5, eta=0.5, theta=10.0) == 2.0


class TestXhatRule:
    def test_accept_when_below_start_value(self):
        x_next, x0 = np.array([1.0]), np.array([9.0])
        out, branch = driver.next_xhat(x_next, script_F_next=3.0, f0=4.0, x0=x0)
        assert branch == driver.BRANCH_ACCEPT and out is x_next

    def test_reset_when_above_start_value(self):
        x_next, x0 = np.array([1.0]), np.array([9.0])
        out, branch = driver.next_xhat(x_next, script_F_next=4.0 + 1e-12, f0=4.0, x0=x0)
        assert branch == driver.BRANCH_RESET and out is x0

    def test_tie_accepts(self):
        out, branch = driver.next_xhat(np.array([1.0]), script_F_next=4.0, f0=4.0, x0=np.array([9.0]))
        assert branch == driver.BRANCH_ACCEPT


class TestEstimateBCount:
    def test_no_matrix_constraint_counts_zero(self):
        prob = problems.get_problem("equality-degenerate").problem  # d = 0: the point has no eigendecomposition
        assert driver.estimate_b_count(script_F_point(prob, prob.start_point), 1.0) == 0


class TestConfig:
    def test_defaults_valid(self):
        cfg = driver.PenaltyConfig()
        assert dataclasses.replace(cfg) == cfg

    def test_fixed_settings_are_constants(self):
        # the trust-region step rule, the start point's check, the gamma cap and the audit's step and thresholds
        # are fixed: module constants, not config fields, parameters or report fields; the config is the solve flags
        assert [f.name for f in dataclasses.fields(driver.PenaltyConfig)] == list(cli.CONFIG_FLAGS) == [
            "theta", "tol_feas", "tol_opt", "max_outer"]
        # so is the rest of the outer schedule: gamma's start and hold factor, delta's start and decay
        assert (driver.ETA, driver.GAMMA0, driver.DELTA0, driver.BETA) == (0.5, 1.0, 0.1, 0.5)
        assert [f.name for f in dataclasses.fields(model.DerivativeAuditReport)] == ["errors", "step", "passed",
                                                                                      "failures"]
        # a problem is its dimensions, start point and hooks: the hooks left out decide what is synthesized
        assert [f.name for f in dataclasses.fields(NsdpProblem)] == ["name", "n", "m", "d", "start_point",
                                                                     *model.HOOK_SHAPES]
        assert (trustregion.DELTA0_RADIUS, trustregion.ETA1, trustregion.ETA2, trustregion.SHRINK, trustregion.GROW,
                trustregion.MAX_ITER, trustregion.RADIUS_MIN, driver.FEAS_CHECK_TOL, driver.GAMMA_CAP,
                model.FD_STEP_AUDIT) == (1.0, 0.1, 0.75, 0.25, 2.0, 10000, 1e-14, 1e-8, 1e14, 1e-6)
        assert model.AUDIT_THRESHOLDS == {"grad_f": 1e-6, "jac_g": 1e-6, "dG": 1e-6,
                                          "hess_f": 1e-4, "hess_g": 1e-4, "d2G": 1e-4}

    def test_numpy_numbers_accepted(self):
        cfg = driver.PenaltyConfig(tol_feas=np.float64(0.25), theta=np.int64(4), max_outer=np.int64(7))
        assert (cfg.tol_feas, cfg.theta, cfg.max_outer) == (0.25, 4, 7)
        # from 1e6 the doubling radius needs about 20 steps to reach the minimizer of ||x||^2 / 2, so 9 caps it
        res = trustregion.tr_minimize(lambda x: 0.5 * float(x @ x), lambda x: x, lambda x: np.eye(1), np.array([1e6]),
                                      1e-6, max_iter=np.int32(9))
        assert (res.status, res.iterations) == (trustregion.MAX_ITER_REACHED, 9)

    @pytest.mark.parametrize("bad", [
        dict(theta=1.0), dict(max_outer=0), dict(theta=np.inf), dict(tol_feas=np.nan), dict(tol_opt=np.inf),
        dict(max_outer=40.5), dict(max_outer=True), dict(tol_opt=True), dict(max_outer="60"),
        dict(theta="10"), dict(tol_feas=None),  # a string and a None are rejected by require_real_fields
    ], ids=lambda bad: ",".join(f"{name}={value!r}" for name, value in bad.items()))
    def test_bad_fields_rejected(self, bad):
        cfg = driver.PenaltyConfig()
        with pytest.raises(InvalidInputError):
            driver.PenaltyConfig(**bad)
        with pytest.raises(InvalidInputError):
            dataclasses.replace(cfg, **bad)  # the CLI's path
        for name, value in bad.items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(cfg, name, value)


    @pytest.mark.parametrize("field", ["tol_feas", "tol_opt"])
    def test_negative_tolerance_rejected(self, field):
        with pytest.raises(InvalidInputError, match="^tolerances must be nonnegative$"):
            driver.PenaltyConfig(**{field: -1})

    @pytest.mark.parametrize("name", ["eta", "gamma0", "delta0", "beta"])
    def test_removed_schedule_fields_rejected(self, name):
        # the schedule's constants are no fields: a caller that still passes one gets an error, not a silent default
        value = getattr(driver, name.upper())
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
            driver.PenaltyConfig(**{name: value})
        with pytest.raises(TypeError, match=name):
            dataclasses.replace(driver.PenaltyConfig(), **{name: value})


class TestSolveScalarBound:
    def test_end_to_end_against_stationarity_oracle(self, corpus_runs):
        entry, report = corpus_runs["scalar-bound"]
        assert report.final_status == driver.FEAS_OPT_REACHED
        final = report.final
        # independent oracle: root of 2(1+x) = gamma*(-x)^3 at the final gamma
        t_star = brentq(lambda t: final.gamma * t**3 - 2.0 * (1.0 - t), 0.0, 1.0, xtol=1e-15)
        assert abs(final.x[0] - (-t_star)) <= 1e-8
        assert abs(final.x[0]) <= 1e-4
        assert abs(final.Z[0, 0] - 2.0) <= 1e-3
        assert final.complementarity <= 1e-4

    def test_stationarity_identity_every_iterate(self, corpus_runs):
        entry, report = corpus_runs["scalar-bound"]
        for rec in report.iterates:
            assert rec.stationarity <= rec.delta
            params = penalty.special_params("script_F", rec.gamma)
            regrad = penalty.penalty_grad(penalty.penalty_at(entry.problem, rec.x, params))
            assert np.linalg.norm(regrad) == pytest.approx(rec.stationarity, abs=1e-14)

    def test_second_order_certificate_every_iterate(self, corpus_runs):
        _, report = corpus_runs["scalar-bound"]
        for rec in report.iterates:
            assert rec.second_order <= rec.delta
            assert rec.subspace_dim == 0  # active compression kills the space

    def test_gamma_monotone_delta_decreasing(self, corpus_runs):
        for name, (_, report) in corpus_runs.items():
            gammas = [r.gamma for r in report.iterates]
            deltas = [r.delta for r in report.iterates]
            assert all(b >= a for a, b in zip(gammas, gammas[1:])), name
            assert all(b < a for a, b in zip(deltas, deltas[1:])), name


class TestSolveCorpus:
    def test_nearest_psd_reaches_projection(self, corpus_runs):
        entry, report = corpus_runs["nearest-psd"]
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert np.linalg.norm(report.final.x - entry.known_solution) <= 1e-3

    def test_equality_degenerate_multiplier_divergence(self, corpus_runs):
        _, report = corpus_runs["equality-degenerate"]
        assert report.final_status == driver.FEAS_OPT_REACHED
        ys = [abs(r.y[0]) for r in report.iterates]
        assert abs(report.final.x[0]) <= 1e-3
        assert ys[-1] > 100.0
        assert all(b >= a for a, b in zip(ys, ys[1:]))
        for rec in report.iterates:
            assert rec.stationarity <= rec.delta

    def test_corr_matrix_boundary_solution(self, corpus_runs):
        entry, report = corpus_runs["corr-matrix"]
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert np.linalg.norm(report.final.x - entry.known_solution) <= 1e-3
        assert np.allclose(report.final.y, entry.known_multipliers.y, atol=1e-3)
        assert np.allclose(report.final.Z, entry.known_multipliers.Z, atol=1e-3)

    @pytest.mark.parametrize("name", problems.list_problems())
    def test_schedule_follows_the_driver_constants(self, corpus_runs, name):
        # gamma starts at GAMMA0 and moves by next_gamma with ETA; delta starts at DELTA0 and decays by BETA
        entry, report = corpus_runs[name]
        gamma, u_prev = driver.GAMMA0, optimality.infeasibility_u(script_F_point(entry.problem,
                                                                                 entry.problem.start_point))
        for k, rec in enumerate(report.iterates):
            assert (rec.gamma, rec.delta) == (gamma, driver.DELTA0 * driver.BETA**k)
            gamma, u_prev = driver.next_gamma(k, gamma, rec.u, u_prev, driver.ETA, entry.config.theta), rec.u

    def test_descent_chain_every_run(self, corpus_runs):
        for name, (entry, report) in corpus_runs.items():
            f0 = entry.problem.f(entry.problem.start_point)
            for rec in report.iterates:
                slack = 1e-10 * (1 + abs(rec.script_F_at_start))
                assert rec.script_F_value <= rec.script_F_at_start + slack, name
                assert rec.script_F_at_start <= f0 + slack, name

    def test_xhat_branch_recorded_consistently(self, corpus_runs):
        for name, (entry, report) in corpus_runs.items():
            f0 = entry.problem.f(entry.problem.start_point)
            for rec in report.iterates:
                expected = driver.BRANCH_ACCEPT if rec.script_F_value <= f0 else driver.BRANCH_RESET
                assert rec.xhat_branch == expected, name

    def test_complementarity_trend(self, corpus_runs):
        # the complementarity residual may wobble by at most the inner
        # tolerance on steps where gamma is held
        for name, (entry, report) in corpus_runs.items():
            tail = report.iterates[-5:]
            for a, b in zip(tail, tail[1:]):
                assert b.complementarity <= a.complementarity + 10 * a.delta + 1e-12, name
            assert report.final.complementarity <= 1e-4, name

    def test_residual_records_revalidate(self, corpus_runs):
        for name, (entry, report) in corpus_runs.items():
            prob = entry.problem
            for rec in report.iterates[::5]:
                at = script_F_point(prob, rec.x, rec.gamma)
                mult = optimality.recover_multipliers(at)
                assert np.allclose(mult.y, rec.y, atol=1e-14)
                assert np.allclose(mult.Z, rec.Z, atol=1e-14)
                assert optimality.infeasibility_u(at) == pytest.approx(rec.u, abs=1e-14)
                _, comp = optimality.jordan_complementarity(at, rec.Z)
                assert comp == pytest.approx(rec.complementarity, abs=1e-14)

    def test_check_reproduces_solve(self, corpus_runs):
        # check and solve certify along one path, so every recorded number comes back exactly under the
        # b_count_at_solution that check reads
        for name, (entry, report) in corpus_runs.items():
            for rec in report.iterates:
                at = script_F_point(entry.problem, rec.x, rec.gamma)
                res, mult = optimality.evaluate_residuals(at, entry.b_count_at_solution)
                assert (res.stationarity, res.feasibility_u, res.complementarity, res.second_order,
                        res.subspace_dim) == (rec.stationarity, rec.u, rec.complementarity,
                                              rec.second_order, rec.subspace_dim), (name, rec.k)
                assert np.array_equal(mult.y, rec.y) and np.array_equal(mult.Z, rec.Z), (name, rec.k)


class TestSolveGuards:
    def test_infeasible_start_rejected(self):
        entry = problems.get_problem("scalar-bound")
        prob = entry.problem
        bad = NsdpProblem(
            name="bad-start", n=1, m=0, d=1,
            start_point=np.array([-1.0]),
            f=prob.f, grad_f=prob.grad_f, hess_f=prob.hess_f,
            G=prob.G, dG=prob.dG, d2G=prob.d2G,
        )
        with pytest.raises(StartNotFeasibleError):
            driver.solve(bad, driver.PenaltyConfig())

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_start_infeasibility_rejected(self, bad):
        # a NaN g at x0 passed the start check and the solve failed later inside tr_minimize with
        # "gradient or Hessian has non-finite entries"; an inf g was rejected here all along
        entry = problems.get_problem("equality-degenerate")
        base = entry.problem
        prob = dataclasses.replace(base, g=lambda x: np.full(base.m, bad) if np.array_equal(x, base.start_point)
                                   else base.g(x))
        with pytest.raises(StartNotFeasibleError, match=f"has infeasibility {bad:.3e} > "):
            driver.solve(prob, entry.config)

    @pytest.mark.parametrize("hess_f", [lambda x: 2.0, lambda x: np.ones(3)], ids=["scalar", "vector"])
    def test_wrong_shaped_hess_f_names_the_hook(self, hess_f):
        # the scalar was broadcast into every Hessian entry and the solve reached FeasOptReached;
        # the (n,) array escaped as numpy's bare "non-broadcastable output operand" ValueError
        prob = dataclasses.replace(problems.get_problem("nearest-psd").problem, hess_f=hess_f)
        with pytest.raises(InvalidInputError, match=r"^hess_f must have shape \(3, 3\), got"):
            driver.solve(prob, problems.get_problem("nearest-psd").config)

    def test_max_outer_status(self):
        entry = problems.get_problem("scalar-bound")
        cfg = driver.PenaltyConfig(max_outer=1)
        report = driver.solve(entry.problem, cfg)
        assert report.final_status == driver.MAX_OUTER
        assert len(report.iterates) == 1

    def test_gamma_cap_aborts(self, monkeypatch):
        entry = problems.get_problem("scalar-bound")
        monkeypatch.setattr(driver, "GAMMA_CAP", 1e6)
        cfg = driver.PenaltyConfig(tol_feas=1e-12, max_outer=60)
        report = driver.solve(entry.problem, cfg)
        assert report.final_status == driver.INNER_FAILURE
        assert "cap" in report.detail

    @pytest.mark.parametrize("left_out", [("hess_f",), ("hess_g",), ("d2G",), ("hess_f", "hess_g", "d2G")],
                             ids="+".join)
    def test_synthesized_second_derivatives_solve_as_analytic(self, left_out):
        # any second derivative left out builds, is not audited, and its central difference takes the analytic
        # twin's path to the same point
        cfg = driver.PenaltyConfig(tol_feas=1e-3, tol_opt=1e-6, max_outer=40)
        analytic = ball_problem(2, m=1, seed=0)
        fd = dataclasses.replace(analytic, **dict.fromkeys(left_out))
        assert set(model.audit_derivatives(fd, fd.start_point).errors) == set(model.AUDIT_THRESHOLDS) - set(left_out)
        analytic, fd = (driver.solve(prob, cfg) for prob in (analytic, fd))
        assert fd.final_status == driver.FEAS_OPT_REACHED
        for report in (analytic, fd):
            assert (len(report.iterates), sum(rec.inner_iterations for rec in report.iterates)) == (18, 21)
        assert np.max(np.abs(fd.final.x - analytic.final.x)) <= 1e-12

    def test_x_dependent_curvature_solves_to_the_clipped_reference(self):
        # G = I - X^3 (X <= I), whose d2G moves with x: the solve ends at the target with its eigenvalues clipped at 1
        cfg = driver.PenaltyConfig(tol_feas=1e-4, tol_opt=1e-6, max_outer=40)
        report = driver.solve(cap_problem(3, seed=7), cfg)
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert np.max(np.abs(report.final.x - cap_reference(3, 7))) <= 1e-4

    def test_estimated_b_count_matches_known(self, corpus_runs):
        # the driver estimates b_count from the final iterate; on every corpus problem, with analytic second
        # derivatives and with hess_f, hess_g and d2G synthesized, it is the b_count_at_solution that check reads
        for name, (entry, analytic) in corpus_runs.items():
            synthesized = driver.solve(dataclasses.replace(entry.problem, hess_f=None, hess_g=None, d2G=None),
                                       entry.config)
            for report in (analytic, synthesized):
                assert report.final_status == driver.FEAS_OPT_REACHED, name
                assert report.b_count == entry.b_count_at_solution, name

    def test_larger_projection_problem_with_rank_two_active_block(self):
        # 4x4 projection parametrized by its 10 lower-triangle entries: the
        # target has two negative eigenvalues, so the solution carries a
        # two-dimensional null space (three compression rows, subspace dim 7)
        d = 4
        gen = np.random.default_rng(77)
        Q, _ = np.linalg.qr(gen.normal(size=(d, d)))
        C = (Q * np.array([2.0, 1.0, -1.0, -2.0])) @ Q.T
        pairs = [(i, j) for i in range(d) for j in range(i + 1)]
        n = len(pairs)

        def x_to_mat(x):
            X = np.zeros((d, d))
            for k, (i, j) in enumerate(pairs):
                X[i, j] = X[j, i] = x[k]
            return X

        def basis(k):
            i, j = pairs[k]
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 1.0
            return E

        weights = np.array([1.0 if i == j else 2.0 for (i, j) in pairs])
        prob = NsdpProblem(
            name="proj4", n=n, m=0, d=d,
            start_point=np.array([3.0 if i == j else 0.0 for (i, j) in pairs]),
            f=lambda x: 0.5 * float(np.sum((x_to_mat(x) - C) ** 2)),
            grad_f=lambda x: weights * np.array([(x_to_mat(x) - C)[p] for p in pairs]),
            hess_f=lambda x: np.diag(weights),
            G=lambda x: x_to_mat(x),
            dG=lambda x, k: basis(k),
            d2G=lambda x, i, j: np.zeros((d, d)),
        )
        from nsdpen import matfun
        sol_mat = matfun.psd_part_from(matfun.eig_sym(C))
        sol = np.array([sol_mat[p] for p in pairs])

        cfg = driver.PenaltyConfig(tol_feas=2e-4, tol_opt=1e-6, max_outer=45)
        report = driver.solve(prob, cfg)
        assert report.final_status == driver.FEAS_OPT_REACHED and report.b_count == 2
        assert np.linalg.norm(report.final.x - sol) <= 1e-3
        assert all(r.subspace_dim == 7 for r in report.iterates)
        assert all(r.second_order <= r.delta for r in report.iterates[-5:])
        assert all(r.stationarity <= r.delta for r in report.iterates)

    def test_always_feasible_iterates_keep_gamma(self):
        # inactive matrix constraint: every iterate is feasible (u = 0), the
        # zero-progress comparison 0 <= eta*0 holds, and gamma never moves;
        # the run ends once delta undercuts the optimality tolerance
        prob = NsdpProblem(
            name="inactive-bound", n=1, m=0, d=1,
            start_point=np.array([0.0]),
            f=lambda x: float((x[0] - 1.0) ** 2),
            grad_f=lambda x: np.array([2.0 * (x[0] - 1.0)]),
            hess_f=lambda x: np.array([[2.0]]),
            G=lambda x: np.array([[x[0] + 5.0]]),
            dG=lambda x, i: np.array([[1.0]]),
            d2G=lambda x, i, j: np.zeros((1, 1)),
        )
        report = driver.solve(prob, driver.PenaltyConfig(tol_feas=1e-8, tol_opt=1e-6))
        assert report.final_status == driver.FEAS_OPT_REACHED and report.b_count == 0
        assert all(r.u == 0.0 for r in report.iterates)
        assert all(r.gamma == 1.0 for r in report.iterates)
        assert abs(report.final.x[0] - 1.0) <= 1e-6


def sqrt_problem(sqrt) -> NsdpProblem:
    """G(x) = sqrt(x + 1/2) - sqrt(1/2) >= 0 with f = (x + 2)^2 from x = 1; G is undefined below -1/2."""
    return NsdpProblem(
        name="sqrt-domain", n=1, m=0, d=1,
        start_point=np.array([1.0]),
        f=lambda x: (x[0] + 2.0) ** 2,
        grad_f=lambda x: np.array([2.0 * (x[0] + 2.0)]),
        hess_f=lambda x: np.array([[2.0]]),
        G=lambda x: np.array([[sqrt(x[0] + 0.5) - math.sqrt(0.5)]]),
        dG=lambda x, i: np.array([[0.5 / sqrt(x[0] + 0.5)]]),
        d2G=lambda x, i, j: np.array([[-0.25 / sqrt(x[0] + 0.5) ** 3]]),
    )


def python_pow_sqrt(t):
    """Python's ** of a negative float returns a complex number."""
    return float(t) ** 0.5


def wrong_shape_sqrt(t):
    """A pair of numbers where math.sqrt would raise, so that G and dG return 1 x 1 x 2 arrays."""
    return math.sqrt(t) if t >= 0 else np.zeros(2)


TRIAL_FAILURES = dict(argnames="sqrt", argvalues=[math.sqrt, np.sqrt, python_pow_sqrt, wrong_shape_sqrt],
                      ids=["raises", "non-finite", "complex", "wrong-shape"])


class TestHookFailureAtTrialPoint:
    # trial steps of the penalized problem overshoot into x < -1/2, where
    # math.sqrt raises, np.sqrt returns nan, ** 0.5 a complex number and
    # wrong_shape_sqrt a pair; all four are rejected steps
    @pytest.mark.parametrize(**TRIAL_FAILURES)
    def test_solve_reaches_tolerance(self, sqrt):
        with np.errstate(invalid="ignore", divide="ignore"):
            report = driver.solve(sqrt_problem(sqrt), driver.PenaltyConfig(tol_feas=1e-4))
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert -2e-4 <= report.final.x[0] < 0.0  # infeasible by about gamma^(-1/3)
        assert report.final.u <= 1e-4

    @pytest.mark.parametrize(**TRIAL_FAILURES)
    def test_default_tolerance_ends_in_named_status(self, sqrt):
        with np.errstate(invalid="ignore", divide="ignore"):
            report = driver.solve(sqrt_problem(sqrt))
        assert report.final_status == driver.INNER_FAILURE
        assert "exceeds cap" in report.detail


def saddle_start_problem(active: bool) -> NsdpProblem:
    """min (x1^2 - 1)^2 + x2^2 from the saddle x = 0, where the gradient is 0 and the Hessian indefinite.

    G = 2I is never active; G = diag(0.5 - x1, 0.5 + x1) is active at the limit x1 = +-0.5.
    """
    if active:
        G = lambda x: np.diag([0.5 - x[0], 0.5 + x[0]])
        dG = lambda x, i: np.diag([-1.0, 1.0]) if i == 0 else np.zeros((2, 2))
    else:
        G = lambda x: 2.0 * np.eye(2)
        dG = lambda x, i: np.zeros((2, 2))
    return NsdpProblem(
        name="saddle-start", n=2, m=0, d=2, start_point=np.zeros(2),
        f=lambda x: float((x[0] ** 2 - 1.0) ** 2 + x[1] ** 2),
        grad_f=lambda x: np.array([4.0 * x[0] * (x[0] ** 2 - 1.0), 2.0 * x[1]]),
        hess_f=lambda x: np.diag([12.0 * x[0] ** 2 - 4.0, 2.0]),
        G=G, dG=dG, d2G=lambda x, i, j: np.zeros((2, 2)),
    )


class TestSaddleStart:
    # at x = 0 only lambda_min of the penalty Hessian tells the inner solver to move
    @pytest.mark.parametrize("active", [False, True], ids=["inactive", "active"])
    def test_escapes_to_second_order_point(self, active, monkeypatch):
        steps = []  # (B indefinite, hard case) of every subproblem
        ms_subproblem = trustregion.ms_subproblem

        def classifying(B, g, radius):
            w, Q = np.linalg.eigh(B)
            # hard case: the gradient is orthogonal to the bottom eigenvector of an indefinite B
            steps.append((w[0] < 0, w[0] < 0 and abs(Q[:, 0] @ g) <= 1e-13 * max(1.0, np.linalg.norm(g))))
            return ms_subproblem(B, g, radius)

        monkeypatch.setattr(trustregion, "ms_subproblem", classifying)
        report = driver.solve(saddle_start_problem(active), driver.PenaltyConfig(tol_feas=1e-4))
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert all(rec.second_order <= rec.delta for rec in report.iterates)
        assert report.final.f_value < 1.0
        assert any(indefinite for indefinite, _ in steps) and any(hard for _, hard in steps)

    def test_one_factorization_per_point_within_gradient_bound(self, monkeypatch):
        # inside tr_minimize, lambda_min >= -delta is checked at the start and accepted points (where the
        # gradient hook runs) whose gradient norm is at most delta: one factorization attempt each, and an
        # eigensolve exactly where that attempt fails
        events = record_certificates(monkeypatch)
        within = []
        tr_minimize = trustregion.tr_minimize

        def recording_tr_minimize(fun, grad, hess, x0, delta, max_iter=None):
            def grad_spy(z):
                g = grad(z)
                within.append(np.linalg.norm(g) <= delta)
                return g
            return tr_minimize(fun, grad_spy, hess, x0, delta, max_iter)

        monkeypatch.setattr(trustregion, "tr_minimize", recording_tr_minimize)
        report = driver.solve(saddle_start_problem(True), driver.PenaltyConfig(tol_feas=1e-4))
        assert report.final_status == driver.FEAS_OPT_REACHED
        attempts = [event[1] for event in events if event[0] == "cholesky"]
        assert len(attempts) == sum(within) < len(within)
        assert 0 < attempts.count(False) < len(attempts)
        assert eigvalsh_follows_each_failed_factorization(events)


class TestFactorFirst:
    @pytest.mark.parametrize("case", ["ball", "saddle-inactive", "saddle-active"])
    def test_eigensolves_only_off_the_newton_path(self, case, monkeypatch):
        # ms_subproblem eigendecomposes B for exactly the trial steps that are not interior
        # Newton steps on a positive definite B; the saddle starts still reach the indefinite
        # and hard-case branches
        if case == "ball":
            prob, cfg = ball_problem(3), driver.PenaltyConfig(tol_feas=1e-4, max_outer=40)
        else:
            prob, cfg = saddle_start_problem(case == "saddle-active"), driver.PenaltyConfig(tol_feas=1e-4)
        steps = []  # (B indefinite, hard case, interior Newton step on a positive definite B)
        eighs, inside = [0], [False]
        eigh, ms_subproblem = np.linalg.eigh, trustregion.ms_subproblem

        def counting_eigh(B):
            eighs[0] += inside[0]
            return eigh(B)

        def classifying(B, g, radius):
            w, Q = eigh(B)
            gbar = Q.T @ g
            hard = w[0] < 0 and abs(gbar[0]) <= 1e-13 * max(1.0, np.linalg.norm(g))
            newton = w[0] > 0 and np.linalg.norm(gbar / w) <= radius
            steps.append((w[0] < 0, hard, newton))
            inside[0] = True
            try:
                return ms_subproblem(B, g, radius)
            finally:
                inside[0] = False

        monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
        monkeypatch.setattr(trustregion, "ms_subproblem", classifying)
        report = driver.solve(prob, cfg)
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert eighs[0] == sum(not newton for _, _, newton in steps)
        if case == "ball":
            assert eighs[0] < len(steps)
        else:
            assert any(indefinite for indefinite, _, _ in steps) and any(hard for _, hard, _ in steps)


class TestOneEvaluationPerPoint:
    @pytest.mark.parametrize("case", ["ball", "nearest-psd"])
    def test_no_point_evaluated_twice(self, case, monkeypatch):
        if case == "ball":
            prob, cfg = ball_problem(3), driver.PenaltyConfig(tol_feas=1e-4, max_outer=40)
        else:
            entry = problems.get_problem(case)
            prob, cfg = entry.problem, entry.config
        seen, built = {}, []
        eigs = [0]
        eig_sym = matfun.eig_sym

        def counting_eig_sym(X):
            eigs[0] += 1
            return eig_sym(X)

        def recording(owner, name, fn):
            # records (sigma, x) and the eig_sym calls made inside each call; a point built by penalty_at or
            # reweighted is also recorded in built, in order
            def evaluate(*args):
                before = eigs[0]
                out = fn(*args)
                at = out if name in ("penalty_at", "reweighted") else args[0]
                call = (at.p.sigma, at.x.tobytes(), eigs[0] - before)
                seen.setdefault(name, []).append(call)
                if at is out:
                    built.append(call[:2])
                return out
            monkeypatch.setattr(owner, name, evaluate)

        monkeypatch.setattr(matfun, "eig_sym", counting_eig_sym)
        for name in ("penalty_at", "penalty_value", "penalty_grad", "penalty_hess"):
            recording(penalty, name, getattr(penalty, name))
        recording(penalty.PenaltyPoint, "reweighted", penalty.PenaltyPoint.reweighted)
        report = driver.solve(prob, cfg)
        assert report.final_status == driver.FEAS_OPT_REACHED
        for name, calls in seen.items():
            points = [call[:2] for call in calls]
            assert len(points) == len(set(points)), name
            # one eigendecomposition per x, made where its first point is built
            assert all(call[2] == (name == "penalty_at") for call in calls), name
        # each x is evaluated once: a new gamma at a kept x reweights the point already there
        xs = [x for _, x, _ in seen["penalty_at"]]
        assert len(xs) == len(set(xs)) and seen["reweighted"]
        assert {x for _, x, _ in seen["reweighted"]} <= set(xs)
        # every value, gradient and Hessian reads a point built for it once
        assert built == [call[:2] for call in seen["penalty_value"]]
        for name in ("penalty_grad", "penalty_hess"):
            assert set(call[:2] for call in seen[name]) <= set(built)
        # every outer iteration evaluates at its start point at least once
        assert len(seen["penalty_value"]) >= len(report.iterates)

    @pytest.mark.parametrize("case", ["ball", "nearest-psd"])
    def test_G_and_eig_sym_only_in_penalty_at(self, case, monkeypatch):
        _, report, hooks, calls, _ = counted_solve(case, monkeypatch)
        assert hooks["G"] == calls["eig_sym"] == calls["penalty_at"] > len(report.iterates)

    @pytest.mark.parametrize("case", ["ball", "nearest-psd"])
    def test_one_dG_stack_per_differentiated_point(self, case, monkeypatch):
        # the gradients at every gamma, the Hessians and the certificates at one x share its stack
        prob, _, hooks, calls, grad_xs = counted_solve(case, monkeypatch)
        assert hooks["dG"] == prob.n * len(set(grad_xs)) > 0
        assert len(grad_xs) == calls["penalty_grad"] > len(set(grad_xs))


class TestOneContractionPerHessian:
    def test_d2G_calls_are_whole_hessians(self, monkeypatch):
        # every d2G call belongs to one n(n+1)/2-entry contraction of a penalty Hessian (one per gamma and x)
        # or of a certificate's Lagrangian Hessian; the benchmark's tracer counts Hessians by this identity
        prob, hooks = counting(ball_problem(3))
        calls = dict(penalty_hess=0, lagrangian_hess=0)

        def counted(module, name):
            fn = getattr(module, name)

            def call(*args):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, call)

        counted(penalty, "penalty_hess")
        counted(optimality, "lagrangian_hess")
        report = driver.solve(prob, driver.PenaltyConfig(tol_feas=1e-4, max_outer=40))
        assert report.final_status == driver.FEAS_OPT_REACHED
        assert calls["penalty_hess"] > 0 and calls["lagrangian_hess"] > 0
        assert hooks["d2G"] == prob.n * (prob.n + 1) // 2 * (calls["penalty_hess"] + calls["lagrangian_hess"])


class TestSharedD2GOutput:
    def test_one_shared_zero_solves_as_fresh_zeros(self, monkeypatch):
        # a d2G that returns one read-only zero for every entry (read once per contraction) and one that returns
        # a fresh zero per call (gathered per block) give the same records, bit for bit, from the same d2G calls
        base, cfg = nearest_psd_d5()
        zero = np.zeros((base.d, base.d))
        zero.flags.writeable = False
        calls = dict(penalty_hess=0, lagrangian_hess=0)
        for module, name in ((penalty, "penalty_hess"), (optimality, "lagrangian_hess")):
            def call(*args, fn=getattr(module, name), name=name):
                calls[name] += 1
                return fn(*args)
            monkeypatch.setattr(module, name, call)
        runs = []
        for d2G in (lambda x, i, j: zero, lambda x, i, j: np.zeros((base.d, base.d))):
            calls.update(penalty_hess=0, lagrangian_hess=0)
            prob, hooks = counting(dataclasses.replace(base, d2G=d2G))
            report = driver.solve(prob, cfg)
            assert report.final_status == driver.FEAS_OPT_REACHED
            assert hooks["d2G"] == prob.n * (prob.n + 1) // 2 * (calls["penalty_hess"] + calls["lagrangian_hess"])
            bits = [float_bits(*(getattr(rec, f.name) for f in dataclasses.fields(rec) if f.name != "xhat_branch"))
                    + rec.xhat_branch.encode() for rec in report.iterates]
            runs.append((bits, dict(hooks), dict(calls)))
        assert runs[0] == runs[1]


def float_bits(*values) -> bytes:
    return b"".join(np.asarray(v, dtype=float).tobytes() for v in values)


class TestSharedDGStack:
    @pytest.mark.parametrize("case", ["nearest-psd", "psd-d5", "ball"])
    def test_kept_points_share_stacks_of_the_same_bits(self, case, monkeypatch):
        # an affine G keeps one dG stack for every certified point; the ball's stack depends on x, so
        # consecutive kept points share one exactly when they are at the same x
        if case == "ball":
            prob, cfg = ball_problem(3), driver.PenaltyConfig(tol_feas=1e-4, max_outer=40)
        elif case == "psd-d5":
            prob, cfg = nearest_psd_d5()
        else:
            entry = problems.get_problem(case)
            prob, cfg = entry.problem, entry.config
        certified = []  # (x, dG stack) of each certified point
        evaluate_residuals = optimality.evaluate_residuals

        def recording(at, b_count):
            certified.append((at.x.tobytes(), at.dG))
            return evaluate_residuals(at, b_count)

        monkeypatch.setattr(optimality, "evaluate_residuals", recording)
        report = driver.solve(prob, cfg)
        monkeypatch.undo()
        assert report.final_status == driver.FEAS_OPT_REACHED
        # one certificate per distinct kept point: a record that keeps gamma and ends where it started repeats one
        recs = report.iterates
        repeats = [a.gamma == b.gamma and a.x.tobytes() == b.x.tobytes() for a, b in zip(recs, recs[1:])]
        assert all(b.inner_iterations == 0 for b, repeat in zip(recs[1:], repeats) if repeat) and any(repeats)
        assert len(certified) == len(recs) - sum(repeats) > 1
        shared = [a[1] is b[1] for a, b in zip(certified, certified[1:])]
        if case == "ball":
            assert shared == [a[0] == b[0] for a, b in zip(certified, certified[1:])] and not all(shared)
        else:
            assert all(shared)
        # each record is, bit for bit, the certificate of a fresh point at its x and gamma
        for rec in recs:
            at = script_F_point(prob, rec.x, rec.gamma)
            res, mult = optimality.evaluate_residuals(at, report.b_count)
            assert float_bits(rec.u, rec.stationarity, rec.complementarity, rec.second_order, rec.subspace_dim,
                              rec.f_value, rec.script_F_value, rec.y, rec.Z) == float_bits(
                res.feasibility_u, res.stationarity, res.complementarity, res.second_order, res.subspace_dim,
                at.f, at.value, mult.y, mult.Z)


class TestRepeatedPointRecords:
    def test_records_of_one_point_are_equal_copies(self, corpus_runs):
        # an outer iteration that keeps gamma and ends where it started repeats the certificate of the record
        # before it: the same bits, in arrays of its own
        repeated = 0
        for _, report in corpus_runs.values():
            recs = report.iterates
            for a, b in zip(recs, recs[1:]):
                if a.gamma == b.gamma and a.x.tobytes() == b.x.tobytes():
                    repeated += 1
                    assert b.inner_iterations == 0
                    assert float_bits(a.u, a.stationarity, a.complementarity, a.second_order, a.subspace_dim,
                                      a.f_value, a.script_F_value, a.y, a.Z) == float_bits(
                        b.u, b.stationarity, b.complementarity, b.second_order, b.subspace_dim,
                        b.f_value, b.script_F_value, b.y, b.Z)
                    assert not (np.shares_memory(a.y, b.y) or np.shares_memory(a.Z, b.Z))
        assert repeated > 0


class TestOneParamsPerGamma:
    @pytest.mark.parametrize("case", [*problems.list_problems(), "psd-d5"])
    def test_special_params_built_when_gamma_is_set(self, case, monkeypatch):
        # the script_F parameters are built at the start and when gamma changes, not at every point or
        # outer iteration; nearest-psd made 25 for 14 and corr-matrix 23 for 13 when every outer iteration built one
        if case == "psd-d5":
            prob, cfg = nearest_psd_d5()
        else:
            entry = problems.get_problem(case)
            prob, cfg = entry.problem, entry.config
        calls = [0]
        special_params = penalty.special_params

        def counting_params(*args):
            calls[0] += 1
            return special_params(*args)

        monkeypatch.setattr(penalty, "special_params", counting_params)
        report = driver.solve(prob, cfg)
        assert report.final_status == driver.FEAS_OPT_REACHED
        gammas = [rec.gamma for rec in report.iterates]
        assert calls[0] == 1 + sum(a != b for a, b in zip(gammas, gammas[1:]))


class TestOneReadPerHook:
    @pytest.mark.parametrize("case", [*problems.list_problems(), "ball-m2"])
    def test_each_hook_read_once_per_point(self, case, monkeypatch):
        # f, g and G once per x (the driver reads f off the points, and a new gamma at a kept x reads none),
        # grad_f and jac_g once per differentiated x; corr-matrix made 96 f and 167 jac_g calls for 72 points
        # before f and jac_g were kept on the point, and 72 grad_f calls for 60 differentiated x before grad_f was
        prob, _, hooks, calls, grad_xs = counted_solve(case, monkeypatch)
        per_point = [hooks[h] for h, used in (("f", True), ("g", prob.m > 0), ("G", prob.d > 0)) if used]
        assert per_point == [calls["penalty_at"]] * len(per_point)
        assert calls["penalty_grad"] == len(grad_xs) > hooks["grad_f"] == len(set(grad_xs))
        assert hooks["jac_g"] == (len(set(grad_xs)) if prob.m > 0 else 0)


def counted_solve(case, monkeypatch):
    """A solve whose hooks, ``penalty_at``, ``penalty_grad`` and ``eig_sym`` calls are counted; also returns
    the x (as bytes) of each ``penalty_grad`` call, in order.

    "ball-m2" has two quadratic equalities; its seed-0 instance ends in MaxIter at tol_feas 1e-4 and 1e-3, so it
    takes seed 1 at 1e-3.
    """
    if case == "ball":
        prob, cfg = ball_problem(3), driver.PenaltyConfig(tol_feas=1e-4, max_outer=40)
    elif case == "ball-m2":
        prob, cfg = ball_problem(3, m=2, seed=1), driver.PenaltyConfig(tol_feas=1e-3, max_outer=40)
    else:
        entry = problems.get_problem(case)
        prob, cfg = entry.problem, entry.config
    prob, hooks = counting(prob)
    calls = dict(penalty_at=0, penalty_grad=0, eig_sym=0)
    grad_xs = []

    def counted(name, fn):
        def call(*args):
            calls[name] += 1
            if name == "penalty_grad":
                grad_xs.append(args[0].x.tobytes())
            return fn(*args)
        return call

    monkeypatch.setattr(penalty, "penalty_at", counted("penalty_at", penalty.penalty_at))
    monkeypatch.setattr(penalty, "penalty_grad", counted("penalty_grad", penalty.penalty_grad))
    monkeypatch.setattr(matfun, "eig_sym", counted("eig_sym", matfun.eig_sym))
    report = driver.solve(prob, cfg)
    assert report.final_status == driver.FEAS_OPT_REACHED
    return prob, report, hooks, calls, grad_xs


def exit_path(case, monkeypatch):
    """(problem, config, expected status, detail fragment) of a solve that ends on ``case``; the gamma
    cap and the inner iteration cap, which no config sets, are patched for the cases that need them."""
    if case == "estimated-b-count":
        return ball_problem(3), driver.PenaltyConfig(tol_feas=1e-4, max_outer=40), driver.FEAS_OPT_REACHED, ""
    name, changes, status, detail = {
        "max-outer": ("nearest-psd", dict(max_outer=3), driver.MAX_OUTER, ""),
        "gamma-cap": ("scalar-bound", dict(tol_feas=1e-12), driver.INNER_FAILURE, "exceeds cap"),
        "inner-solver": ("corr-matrix", {}, driver.INNER_FAILURE, "inner solver returned MaxIter"),
        "inner-solver-at-start": ("scalar-bound", {}, driver.INNER_FAILURE, "returned MaxIter at outer iteration 0"),
    }[case]
    if case == "gamma-cap":
        monkeypatch.setattr(driver, "GAMMA_CAP", 1e6)
    elif case.startswith("inner-solver"):
        cap_inner_iterations(monkeypatch, 5 if case == "inner-solver" else 1)
    entry = problems.get_problem(name)
    return entry.problem, dataclasses.replace(entry.config, **changes), status, detail


class TestRecordsBuiltAfterLoop:
    @pytest.mark.parametrize("case", ["max-outer", "gamma-cap", "inner-solver", "inner-solver-at-start",
                                      "estimated-b-count"])
    def test_every_field_comes_from_the_record_point(self, case, monkeypatch):
        # each record is built after the loop from its kept point, on every way a solve can end
        prob, cfg, status, detail = exit_path(case, monkeypatch)
        report = driver.solve(prob, cfg)
        assert report.final_status == status and detail in report.detail
        assert (len(report.iterates) > 0) == (case != "inner-solver-at-start")
        last = report.final
        assert report.b_count == (driver.estimate_b_count(script_F_point(prob, last.x, last.gamma), last.u)
                                  if last else 0)
        x0 = np.asarray(prob.start_point, dtype=float)
        start, f0, gamma, delta = x0, prob.f(x0), driver.GAMMA0, driver.DELTA0
        u_prev = optimality.infeasibility_u(script_F_point(prob, x0))
        for k, rec in enumerate(report.iterates, start=1):
            at = script_F_point(prob, rec.x, rec.gamma)
            res, mult = optimality.evaluate_residuals(at, report.b_count)
            assert (rec.u, rec.stationarity, rec.complementarity, rec.second_order, rec.subspace_dim) == (
                res.feasibility_u, res.stationarity, res.complementarity, res.second_order, res.subspace_dim)
            assert np.array_equal(rec.y, mult.y) and np.array_equal(rec.Z, mult.Z)
            assert (rec.k, rec.gamma, rec.delta, rec.f_value, rec.script_F_value) == (
                k, gamma, delta, prob.f(rec.x), at.value)
            assert rec.script_F_at_start == script_F_point(prob, start, gamma).value
            assert rec.stationarity <= rec.delta and rec.inner_iterations >= 0
            assert rec.xhat_branch == (driver.BRANCH_ACCEPT if rec.script_F_value <= f0 else driver.BRANCH_RESET)
            start = rec.x if rec.xhat_branch == driver.BRANCH_ACCEPT else x0
            gamma, u_prev = driver.next_gamma(k - 1, gamma, rec.u, u_prev, driver.ETA, cfg.theta), rec.u
            delta *= driver.BETA
