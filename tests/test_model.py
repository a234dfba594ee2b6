import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from nsdpen import driver, matfun, model, penalty, problems
from nsdpen.errors import InvalidInputError
from nsdpen.matfun import symmetrize

from conftest import ball_problem, counting, rng


def affine_matrix_problem():
    # G(x) = A0 + x0*A1 + x1*A2 with fixed symmetric coefficient matrices
    A0 = np.array([[1.0, 0.2], [0.2, 2.0]])
    A1 = np.array([[0.5, -1.0], [-1.0, 0.0]])
    A2 = np.array([[0.0, 0.3], [0.3, 1.5]])
    coeffs = [A1, A2]
    return model.NsdpProblem(
        name="affine-test",
        n=2, m=0, d=2,
        start_point=np.zeros(2),
        f=lambda x: float(x @ x),
        grad_f=lambda x: 2.0 * x,
        hess_f=lambda x: 2.0 * np.eye(2),
        G=lambda x: A0 + x[0] * A1 + x[1] * A2,
        dG=lambda x, i: coeffs[i].copy(),
        d2G=lambda x, i, j: np.zeros((2, 2)),
    )


def loop_audit_errors(prob, x, step):
    """Reference audit errors: one central difference per coordinate and two norms per hook output, entry by entry."""
    n = prob.n

    def fd(fn):
        rows = []
        for i in range(n):
            e = np.zeros(n)
            e[i] = step * (1.0 + abs(x[i]))
            rows.append((np.asarray(fn(x + e), dtype=float) - np.asarray(fn(x - e), dtype=float)) / (2 * e[i]))
        return np.stack(rows)

    def err(analytic, approx):
        analytic = np.asarray(analytic, dtype=float)
        return np.linalg.norm((analytic - approx).ravel()) / (1.0 + np.linalg.norm(analytic.ravel()))

    errors = {"grad_f": [err(prob.grad_f(x), fd(prob.f))], "hess_f": [err(prob.hess_f(x), symmetrize(fd(prob.grad_f)))]}
    if prob.m > 0:
        errors["jac_g"] = [err(prob.jac_g(x), fd(prob.g))]
        errors["hess_g"] = [err(prob.hess_g(x, j), symmetrize(fd(lambda z: prob.jac_g(z)[:, j])))
                            for j in range(prob.m)]
    errors["dG"] = [err(prob.dG(x, i), D) for i, D in enumerate(fd(prob.G))]
    errors["d2G"] = [err(prob.d2G(x, i, j), D) for i in range(n) for j, D in enumerate(fd(lambda z: prob.dG(z, i)))]
    return {label: float(np.max(errs)) for label, errs in errors.items()}


# which checks read each hook's output
AUDITED_BY = {"f": {"grad_f"}, "grad_f": {"grad_f", "hess_f"}, "hess_f": {"hess_f"}, "g": {"jac_g"},
              "jac_g": {"jac_g", "hess_g"}, "hess_g": {"hess_g"}, "G": {"dG"}, "dG": {"dG", "d2G"}, "d2G": {"d2G"}}


class TestDGAdjoint:
    def test_zero_multiplier(self):
        prob = affine_matrix_problem()
        Gs = model._dG_stack(prob, np.zeros(2))
        assert np.allclose(model.dG_adjoint(Gs, np.zeros((2, 2))), 0.0)

    def test_scalar_identity(self):
        prob = problems.get_problem("scalar-bound").problem
        out = model.dG_adjoint(model._dG_stack(prob, np.array([0.3])), np.array([[4.5]]))
        assert out == pytest.approx(np.array([4.5]))

    def test_adjoint_identity(self):
        gen = rng(22)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            if prob.d == 0:
                continue
            for _ in range(20):
                x = gen.normal(size=prob.n)
                h = gen.normal(size=prob.n)
                Z = gen.normal(size=(prob.d, prob.d))
                Z = 0.5 * (Z + Z.T)
                Gs = model._dG_stack(prob, x)
                lhs = float(np.sum(np.tensordot(h, Gs, 1) * Z))
                rhs = float(h @ model.dG_adjoint(Gs, Z))
                scale = 1 + np.linalg.norm(h) * np.linalg.norm(Z)
                assert abs(lhs - rhs) <= 1e-12 * scale

    def test_rejects_wrong_dG_shape(self):
        prob = affine_matrix_problem()
        bad = model.NsdpProblem(name="bad-dG", n=2, m=0, d=2, start_point=np.zeros(2),
                                f=prob.f, grad_f=prob.grad_f, G=prob.G, dG=lambda x, i: np.zeros((3, 3)))
        with pytest.raises(InvalidInputError):
            model.dG_adjoint(model._dG_stack(bad, np.zeros(2)), np.zeros((2, 2)))

    def test_rejects_wrong_Z_shape(self):
        Gs = model._dG_stack(affine_matrix_problem(), np.zeros(2))
        with pytest.raises(InvalidInputError, match="Z must have shape"):
            model.dG_adjoint(Gs, np.zeros((3, 3)))


class TestD2GContract:
    def test_entries_and_symmetry(self):
        gen = rng(24)
        prob = ball_problem(3)
        x = gen.normal(size=prob.n)
        W = gen.normal(size=(3, 3))
        out = model.d2G_contract(prob, x, W)
        assert np.array_equal(out, out.T)
        for i, j in ((0, 0), (1, 4), (5, 2)):
            k, l = min(i, j), max(i, j)
            assert out[i, j] == pytest.approx(float(np.sum(prob.d2G(x, k, l) * W)), rel=1e-12, abs=1e-14)

    def test_rejects_wrong_shape(self):
        prob = ball_problem(3)
        with pytest.raises(InvalidInputError):
            model.d2G_contract(prob, np.zeros(prob.n), np.eye(2))

    @pytest.mark.parametrize("d2G", [
        lambda x, i, j: np.zeros((3, 3)),  # wrong shape throughout
        lambda x, i, j: np.zeros((2, 2)) if j == i else np.zeros((2, 3)),  # ragged row
        lambda x, i, j: np.zeros(2),  # wrong rank
    ])
    def test_rejects_wrong_d2G_shape(self, d2G):
        prob = affine_matrix_problem()
        bad = model.NsdpProblem(name="bad-d2G", n=2, m=0, d=2, start_point=np.zeros(2),
                                f=prob.f, grad_f=prob.grad_f, G=prob.G, dG=prob.dG, d2G=d2G)
        with pytest.raises(InvalidInputError, match="d2G"):
            model.d2G_contract(bad, np.zeros(2), np.eye(2))


class TestHessFg:
    def test_weighted_sum_and_hook_calls(self):
        # one hook call per nonzero weight, each output symmetrized
        prob, counts = counting(ball_problem(3, m=2))
        x = rng(31).normal(size=prob.n)
        H = model.hess_fg(prob, x, 2.0, np.array([0.0, -1.5]))
        assert (counts["hess_f"], counts["hess_g"]) == (1, 1)
        assert np.array_equal(H, 2.0 * symmetrize(prob.hess_f(x)) + 1.5 * symmetrize(prob.hess_g(x, 1)))
        assert np.array_equal(H, H.T)
        counts.update(dict.fromkeys(counts, 0))
        assert not model.hess_fg(prob, x, 0.0, np.zeros(2)).any()
        assert not any(counts.values())

    @pytest.mark.parametrize("hook", ["hess_f", "hess_g"])
    def test_wrong_shape_names_the_hook(self, hook):
        prob = dataclasses.replace(ball_problem(3, m=2), **{hook: lambda *args: np.ones(6)})
        with pytest.raises(InvalidInputError, match=rf"^{hook} must return shape \(6, 6\)"):
            model.hess_fg(prob, np.zeros(6), 1.0, np.ones(2))


class TestNorms:
    def test_rows_scaled_apart(self):
        # each row has its own power of two: a huge row neither overflows nor flushes a small one
        v = np.array([[1e200, -1e200, 3e199], [3e-200, 4e-200, 0.0], [0.5, 0.25, 1.0], [0.0, 0.0, 0.0]])
        assert model._norms(v).tolist() == [matfun._norm(row) for row in v]
        assert model._norms(v)[1] == pytest.approx(5e-200, rel=1e-15)
        # without overflow the rounding is that of np.linalg.norm
        w = rng(32).normal(size=(50, 4, 4)) * 10.0 ** rng(33).integers(-5, 5, size=(50, 1, 1))
        assert model._norms(w).tolist() == [float(np.linalg.norm(entry)) for entry in w]


class TestAudit:
    def test_polynomial_hooks_near_exact(self):
        prob = affine_matrix_problem()
        report = model.audit_derivatives(prob, np.array([0.3, -0.2]))
        assert report.passed
        assert all(err <= 1e-8 for err in report.errors.values())

    def test_corpus_problems_pass_at_random_points(self):
        gen = rng(23)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            x = prob.start_point + 0.5 * gen.normal(size=prob.n)
            report = model.audit_derivatives(prob, x)
            assert report.passed, (name, report.errors)

    def test_corrupted_gradient_flagged(self):
        entry = problems.get_problem("nearest-psd")
        base = entry.problem
        bad = model.NsdpProblem(
            name="corrupted",
            n=base.n, m=0, d=base.d,
            start_point=base.start_point,
            f=base.f,
            grad_f=lambda x: base.grad_f(x) + np.array([0.1, 0.0, 0.0]),
            hess_f=base.hess_f,
            G=base.G, dG=base.dG, d2G=base.d2G,
        )
        report = model.audit_derivatives(bad, base.start_point)
        assert not report.passed
        assert "grad_f" in report.failures
        assert "dG" not in report.failures

    def test_non_finite_hook_reported_not_raised(self):
        prob = model.NsdpProblem(
            name="nan-f",
            n=1, m=0, d=0,
            start_point=np.zeros(1),
            f=lambda x: float("nan"),
            grad_f=lambda x: np.array([1.0]),
            hess_f=lambda x: np.zeros((1, 1)),
        )
        report = model.audit_derivatives(prob, np.zeros(1))
        assert not report.passed
        assert report.errors["grad_f"] == np.inf

    @pytest.mark.parametrize("hook", ["hess_g", "dG", "d2G"])
    def test_nan_in_one_entry_fails(self, hook):
        # one NaN among several per-entry results must not be masked by the others
        prob = ball_problem(3, m=2)
        clean = getattr(prob, hook)

        def poisoned(x, *idx):
            out = np.array(clean(x, *idx), dtype=float)
            if idx[0] == 1:
                out[0, 0] = np.nan
            return out

        setattr(prob, hook, poisoned)
        report = model.audit_derivatives(prob, rng(25).normal(size=prob.n))
        assert report.errors[hook] == np.inf
        assert not report.passed and hook in report.failures

    @pytest.mark.parametrize("hook", ["G", "dG"])
    def test_complex_hook_output_fails(self, hook):
        # complex output records inf instead of being audited on its real part
        base = problems.get_problem("scalar-bound").problem
        clean = getattr(base, hook)
        prob = dataclasses.replace(base, **{hook: lambda *args: clean(*args) + 0.5j})
        with warnings.catch_warnings():
            # so that the audit, not a ComplexWarning turned into an error, decides
            warnings.simplefilter("ignore", np.exceptions.ComplexWarning)
            report = model.audit_derivatives(prob, prob.start_point)
        assert not report.passed
        assert "dG" in report.failures and report.errors["dG"] == np.inf

    @given(st.integers(2, 4), st.integers(0, 2), st.booleans(), st.integers(0, 2**32 - 1),
           st.sampled_from([1e-7, 1e-6, 1e-5]))
    def test_matches_loop_reference(self, d, m, fd_second_order, seed, step):
        # the stacked differences and norms round as the per-entry loop does
        prob = ball_problem(d, m=m, fd_second_order=fd_second_order, seed=seed % 7)
        x = rng(seed).normal(size=prob.n)
        report = model.audit_derivatives(prob, x, step)
        assert report.errors == loop_audit_errors(prob, x, step)
        assert report.passed

    def test_hook_call_counts(self):
        prob, counts = counting(ball_problem(3, m=2))
        n, m = prob.n, prob.m
        model.audit_derivatives(prob, rng(26).normal(size=n))
        assert counts == {"f": 2 * n, "grad_f": 1 + 2 * n, "hess_f": 1, "g": 2 * n, "jac_g": 1 + 2 * n * m,
                          "hess_g": m, "G": 2 * n, "dG": n + 2 * n * n, "d2G": n * n}

    @pytest.mark.parametrize("wrong", ["scalar", "column"])
    @pytest.mark.parametrize("hook", list(AUDITED_BY))
    def test_wrong_shape_fails(self, hook, wrong):
        # a broadcastable output of another shape than the solver reads fails the checks that read it;
        # "scalar" is one number, or a 1-vector for f
        prob = ball_problem(3, m=2)
        clean = getattr(prob, hook)

        def bad(*args):
            out = np.asarray(clean(*args))
            if wrong == "column":
                return out.reshape(-1, 1)
            return out.reshape(1) if out.ndim == 0 else float(out.flat[0])

        setattr(prob, hook, bad)
        report = model.audit_derivatives(prob, rng(27).normal(size=prob.n))
        assert set(report.failures) == AUDITED_BY[hook]
        assert all(report.errors[label] == np.inf for label in AUDITED_BY[hook])

    @pytest.mark.parametrize("d2G", [lambda x, i, j: 0.0, lambda x, i, j: np.zeros(2)], ids=["scalar", "vector"])
    def test_audit_and_solve_agree_on_d2G_shape(self, d2G):
        # both outputs broadcast against the 2 x 2 difference, and passed the audit with error 0
        prob = dataclasses.replace(problems.get_problem("nearest-psd").problem, d2G=d2G)
        report = model.audit_derivatives(prob, prob.start_point)
        assert report.failures == ["d2G"] and report.errors["d2G"] == np.inf
        with pytest.raises(InvalidInputError, match="^d2G must return shape"):
            driver.solve(prob, problems.get_problem("nearest-psd").config)

    def test_hook_writing_its_argument_fails(self):
        # every difference reads the same shifted points, so a hook may not write into them
        base = problems.get_problem("scalar-bound").problem

        def f(x):
            x += 0.0
            return base.f(x)

        report = model.audit_derivatives(dataclasses.replace(base, f=f), base.start_point)
        assert report.failures == ["grad_f"] and report.errors["grad_f"] == np.inf

    def test_bad_step_rejected(self):
        prob = affine_matrix_problem()
        with pytest.raises(InvalidInputError):
            model.audit_derivatives(prob, np.zeros(2), step=0.0)


class TestSynthesizedSecondDerivatives:
    def test_fd_second_order_matches_analytic(self):
        analytic = affine_matrix_problem()
        fd = model.NsdpProblem(
            name="affine-fd",
            n=2, m=0, d=2,
            start_point=np.zeros(2),
            f=analytic.f, grad_f=analytic.grad_f,
            G=analytic.G, dG=analytic.dG,
            fd_second_order=True,
        )
        x = np.array([0.4, -1.1])
        assert np.allclose(fd.hess_f(x), analytic.hess_f(x), atol=1e-8)
        assert np.allclose(fd.d2G(x, 0, 1), 0.0, atol=1e-8)
        assert model.audit_derivatives(fd, x).passed

    def test_fd_equality_hooks(self):
        base = problems.get_problem("equality-degenerate").problem
        fd = model.NsdpProblem(
            name="eq-fd",
            n=1, m=1, d=0,
            start_point=np.zeros(1),
            f=base.f, grad_f=base.grad_f,
            g=base.g, jac_g=base.jac_g,
            fd_second_order=True,
        )
        x = np.array([0.7])
        assert fd.hess_g(x, 0)[0, 0] == pytest.approx(2.0, abs=1e-8)

    def test_one_jac_g_difference_per_point(self):
        # one penalty_hess reads jac_g once for J and differences it once (2n calls) for all m
        # synthesized hess_g, not once per j
        prob = ball_problem(3, m=2, fd_second_order=True)
        n, m = prob.n, prob.m
        calls, jac_g = [0], prob.jac_g

        def counted(x):
            calls[0] += 1
            return jac_g(x)

        prob.jac_g = counted
        params = penalty.special_params("script_F", 3.0)
        for x in rng(29).normal(size=(2, n)):
            calls[0] = 0
            penalty.penalty_hess(penalty.penalty_at(prob, x, params))
            assert calls[0] == 1 + 2 * n
            # the kept difference gives each column bit for bit as its own difference would
            diff = model._stacked_diff("jac_g", jac_g, model._shifts(x, model.FD_STEP_SECOND_ORDER), (n, m))
            for j in range(m):
                assert np.array_equal(prob.hess_g(x, j), symmetrize(diff[:, :, j]))
            assert calls[0] == 1 + 2 * n

    def test_missing_hooks_rejected(self):
        with pytest.raises(InvalidInputError):
            model.NsdpProblem(
                name="broken", n=1, m=1, d=0,
                start_point=np.zeros(1),
                f=lambda x: 0.0, grad_f=lambda x: np.zeros(1),
            )
