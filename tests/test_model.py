import dataclasses
import warnings

import numpy as np
import pytest

from nsdpen import model, problems
from nsdpen.errors import InvalidInputError

from conftest import ball_problem, rng


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

    def test_missing_hooks_rejected(self):
        with pytest.raises(InvalidInputError):
            model.NsdpProblem(
                name="broken", n=1, m=1, d=0,
                start_point=np.zeros(1),
                f=lambda x: 0.0, grad_f=lambda x: np.zeros(1),
            )
