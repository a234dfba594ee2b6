import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdpen import trustregion as tr
from nsdpen.errors import InvalidInputError

from conftest import rng, spectrum_matrix


def kkt_residuals(B, g, radius, p):
    """Residuals of the subproblem optimality system, recovered from p."""
    B = np.asarray(B, dtype=float)
    g = np.asarray(g, dtype=float)
    nrm = np.linalg.norm(p)
    if nrm > 0:
        lam = float(-(B @ p + g) @ p / (p @ p))
    else:
        lam = 0.0
    lam = max(lam, 0.0)
    stat = np.linalg.norm((B + lam * np.eye(len(g))) @ p + g)
    comp = abs(lam * (radius - nrm))
    overrun = max(0.0, nrm - radius)
    wmin = np.linalg.eigvalsh(B)[0]
    shifted = max(0.0, -(wmin + lam))
    return stat, comp, overrun, shifted, lam


def subproblem_objective(B, g, p):
    return float(g @ p + 0.5 * p @ np.asarray(B) @ p)


def random_subproblem(gen, n, force_hard=False):
    A = gen.normal(size=(n, n))
    B = 0.5 * (A + A.T)
    g = gen.normal(size=n)
    if force_hard:
        w, Q = np.linalg.eigh(B)
        gbar = Q.T @ g
        gbar[0] = 0.0
        g = Q @ gbar
        if w[0] > 0:
            B = B - (w[0] + 1.0) * np.eye(n)  # make it indefinite
    radius = float(gen.uniform(0.1, 3.0))
    return B, g, radius


class TestMsSubproblem:
    def test_interior_newton_step(self):
        B = np.diag([2.0, 5.0])
        g = np.array([0.2, -0.5])
        p = tr.ms_subproblem(B, g, radius=10.0)
        assert np.allclose(p, -np.linalg.solve(B, g), atol=1e-12)

    def test_pure_negative_curvature(self):
        B = np.diag([1.0, -1.0])
        p = tr.ms_subproblem(B, np.zeros(2), radius=0.7)
        assert abs(p[0]) <= 1e-12
        assert abs(abs(p[1]) - 0.7) <= 1e-10

    def test_boundary_solution(self):
        B = np.diag([1.0, 2.0])
        g = np.array([-4.0, 0.0])
        p = tr.ms_subproblem(B, g, radius=1.0)
        assert np.linalg.norm(p) == pytest.approx(1.0, rel=1e-8)
        stat, comp, overrun, shifted, _ = kkt_residuals(B, g, 1.0, p)
        assert max(stat, comp, overrun, shifted) <= 1e-8

    def test_random_kkt(self):
        gen = rng(41)
        for trial in range(100):
            n = int(gen.integers(1, 7))
            B, g, radius = random_subproblem(gen, n, force_hard=(trial % 5 == 0))
            p = tr.ms_subproblem(B, g, radius)
            scale = 1 + np.linalg.norm(B) * radius + np.linalg.norm(g)
            stat, comp, overrun, shifted, _ = kkt_residuals(B, g, radius, p)
            assert stat <= 1e-8 * scale
            assert comp <= 1e-8 * scale
            assert overrun <= 1e-8 * radius
            assert shifted <= 1e-8 * scale

    def test_near_hard_case_large_radius(self):
        # indefinite B with a large spectrum, small gradient, huge radius:
        # the boundary multiplier sits a hair above the pole, where naive
        # w + lam denominators lose eight digits to cancellation
        gen = rng(44)
        for _ in range(50):
            n = int(gen.integers(2, 8))
            A = gen.normal(size=(n, n)) * 1e3
            B = 0.5 * (A + A.T)
            g = gen.normal(size=n) * 0.1
            radius = float(gen.uniform(1e3, 1e4))
            p = tr.ms_subproblem(B, g, radius)
            scale = 1 + np.linalg.norm(B) * radius + np.linalg.norm(g)
            stat, comp, overrun, shifted, _ = kkt_residuals(B, g, radius, p)
            assert stat <= 1e-8 * scale
            assert comp <= 1e-8 * scale
            assert overrun <= 1e-8 * radius
            assert shifted <= 1e-8 * scale

    def test_matches_boundary_grid_n2(self):
        gen = rng(42)
        angles = np.linspace(0.0, 2 * np.pi, 400000, endpoint=False)
        circle = np.column_stack([np.cos(angles), np.sin(angles)])
        for _ in range(5):
            B, g, radius = random_subproblem(gen, 2)
            p = tr.ms_subproblem(B, g, radius)
            vals = (circle * radius) @ g + 0.5 * np.einsum("ij,jk,ik->i", circle * radius, B, circle * radius)
            best = float(vals.min())
            w = np.linalg.eigvalsh(B)
            if w[0] > 0:
                pn = -np.linalg.solve(B, g)
                if np.linalg.norm(pn) <= radius:
                    best = min(best, subproblem_objective(B, g, pn))
            assert subproblem_objective(B, g, p) <= best + 1e-6 * (1 + abs(best))
            # the dense 2-d grid also certifies two-sided agreement
            assert abs(subproblem_objective(B, g, p) - best) <= 1e-6 * (1 + abs(best))

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            tr.ms_subproblem(np.array([[np.inf]]), np.array([1.0]), 1.0)

    def test_bad_radius(self):
        with pytest.raises(InvalidInputError):
            tr.ms_subproblem(np.eye(2), np.ones(2), 0.0)

    def test_hard_case_huge_radius(self):
        # the step along the bottom eigenvector has length sqrt(radius^2 - ||p_free||^2),
        # whose squares overflow for this radius; p_free solves (B + I) p = -g
        p = tr.ms_subproblem(np.diag([-1.0, 2.0]), np.array([0.0, 1.0]), 1e200)
        assert p[1] == pytest.approx(-1.0 / 3.0) and abs(p[0]) == pytest.approx(1e200, rel=1e-14)


# (|g|, spectrum, pole, radius): the secular equation 1/radius - 1/||g/(w + eta)||
# of a boundary step, with w[0] = 0 exactly when ``pole`` (an indefinite B)
secular_equations = st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.lists(st.floats(1e-6, 1e3), min_size=n, max_size=n),
    st.lists(st.floats(0.0, 1e4), min_size=n, max_size=n),
    st.booleans(),
    st.floats(1e-6, 1e3),
))


class TestBoundaryOffset:
    @given(secular_equations)
    @settings(max_examples=200)
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_root_lies_on_boundary(self, equation):
        g, w, pole, radius = equation
        g, w = np.array(g), np.sort(w)
        wshift = w - w[0] if pole else w
        if wshift[0] > 0:
            # a positive definite B reaches the boundary only when its Newton step is too long
            with np.errstate(divide="ignore", over="ignore"):
                radius = min(radius, 0.5 * float(np.linalg.norm(g / wshift)))
        eta = tr._boundary_offset(g, wshift, radius, max(1.0, float(w[-1])))
        assert eta > 0
        assert abs(np.linalg.norm(g / (wshift + eta)) - radius) <= 1e-14 * radius

    @pytest.mark.parametrize("g0", [1e100, 1e140, 1e160, 1e200, 1e290, 1e295, 1.7e308])
    @pytest.mark.parametrize("w0", [-1.0, 1.0, 0.0])  # B indefinite, positive definite, singular
    def test_huge_gradient_step_on_boundary(self, g0, w0):
        # ||p|| is about g0 * 1e16 at the start of the Newton iteration, so its
        # square overflows from g0 = 1e140 on, and ||g||^2 from 1e160 on; every
        # norm is taken after an exact rescaling, so none of them may warn, and
        # the Newton start keeps g / (w + eta) finite up to the largest float
        p = tr.ms_subproblem(np.diag([w0, 2.0]), np.array([g0, 1.0]), 1.0)
        assert abs(np.linalg.norm(p) - 1.0) <= 1e-14
        assert abs(p[0] + 1.0) <= 1e-14

    @pytest.mark.parametrize("w0", [-1.0, 0.0])  # B indefinite, singular
    @pytest.mark.parametrize("g0,radius", [(1e295, 1e305), (1e295, 1e308), (1e295, 1.7e308), (1e300, 1.79e308),
                                           (1e100, 1e200), (1e-10, 1e200)])
    def test_huge_radius_step_on_boundary(self, g0, radius, w0):
        # unscaled, the Newton step's radius * sum(coeff**2 / denom) overflows to inf, so at
        # radius 1e305 the iteration stopped 7% outside the boundary, and at 1e308 the offset's
        # shrink loop overflowed g / (w + eta); any overflow warning fails this test
        p = tr.ms_subproblem(np.diag([w0, 2.0]), np.array([g0, 1.0]), radius)
        assert abs(tr._norm(p) / radius - 1.0) <= 1e-14
        assert p[0] < 0 and p[1] == pytest.approx(-1.0 / (2.0 - w0), rel=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("w0,g,radius", [(1e-300, [1e295, 1.0], 1e305), (1e-320, [1.0, 1.0], 1.0),
                                             (1e-320, [1.0, 0.0], 1.0)])
    def test_overflowing_interior_step_left_to_boundary(self, w0, g, radius):
        # B is positive definite, but -g / w overflows in its tiny eigenvalue: that Newton step
        # cannot fit, and deciding so must not warn (this test turns every warning into an error)
        p = tr.ms_subproblem(np.diag([w0, 2.0]), np.array(g), radius)
        assert abs(tr._norm(p) / radius - 1.0) <= 1e-14
        lam = -g[0] / p[0] - w0  # the shift both components of (B + lam I) p = -g share
        assert lam > 0 and p[1] == pytest.approx(-g[1] / (2.0 + lam), rel=1e-12)

    @pytest.mark.parametrize("g0", [1e-300, 1e-310, 1e-320])
    @pytest.mark.parametrize("w0", [-1.0, 1.0, 0.0])  # B indefinite, positive definite, singular
    def test_tiny_gradient_step(self, g0, w0):
        # a subnormal gradient must not overflow the power-of-two rescaling of the norms
        p = tr.ms_subproblem(np.diag([w0, 2.0]), np.array([g0, g0]), 1.0)
        assert np.all(np.isfinite(p))
        if w0 < 0:  # hard case: the step runs along the negative curvature to the boundary
            assert abs(np.linalg.norm(p) - 1.0) <= 1e-14
        else:  # interior step -g / (w + 0)
            assert np.array_equal(p, [0.0 if w0 == 0 else -g0 / w0, -g0 / 2.0])


def eigen_path_step(B, g, radius):
    """ms_subproblem's step with the Cholesky factorization failing, so that it takes the eigen path."""
    with mock.patch.object(np.linalg, "cholesky", side_effect=np.linalg.LinAlgError):
        return tr.ms_subproblem(B, g, radius)


# (seed of the eigenbasis and the gradient, spectrum) of a positive definite B of condition at most 100
positive_definite = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.integers(0, 2**32 - 1),
    st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n),
))


class TestFactorFirst:
    @given(positive_definite, st.floats(1.0, 1e3))
    @settings(max_examples=200)
    def test_newton_step_from_cholesky(self, case, slack):
        seed, w = case
        gen = rng(seed)
        B, g = spectrum_matrix(gen, w), gen.normal(size=len(w))
        radius = slack * np.linalg.norm(np.linalg.solve(B, g))  # the Newton step fits
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            p = tr.ms_subproblem(B, g, radius)
        assert eigh.call_count == 0
        expected = eigen_path_step(B, g, radius)
        assert np.linalg.norm(p - expected) <= 1e-12 * np.linalg.norm(expected)
        assert np.linalg.norm(B @ p + g) <= 1e-10 * (np.linalg.norm(B) * np.linalg.norm(p) + np.linalg.norm(g))

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("B,g,radius", [
        (np.diag([-1.0, 2.0]), [1.0, 1.0], 1.0),  # indefinite
        (np.diag([0.0, 2.0]), [1.0, 1.0], 1.0),  # singular
        (np.diag([1.0, 2.0]), [10.0, 10.0], 1.0),  # the Newton step does not fit
        (np.diag([1e-300, 2.0]), [1e295, 1.0], 1e305),  # the Newton step overflows
    ], ids=["indefinite", "singular", "too-long", "overflow"])
    def test_falls_through_to_eigen_path(self, B, g, radius):
        # every warning is an error here, so the factorization, the solve and the fit test warn on none
        with mock.patch.object(np.linalg, "eigh", wraps=np.linalg.eigh) as eigh:
            p = tr.ms_subproblem(B, np.array(g), radius)
        assert eigh.call_count == 1
        assert np.array_equal(p, eigen_path_step(B, np.array(g), radius))
        assert abs(tr._norm(p) / radius - 1.0) <= 1e-14


def test_import_loads_no_scipy():
    # a fresh interpreter: this test session has imported scipy itself
    code = ("import sys, nsdpen, nsdpen.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def quad_hooks(A, b):
    return (
        lambda x: 0.5 * float(x @ A @ x) + float(b @ x),
        lambda x: A @ x + b,
        lambda x: A.copy(),
    )


def saddle_hooks():
    fun = lambda x: x[0] ** 2 - x[1] ** 2 + x[1] ** 4 / 4.0
    grad = lambda x: np.array([2.0 * x[0], -2.0 * x[1] + x[1] ** 3])
    hess = lambda x: np.array([[2.0, 0.0], [0.0, -2.0 + 3.0 * x[1] ** 2]])
    return fun, grad, hess


class TestTrMinimize:
    def test_convex_quadratic_reaches_minimizer(self):
        gen = rng(43)
        A = gen.normal(size=(4, 4))
        A = A @ A.T + 0.5 * np.eye(4)
        b = gen.normal(size=4)
        fun, grad, hess = quad_hooks(A, b)
        res = tr.tr_minimize(fun, grad, hess, np.zeros(4), delta=1e-8)
        assert res.status == tr.CONVERGED
        assert np.linalg.norm(res.x - (-np.linalg.solve(A, b))) <= 1e-6
        assert res.grad_norm <= 1e-8

    def test_escapes_strict_saddle(self):
        fun, grad, hess = saddle_hooks()
        res = tr.tr_minimize(fun, grad, hess, np.zeros(2), delta=1e-6)
        assert res.status == tr.CONVERGED
        target = np.array([0.0, np.sqrt(2.0)])
        dist = min(np.linalg.norm(res.x - target), np.linalg.norm(res.x + target))
        assert dist <= 1e-4
        assert np.linalg.eigvalsh(hess(res.x))[0] >= -1e-6

    def test_immediate_return_at_certified_point(self):
        fun, grad, hess = saddle_hooks()
        x0 = np.array([0.0, np.sqrt(2.0)])
        res = tr.tr_minimize(fun, grad, hess, x0, delta=1e-2)
        assert res.status == tr.CONVERGED
        assert res.iterations == 0
        assert np.array_equal(res.x, x0)

    def test_certificates_revalidate(self):
        fun, grad, hess = saddle_hooks()
        delta = 1e-6
        res = tr.tr_minimize(fun, grad, hess, np.array([0.3, -0.1]), delta=delta)
        assert res.status == tr.CONVERGED
        g = grad(res.x)
        lam = np.linalg.eigvalsh(hess(res.x))[0]
        slack = 1e-12 * (1 + np.linalg.norm(g))
        assert np.linalg.norm(g) <= delta + slack
        assert lam >= -delta - slack
        assert res.grad_norm == pytest.approx(np.linalg.norm(g))

    def test_eigensolve_only_where_gradient_bound_holds(self, monkeypatch):
        # from the saddle the gradient is 0, so only lambda_min keeps the loop going;
        # the gradient hook runs at the start and accepted points only
        fun, grad, hess = saddle_hooks()
        delta = 1e-6
        gnorms, eigs = [], [0]
        eigvalsh = np.linalg.eigvalsh

        def grad_spy(x):
            g = grad(x)
            gnorms.append(np.linalg.norm(g))
            return g

        def counting(H):
            eigs[0] += 1
            return eigvalsh(H)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        res = tr.tr_minimize(fun, grad_spy, hess, np.zeros(2), delta=delta)
        assert res.status == tr.CONVERGED
        assert eigs[0] == sum(g <= delta for g in gnorms) < len(gnorms)

    def test_monotone_descent_of_accepted_values(self):
        # the gradient hook is evaluated exactly at the accepted iterates, so
        # spying on it recovers the accepted sequence
        fun, grad, hess = saddle_hooks()
        accepted = []

        def grad_spy(x):
            accepted.append(x.copy())
            return grad(x)

        res = tr.tr_minimize(fun, grad_spy, hess, np.array([1.0, 0.1]), delta=1e-8)
        assert res.status == tr.CONVERGED
        values = [fun(x) for x in accepted]
        eps = np.finfo(float).eps
        for a, b in zip(values, values[1:]):
            assert b <= a + 8 * eps * (1 + abs(a))
        assert res.value <= values[0]

    def test_radius_collapse_on_deceptive_objective(self):
        # hooks promise descent but the function refuses it away from x0:
        # the radius shrinks to its floor and the solver reports collapse
        fun = lambda x: 0.0 if abs(x[0]) < 1e-300 else float("inf")
        grad = lambda x: np.array([1.0])
        hess = lambda x: np.array([[1.0]])
        res = tr.tr_minimize(fun, grad, hess, np.zeros(1), delta=1e-8)
        assert res.status == tr.RADIUS_COLLAPSE
        assert res.x[0] == 0.0

    @pytest.mark.parametrize("failure", ["value-raises", "gradient-raises", "hessian-non-finite"])
    def test_failing_trial_point_rejected(self, failure):
        # f = (x - 3)^2 / 2 is undefined beyond x = 1.5, so the first full
        # step from 0 fails and the radius must shrink until steps stay inside
        def fun(x):
            if failure == "value-raises" and x[0] > 1.5:
                raise ValueError("outside the domain")
            return 0.5 * float((x[0] - 3.0) ** 2) if x[0] <= 1.5 else 0.0

        def grad(x):
            if failure == "gradient-raises" and x[0] > 1.5:
                raise ArithmeticError("outside the domain")
            return x - 3.0

        def hess(x):
            return np.array([[np.inf if x[0] > 1.5 else 1.0]])

        res = tr.tr_minimize(fun, grad, hess, np.zeros(1), delta=1e-8)
        # the constrained infimum lies on the domain edge, never crossed
        assert res.status in (tr.RADIUS_COLLAPSE, tr.MAX_ITER)
        assert 1.0 < res.x[0] <= 1.5

    def test_failing_start_point_raises(self):
        def grad(x):
            raise ValueError("outside the domain")
        with pytest.raises(ValueError):
            tr.tr_minimize(lambda x: 0.0, grad, lambda x: np.eye(1), np.zeros(1), delta=1e-8)
        with pytest.raises(InvalidInputError):
            tr.tr_minimize(lambda x: 0.0, lambda x: np.array([np.nan]), lambda x: np.eye(1),
                           np.zeros(1), delta=1e-8)

    def test_delta_range_validated(self):
        fun, grad, hess = saddle_hooks()
        with pytest.raises(InvalidInputError):
            tr.tr_minimize(fun, grad, hess, np.zeros(2), delta=1.5)

    def test_max_iter_status(self):
        fun, grad, hess = saddle_hooks()
        cfg = tr.TrConfig(max_iter=1)
        res = tr.tr_minimize(fun, grad, hess, np.array([5.0, 5.0]), delta=1e-10, config=cfg)
        assert res.status == tr.MAX_ITER

    def test_huge_gradient_norm(self):
        # ||g||^2 overflows; the loop takes ||g|| after the subproblem's exact rescaling
        fun = lambda x: 1e160 * x[0] + 0.5 * x[1] ** 2
        grad = lambda x: np.array([1e160, x[1]])
        hess = lambda x: np.diag([0.0, 1.0])
        res = tr.tr_minimize(fun, grad, hess, np.zeros(2), delta=1e-6, config=tr.TrConfig(max_iter=3))
        assert res.status == tr.MAX_ITER
        assert res.grad_norm == 1e160 and res.x[0] < 0

    def test_config_validation(self):
        for bad in (dict(eta1=0.9, eta2=0.5),
                    dict(delta0_radius=np.nan), dict(delta0_radius=np.inf), dict(delta0_radius=0.0),
                    dict(radius_min=np.nan), dict(radius_min=np.inf), dict(radius_min=-1e-14),
                    dict(shrink=0.0), dict(shrink=-0.5), dict(shrink=np.nan),
                    dict(grow=np.inf), dict(grow=np.nan), dict(grow=1.0),
                    dict(max_iter=0), dict(max_iter=-3), dict(max_iter=2.5), dict(max_iter=True),
                    dict(eta1=0.9)):
            with pytest.raises(InvalidInputError):
                tr.TrConfig(**bad)
            # the same fields set on a built config are caught before any hook runs
            cfg = tr.TrConfig()
            for name, value in bad.items():
                setattr(cfg, name, value)
            with pytest.raises(InvalidInputError):
                cfg.validate()
            calls = []
            with pytest.raises(InvalidInputError):
                tr.tr_minimize(calls.append, calls.append, calls.append, np.zeros(2), delta=1e-8, config=cfg)
            assert calls == []
        tr.TrConfig(radius_min=0.0, max_iter=1, shrink=1e-3, grow=1e3, delta0_radius=1e-3)


class TestBelowNoiseBranch:
    # f is huge, so the noise band 8 eps (1 + |f|) is about 2e-7, while the
    # gradient is 1e-9: every model decrease falls below the noise band
    F0 = 1e8

    def hooks(self, fun):
        counts = {"hess": 0}

        def hess(x):
            counts["hess"] += 1
            return np.eye(1)
        return fun, lambda x: x - 1.0, hess, counts

    def test_step_accepted_within_noise(self):
        fun, grad, hess, counts = self.hooks(lambda x: self.F0 + 0.5 * float((x[0] - 1.0) ** 2))
        x0 = np.array([1.0 + 1e-9])
        res = tr.tr_minimize(fun, grad, hess, x0, delta=1e-12)
        assert res.status == tr.CONVERGED
        assert res.iterations == 1 and counts["hess"] == 2
        assert res.x[0] == 1.0

    @pytest.mark.parametrize("trial_value", [np.nan, F0 + 1.0])
    def test_radius_shrinks_on_rejected_trial(self, trial_value, monkeypatch):
        x0 = np.array([1.0 + 1e-9])
        fun, grad, hess, counts = self.hooks(lambda x: self.F0 if x[0] == x0[0] else trial_value)
        radii = []
        subproblem = tr.ms_subproblem

        def recording(B, g, radius):
            radii.append(radius)
            return subproblem(B, g, radius)

        monkeypatch.setattr(tr, "ms_subproblem", recording)
        cfg = tr.TrConfig(radius_min=1e-12)
        res = tr.tr_minimize(fun, grad, hess, x0, delta=1e-12, config=cfg)
        assert res.status == tr.RADIUS_COLLAPSE
        assert np.array_equal(res.x, x0) and res.value == self.F0
        assert counts["hess"] == 1
        assert radii == [cfg.delta0_radius * cfg.shrink**k for k in range(len(radii))]
        assert radii[-1] >= cfg.radius_min > radii[-1] * cfg.shrink
