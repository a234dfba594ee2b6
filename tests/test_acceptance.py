"""Acceptance suite.

Each test enforces one numbered acceptance criterion at its stated tolerance
and prints a single PASS or FAIL line.  Run with
``pytest tests/test_acceptance.py -v -s``.
"""

import functools
import json
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import brentq

from nsdpen import (
    cli,
    driver,
    matfun,
    optimality,
    penalty,
    problems,
    trustregion,
)

from conftest import eig_classes, q_cube, rng, script_F_point


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE CRITERION {num}: FAIL - {label}")
                raise
            print(f"ACCEPTANCE CRITERION {num}: PASS - {label}")
        return wrapper
    return decorate


def random_sym(gen, d, scale=1.0):
    A = gen.normal(size=(d, d)) * scale
    return 0.5 * (A + A.T)


def random_orthogonal(gen, d):
    Q, R = np.linalg.qr(gen.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


def sym_from_spectrum(gen, values):
    values = np.asarray(values, dtype=float)
    Q = random_orthogonal(gen, values.size)
    return (Q * values) @ Q.T


def fd_grad(fun, x, n):
    h = 1e-5 * (1.0 + np.abs(x))
    out = np.zeros(n)
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        out[i] = (fun(x + e) - fun(x - e)) / (2 * h[i])
    return out


def fd_jac(vec_fun, x, n):
    h = 1e-5 * (1.0 + np.abs(x))
    cols = []
    for i in range(n):
        e = np.zeros(n)
        e[i] = h[i]
        cols.append((vec_fun(x + e) - vec_fun(x - e)) / (2 * h[i]))
    return np.column_stack(cols)


@criterion(1, "penalty gradient/Hessian match finite differences on 4 problems x 20 points x 3 parameter sets")
def test_criterion_1_penalty_derivative_exactness():
    gen = rng(1001)
    for name in problems.list_problems():
        prob = problems.get_problem(name).problem
        param_sets = [
            penalty.special_params("script_F", 1.0),
            penalty.special_params("script_F", 1e3),
        ]
        v = gen.normal(size=prob.m) if prob.m > 0 else None
        M = random_sym(gen, prob.d) if prob.d > 0 else None
        param_sets.append(penalty.PenaltyParams(v=v, M=M, rho=0.7, sigma=1.3, tau=2.0))
        for params in param_sets:
            for _ in range(20):
                x = prob.start_point + gen.normal(size=prob.n)
                at = penalty.penalty_at(prob, x, params)
                grad = penalty.penalty_grad(at)
                fd_g = fd_grad(lambda z: penalty.penalty_value(penalty.penalty_at(prob, z, params)), x, prob.n)
                rel_g = np.linalg.norm(grad - fd_g) / (1 + np.linalg.norm(grad))
                assert rel_g <= 1e-6, (name, rel_g)
                hess = penalty.penalty_hess(at)
                fd_h = fd_jac(lambda z: penalty.penalty_grad(penalty.penalty_at(prob, z, params)), x, prob.n)
                fd_h = 0.5 * (fd_h + fd_h.T)
                rel_h = np.linalg.norm(hess - fd_h) / (1 + np.linalg.norm(hess))
                assert rel_h <= 1e-4, (name, rel_h)


@criterion(2, "derivative operator of the PSD cube: FD agreement, PD polynomial rule, coalescence continuity")
def test_criterion_2_dq_correctness_and_continuity():
    # (a) finite-difference agreement on 50 seeded pairs, including
    # rank-deficient and repeated-eigenvalue inputs
    gen = rng(1002)
    t = 1e-5
    for idx in range(50):
        d = int(gen.integers(2, 7))
        values = gen.uniform(-2.0, 2.0, size=d)
        if idx % 3 == 0:
            values[int(gen.integers(d))] = 0.0
        if idx % 4 == 0 and d >= 2:
            values[1] = values[0]
        X = sym_from_spectrum(gen, values)
        H = random_sym(gen, d)
        out = matfun.dq_apply(matfun.eig_sym(X), H)
        fd = (q_cube(X + t * H) - q_cube(X - t * H)) / (2 * t)
        rel = np.linalg.norm(out - fd) / (1 + np.linalg.norm(out))
        assert rel <= 1e-6, (idx, rel)

    # (b) positive definite inputs follow the plain polynomial derivative
    for _ in range(10):
        d = int(gen.integers(1, 7))
        X = sym_from_spectrum(gen, gen.uniform(0.5, 3.0, size=d))
        H = random_sym(gen, d)
        out = matfun.dq_apply(matfun.eig_sym(X), H)
        ref = X @ X @ H + X @ H @ X + H @ X @ X
        assert np.linalg.norm(out - ref) <= 1e-10 * (1 + np.linalg.norm(ref))

    # (c) coalescence: diag(1, +-1/k, -1) -> diag(1, 0, -1)
    H_grid = []
    for i in range(3):
        for j in range(i, 3):
            E = np.zeros((3, 3))
            E[i, j] = E[j, i] = 1.0
            H_grid.append(E / np.linalg.norm(E))
    H_grid.append(np.ones((3, 3)) / 3.0)
    dec_limit = matfun.eig_sym(np.diag([1.0, 0.0, -1.0]))
    for sign in (+1.0, -1.0):
        gaps = []
        for e in range(1, 8):
            dec_k = matfun.eig_sym(np.diag([1.0, sign / 10**e, -1.0]))
            gaps.append(max(
                np.linalg.norm(matfun.dq_apply(dec_k, H) - matfun.dq_apply(dec_limit, H))
                for H in H_grid
            ))
        assert all(b < a for a, b in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-6, gaps


def _kkt_residuals(B, g, radius, p):
    nrm = np.linalg.norm(p)
    lam = max(0.0, float(-(B @ p + g) @ p / (p @ p))) if nrm > 0 else 0.0
    stat = np.linalg.norm((B + lam * np.eye(len(g))) @ p + g)
    comp = abs(lam * (radius - nrm))
    overrun = max(0.0, nrm - radius)
    shifted = max(0.0, -(np.linalg.eigvalsh(B)[0] + lam))
    return stat, comp, overrun, shifted


def _q(B, g, p):
    return float(g @ p + 0.5 * p @ B @ p)


def _boundary_samples(gen, n, count):
    if n == 2:
        a = np.linspace(0.0, 2 * np.pi, count, endpoint=False)
        return np.column_stack([np.cos(a), np.sin(a)])
    if n == 3:
        # Fibonacci sphere: deterministic, nearly uniform
        i = np.arange(count) + 0.5
        phi = np.arccos(1 - 2 * i / count)
        theta = np.pi * (1 + 5**0.5) * i
        return np.column_stack([
            np.cos(theta) * np.sin(phi), np.sin(theta) * np.sin(phi), np.cos(phi)])
    P = gen.normal(size=(count, n))
    return P / np.linalg.norm(P, axis=1, keepdims=True)


@criterion(3, "saddle escape at delta=1e-6; subproblem optimality on 100 instances; brute-force value match for n<=4")
def test_criterion_3_trust_region_certificates():
    # saddle escape with a second-order certificate
    fun = lambda x: x[0] ** 2 - x[1] ** 2 + x[1] ** 4 / 4.0
    grad = lambda x: np.array([2.0 * x[0], -2.0 * x[1] + x[1] ** 3])
    hess = lambda x: np.array([[2.0, 0.0], [0.0, -2.0 + 3.0 * x[1] ** 2]])
    delta = 1e-6
    res = trustregion.tr_minimize(fun, grad, hess, np.zeros(2), delta=delta)
    assert res.status == trustregion.CONVERGED
    target = np.array([0.0, np.sqrt(2.0)])
    assert min(np.linalg.norm(res.x - target), np.linalg.norm(res.x + target)) <= 1e-4
    assert np.linalg.eigvalsh(hess(res.x))[0] >= -delta

    # subproblem optimality system on 100 seeded random instances
    gen = rng(1003)
    for trial in range(100):
        n = int(gen.integers(1, 7))
        A = gen.normal(size=(n, n))
        B = 0.5 * (A + A.T)
        g = gen.normal(size=n)
        if trial % 5 == 0:
            w, Q = np.linalg.eigh(B)
            gbar = Q.T @ g
            gbar[0] = 0.0
            g = Q @ gbar
            if w[0] > 0:
                B = B - (w[0] + 1.0) * np.eye(n)
        radius = float(gen.uniform(0.1, 3.0))
        p = trustregion.ms_subproblem(B, g, radius)
        scale = 1 + np.linalg.norm(B) * radius + np.linalg.norm(g)
        stat, comp, overrun, shifted = _kkt_residuals(B, g, radius, p)
        assert max(stat, comp, shifted) <= 1e-8 * scale, trial
        assert overrun <= 1e-8 * radius

    # brute-force value comparison for n <= 4: the returned step is never
    # worse than any sampled boundary point or the interior critical point
    counts = {2: 400000, 3: 1500000, 4: 2000000}
    for n in (2, 3, 4):
        samples = _boundary_samples(gen, n, counts[n])
        for _ in range(3):
            A = gen.normal(size=(n, n))
            B = 0.5 * (A + A.T)
            g = gen.normal(size=n)
            radius = float(gen.uniform(0.2, 2.0))
            p = trustregion.ms_subproblem(B, g, radius)
            boundary = samples * radius
            vals = boundary @ g + 0.5 * np.einsum("ij,jk,ik->i", boundary, B, boundary)
            best = float(vals.min())
            w = np.linalg.eigvalsh(B)
            if w[0] > 0:
                pn = -np.linalg.solve(B, g)
                if np.linalg.norm(pn) <= radius:
                    best = min(best, _q(B, g, pn))
            assert _q(B, g, p) <= best + 1e-6 * (1 + abs(best)), n


@criterion(4, "outer method: oracle match on scalar-bound, projection on nearest-psd, divergent multipliers on equality-degenerate")
def test_criterion_4_penalty_method_end_to_end(corpus_runs):
    # scalar-bound: full certificate chain against the closed-form oracle
    entry, report = corpus_runs["scalar-bound"]
    assert report.final_status == driver.FEAS_OPT_REACHED
    final = report.final
    t_star = brentq(lambda t: final.gamma * t**3 - 2.0 * (1.0 - t), 0.0, 1.0, xtol=1e-15)
    assert abs(final.x[0] - (-t_star)) <= 1e-8
    assert abs(final.x[0]) <= 1e-4
    assert abs(final.Z[0, 0] - 2.0) <= 1e-3
    assert final.complementarity <= 1e-4
    for rec in report.iterates:
        assert rec.stationarity <= rec.delta           # exact identity with the inner certificate
        assert rec.second_order <= rec.delta           # subspace is empty at every iterate

    # nearest-psd: converges to the PSD projection parameters
    entry, report = corpus_runs["nearest-psd"]
    assert report.final_status == driver.FEAS_OPT_REACHED
    assert np.linalg.norm(report.final.x - np.array([0.5, 0.5, 0.5])) <= 1e-3
    tail = report.iterates[-5:]
    assert all(rec.second_order <= rec.delta for rec in tail)
    stable_from = next(
        k for k in range(len(report.iterates))
        if all(r.second_order <= r.delta for r in report.iterates[k:])
    )
    assert len(report.iterates) - stable_from >= 5

    # equality-degenerate: an asymptotic certificate where no KKT point exists
    entry, report = corpus_runs["equality-degenerate"]
    assert report.final_status == driver.FEAS_OPT_REACHED
    xs = [abs(r.x[0]) for r in report.iterates]
    ys = [abs(r.y[0]) for r in report.iterates]
    assert xs[-1] <= 1e-3 and xs[-1] == min(xs)
    assert ys[-1] > 100.0 and all(b >= a for a, b in zip(ys, ys[1:]))
    for rec in report.iterates:
        regrad = optimality.lagrangian_grad(entry.problem, rec.x, rec.y, rec.Z)
        assert np.linalg.norm(regrad) <= rec.delta * (1 + 1e-9) + 1e-14


@criterion(5, "gamma held/multiplied exactly per rule; reset branch iff penalty exceeds f(x0); descent chain on all runs")
def test_criterion_5_update_rule_fidelity(corpus_runs):
    # scripted gamma sequences
    assert driver.next_gamma(1, 1.0, u_next=0.4, u_prev=0.5, eta=0.5, theta=10.0) == 10.0
    assert driver.next_gamma(1, 1.0, u_next=0.2, u_prev=0.5, eta=0.5, theta=10.0) == 1.0
    assert driver.next_gamma(0, 1.0, u_next=0.9, u_prev=0.0, eta=0.5, theta=10.0) == 1.0
    assert driver.next_gamma(4, 1.0, u_next=0.0, u_prev=0.0, eta=0.5, theta=10.0) == 1.0
    assert driver.next_gamma(4, 1.0, u_next=1e-9, u_prev=0.0, eta=0.5, theta=10.0) == 10.0

    # reset branch fires exactly when the penalty value exceeds f(x0)
    x_next, x0 = np.array([2.0]), np.array([7.0])
    for val, expected in ((3.9, driver.BRANCH_ACCEPT), (4.0, driver.BRANCH_ACCEPT),
                          (4.0 + 1e-9, driver.BRANCH_RESET)):
        _, branch = driver.next_xhat(x_next, val, 4.0, x0)
        assert branch == expected

    # descent chain on every recorded iterate of every corpus run
    for name, (entry, report) in corpus_runs.items():
        f0 = entry.problem.f(entry.problem.start_point)
        for rec in report.iterates:
            slack = 1e-10 * (1 + abs(rec.script_F_at_start))
            assert rec.script_F_value <= rec.script_F_at_start + slack, name
            assert rec.script_F_at_start <= f0 + slack, name
            expected = driver.BRANCH_ACCEPT if rec.script_F_value <= f0 else driver.BRANCH_RESET
            assert rec.xhat_branch == expected, name


@criterion(6, "Jordan norm inequality, exact multiplier vanishing, curvature-correction inequality on subspace directions")
def test_criterion_6_optimality_identities(corpus_runs):
    # Jordan product inequality on 100 seeded pairs
    gen = rng(1006)
    for _ in range(100):
        d = int(gen.integers(1, 8))
        G = random_sym(gen, d)
        B = gen.normal(size=(d, d))
        Z = B @ B.T
        jordan = 0.5 * (G @ Z + Z @ G)
        plain = np.linalg.norm(G @ Z)
        assert np.linalg.norm(jordan) <= plain + 1e-12 * (1 + plain)

    # recovered multiplier vanishes exactly on the positive eigenspace
    for name, (entry, report) in corpus_runs.items():
        prob = entry.problem
        if prob.d == 0:
            continue
        for rec in report.iterates:
            dec = matfun.eig_sym(np.asarray(prob.G(rec.x)))
            for j in np.flatnonzero(eig_classes(dec)[0]):
                v = dec.vectors[:, j]
                assert abs(v @ rec.Z @ v) <= 1e-12 * (1 + np.linalg.norm(rec.Z)), name

    # curvature-correction vs penalty-curvature inequality on subspace directions
    checked = 0
    for name, (entry, report) in corpus_runs.items():
        prob = entry.problem
        if prob.d == 0:
            continue
        for rec in report.iterates[-5:]:
            at = script_F_point(prob, rec.x, rec.gamma)
            basis = optimality.critical_subspace_basis(at, report.b_count)
            if basis.shape[1] == 0:
                continue
            sigma = optimality.sigma_term(at, rec.Z)
            dec = matfun.eig_sym(-np.asarray(prob.G(rec.x)))
            for _ in range(20):
                h = basis @ gen.normal(size=basis.shape[1])
                Dh = np.tensordot(h, at.dG, 1)
                quad_sigma = float(h @ sigma @ h)
                quad_dq = rec.gamma * float(np.sum(Dh * matfun.dq_apply(dec, Dh)))
                scale = 1 + abs(quad_sigma) + abs(quad_dq)
                assert quad_sigma - quad_dq >= -1e-9 * scale, name
                checked += 1
    assert checked >= 20  # at least one run exercises a nontrivial subspace


SOLVE_FLAGS = ["--tol-feas", "3e-5", "--tol-opt", "1e-6", "--max-outer", "40"]


def _strip_wall_time(text):
    return "\n".join(line for line in text.splitlines() if '"wall_time_sec"' not in line)


@criterion(7, "byte-identical reports across runs; exit codes 0/2/64/65 verified")
def test_criterion_7_cli_contract(tmp_path):
    # two consecutive identical invocations: byte-identical numeric payloads
    reports = []
    for tag in ("a", "b"):
        rpath = tmp_path / f"r{tag}.json"
        tpath = tmp_path / f"t{tag}.jsonl"
        cmd = [sys.executable, "-m", "nsdpen", "solve", "--problem", "scalar-bound",
               *SOLVE_FLAGS, "--report", str(rpath), "--trace", str(tpath)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        reports.append((rpath.read_text(), tpath.read_bytes()))
    assert _strip_wall_time(reports[0][0]) == _strip_wall_time(reports[1][0])
    assert reports[0][1] == reports[1][1]
    doc = json.loads(reports[0][0])
    assert doc["schema_version"] == "3"
    assert doc["final_status"] == "FeasOptReached"

    # documented exit codes
    assert cli.main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS,
                     "--report", str(tmp_path / "ok.json")]) == 0
    assert cli.main(["solve", "--problem", "scalar-bound", "--max-outer", "1"]) == 2
    assert cli.main(["solve", "--problem", "nope"]) == 65
    assert cli.main(["solve", "--problem", "scalar-bound", "--eta", "1.5"]) == 64
