"""Tests of the benchmark itself: run with ``python -m pytest bench``."""

import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import families
import nsdpen
from nsdpen import PenaltyConfig, audit_derivatives, model, optimality, penalty, trustregion
from tracer import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
CONFIG = PenaltyConfig(tol_feas=1e-4, tol_opt=1e-6, max_outer=40)


def traced_solve(kind, d, seed=0):
    inst = families.FAMILIES[kind](d, np.random.default_rng(seed))
    tracer = Tracer()
    with tracer.installed():
        # looked up at call time: the tracer rebinds names inside nsdpen only
        report = nsdpen.solve(tracer.instrument(inst.problem), CONFIG)
    return inst, report, tracer


@pytest.mark.parametrize("kind", ["psd", "ball"])
def test_tracer_sees_every_hessian_entry(kind):
    inst, report, tracer = traced_solve(kind, 3)
    n = inst.problem.n
    m = tracer.metrics()
    assert report.final_status == "FeasOptReached"
    hessians = m["penalty.hess.calls"][0] + tracer.stats["optimality.lagrangian_hess"][0]
    assert hessians > m["penalty.hess.calls"][0]
    assert m["model.hook.d2G.calls"][0] == n * (n + 1) // 2 * hessians
    assert m["trustregion.trial_steps"][0] == m["trustregion.ms_subproblem.calls"][0] > 0
    assert m["driver.outer_iterations"][0] == len(report.iterates)


def test_traced_counts_repeat():
    counts = []
    for _ in range(2):
        _, _, tracer = traced_solve("ball", 3, seed=4)
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
    assert counts[0] == counts[1]


def test_tracer_restores_every_binding():
    originals = (penalty.dG_adjoint, optimality.dG_adjoint, model.dG_adjoint,
                 trustregion.ms_subproblem, penalty.penalty_hess)
    with Tracer().installed():
        assert penalty.dG_adjoint is not originals[0]
        assert optimality.dG_adjoint is not originals[1]
        assert trustregion.ms_subproblem is not originals[3]
    assert (penalty.dG_adjoint, optimality.dG_adjoint, model.dG_adjoint,
            trustregion.ms_subproblem, penalty.penalty_hess) == originals


@pytest.mark.parametrize("kind", ["psd", "ball"])
@pytest.mark.parametrize("d", [3, 5])
def test_family_hooks_pass_audit(kind, d):
    rng = np.random.default_rng(d)
    inst = families.FAMILIES[kind](d, rng)
    prob = inst.problem
    for x in (prob.start_point, prob.start_point + rng.standard_normal(prob.n)):
        assert audit_derivatives(prob, x).passed
    w = np.linalg.eigvalsh(inst.reference)
    if kind == "psd":
        assert w.min() >= -1e-12 and np.linalg.eigvalsh(prob.G(prob.start_point)).min() > 0
    else:
        assert np.abs(w).max() <= 1 + 1e-12 and np.linalg.eigvalsh(prob.G(prob.start_point)).min() > 0


def run_bench(*args):
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "run.py"), *args],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), elapsed


def test_smoke_mode_is_fast_and_correct():
    result, elapsed = run_bench("--smoke")
    assert result["correct"] and result["failed"] == 0
    assert elapsed < 5.0


def test_result_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        result, _ = run_bench("--smoke", "--trace", trace)
        assert result["correct"]
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in spec[key]}
