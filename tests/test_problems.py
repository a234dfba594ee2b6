import ast
import dataclasses
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

from nsdpen import cli, driver, model, optimality, problems
from nsdpen.errors import UnknownProblemError

from conftest import cap_inner_iterations, script_F_point

ROOT = Path(__file__).resolve().parents[1]


class TestRegistry:
    def test_expected_names(self):
        assert problems.list_problems() == [
            "corr-matrix", "equality-degenerate", "nearest-psd", "scalar-bound",
        ]

    def test_unknown_name(self):
        with pytest.raises(UnknownProblemError):
            problems.get_problem("nope")

    def test_entries_are_fresh(self):
        a = problems.get_problem("scalar-bound")
        b = problems.get_problem("scalar-bound")
        assert a.problem is not b.problem

    def test_dG_outputs_are_shared_and_read_only(self):
        # dG(x, i) is one read-only array per i for every x, as d2G's zero is: no copy per call
        gen = np.random.default_rng(5)
        for name in problems.list_problems():
            prob = problems.get_problem(name).problem
            for i in range(prob.n if prob.d else 0):
                out = prob.dG(prob.start_point, i)
                assert out is prob.dG(gen.normal(size=prob.n), i) and not out.flags.writeable, (name, i)
                assert out.shape == (prob.d, prob.d)


class TestKnownData:
    def test_scalar_bound_multiplier(self):
        entry = problems.get_problem("scalar-bound")
        assert entry.known_multipliers.Z[0, 0] == pytest.approx(2.0)
        assert entry.b_count_at_solution == 1

    def test_nearest_psd_solution_is_projection(self):
        entry = problems.get_problem("nearest-psd")
        X = np.array([[entry.known_solution[0], entry.known_solution[2]],
                      [entry.known_solution[2], entry.known_solution[1]]])
        assert np.allclose(X, [[0.5, 0.5], [0.5, 0.5]])

    def test_solutions_feasible(self):
        for name in problems.list_problems():
            entry = problems.get_problem(name)
            if entry.known_solution is not None:
                u = optimality.infeasibility_u(script_F_point(entry.problem, entry.known_solution))
                assert u <= 1e-10, name

    def test_starts_feasible(self):
        for name in problems.list_problems():
            entry = problems.get_problem(name)
            u = optimality.infeasibility_u(script_F_point(entry.problem, entry.problem.start_point))
            assert u <= 1e-10, name

    def test_known_multipliers_satisfy_kkt(self):
        for name in problems.list_problems():
            entry = problems.get_problem(name)
            if entry.known_multipliers is None:
                continue
            prob = entry.problem
            x = entry.known_solution
            y, Z = entry.known_multipliers.y, entry.known_multipliers.Z
            grad = optimality.lagrangian_grad(prob, x, y, Z)
            assert np.linalg.norm(grad) <= 1e-10, name
            if prob.d > 0:
                gap = abs(float(np.sum(np.asarray(prob.G(x)) * Z)))
                assert gap <= 1e-10, name
                assert np.linalg.eigvalsh(Z)[0] >= -1e-12, name

    def test_audits_pass_at_start_and_solution(self):
        for name in problems.list_problems():
            entry = problems.get_problem(name)
            assert model.audit_derivatives(entry.problem, entry.problem.start_point).passed, name
            if entry.known_solution is not None:
                assert model.audit_derivatives(entry.problem, entry.known_solution).passed, name

    def test_equality_degenerate_has_no_kkt_point(self):
        # at the only feasible point x = 0 the stationarity gap
        # |1 - 2*0*y| = 1 for every multiplier y on a wide grid
        entry = problems.get_problem("equality-degenerate")
        prob = entry.problem
        x = np.zeros(1)
        gaps = [
            np.linalg.norm(optimality.lagrangian_grad(prob, x, np.array([y]), None))
            for y in np.linspace(-1e6, 1e6, 101)
        ]
        assert min(gaps) == pytest.approx(1.0)
        assert entry.known_multipliers is None


def assigned(path: str, name: str):
    """The expression of the top-level ``name = ...`` of a file of the repo, read with ``ast``: the file is not
    run, since bench/run.py sets BLAS variables and imports scipy when run."""
    tree = ast.parse((ROOT / path).read_text())
    return next(node.value for node in tree.body
                if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == name)


def setting(node):
    """The value of a literal, or of a ``PenaltyConfig(field=literal, ...)`` call, as an ``assigned`` node."""
    if not isinstance(node, ast.Call):
        return ast.literal_eval(node)
    assert ast.unparse(node.func).endswith("PenaltyConfig") and not node.args
    return driver.PenaltyConfig(**{keyword.arg: ast.literal_eval(keyword.value) for keyword in node.keywords})


def corpus_script(monkeypatch):
    """scripts/run_corpus.py loaded as a module, with ``sys.argv`` set to solve scalar-bound."""
    path = ROOT / "scripts" / "run_corpus.py"
    spec = importlib.util.spec_from_file_location("run_corpus", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(sys, "argv", [str(path), "--problem", "scalar-bound"])
    return script


class TestKnownGoodConfig:
    def test_each_config_reaches_feas_opt(self, corpus_runs):
        for name, (entry, report) in corpus_runs.items():
            assert report.final_status == driver.FEAS_OPT_REACHED, name
            assert report.final.u <= entry.config.tol_feas, name

    def test_corpus_script_exit_code(self, monkeypatch, capsys):
        # scripts/run_corpus.py fails when a problem misses FeasOptReached, ends too far from its known solution or
        # estimates a b_count other than its b_count_at_solution
        script = corpus_script(monkeypatch)
        assert script.main() == 0
        assert "b_count = 1 (b_count_at_solution = 1)" in capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(script, "REFERENCE_TOL", 1e-6)
            assert script.main() == 1
        entry = problems.get_problem("scalar-bound")
        with monkeypatch.context() as patch:
            patch.setattr(problems, "get_problem", lambda name: dataclasses.replace(entry, b_count_at_solution=0))
            assert script.main() == 1
        out = capsys.readouterr().out
        assert "b_count = 1 (b_count_at_solution = 0)" in out and out.count("FAILED: scalar-bound") == 2
        capped = dataclasses.replace(entry, config=dataclasses.replace(entry.config, max_outer=1))
        monkeypatch.setattr(problems, "get_problem", lambda name: capped)
        assert script.main() == 1
        assert capsys.readouterr().out.count("FAILED: scalar-bound") == 1

    def test_corpus_script_solve_without_iterates(self, monkeypatch, capsys):
        # an inner failure at outer iteration 0 records no iterate: the script prints the status and
        # detail and counts the problem as failed, where it used to read final.x of None
        script = corpus_script(monkeypatch)
        cap_inner_iterations(monkeypatch, 1)
        assert script.main() == 1
        out = capsys.readouterr().out
        assert f"scalar-bound: {driver.INNER_FAILURE} in 0 outer iterations" in out
        assert "inner solver returned MaxIter at outer iteration 0" in out
        assert "FAILED: scalar-bound" in out

    @pytest.mark.parametrize("script, name", [("scripts/artifact_digest.py", "FAMILY_CONFIG"),
                                              ("scripts/run_corpus.py", "REFERENCE_TOL")])
    def test_scripts_copy_the_benchmark_settings(self, script, name):
        # a script that keeps its own copy of a benchmark setting must hold the benchmark's value
        assert setting(assigned(script, name)) == setting(assigned("bench/run.py", name))

    def test_readme_holds_each_constant(self):
        # README's constants table is a copy too: each of its 14 one-value rows holds its module attribute's value
        rows = re.findall(r"^\| `(\w+)\.(\w+)` \| `([^`]+)` \|", (ROOT / "README.md").read_text(), re.M)
        assert len(rows) == 14
        for module, name, value in rows:
            expected, actual = ast.literal_eval(value), getattr(importlib.import_module(f"nsdpen.{module}"), name)
            assert (type(actual), actual) == (type(expected), expected), f"{module}.{name}"

    def test_benchmark_flags_name_the_same_configs(self, tmp_path, capsys):
        # the benchmark passes the table as solve flags, in a copy of its own; a flagless solve runs
        # CorpusEntry.config, so with the flags the report, trace and output must be the same
        flags = setting(assigned("bench/run.py", "CORPUS_FLAGS"))
        assert sorted(flags) == problems.list_problems()
        for name, argv in flags.items():
            runs = []
            for given in (argv, []):
                report, trace = tmp_path / "r.json", tmp_path / "t.jsonl"
                code = cli.main(["solve", "--problem", name, *given, "--report", str(report), "--trace", str(trace)])
                doc = json.loads(report.read_text())
                doc.pop("wall_time_sec")
                runs.append((code, doc, trace.read_text(), capsys.readouterr().out))
            assert runs[0] == runs[1], name
            config = problems.get_problem(name).config
            assert runs[0][1]["config"] == {field: getattr(config, field) for field in cli.CONFIG_FLAGS}, name
