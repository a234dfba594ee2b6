import dataclasses
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nsdpen import cli, driver, optimality, penalty, problems
from nsdpen.errors import InvalidInputError

SOLVE_FLAGS = ["--tol-feas", "3e-5", "--tol-opt", "1e-6", "--max-outer", "40"]
SRC = Path(__file__).resolve().parent.parent / "src"


def run_main(argv, capsys=None):
    code = cli.main(argv)
    if capsys is not None:
        return code, capsys.readouterr()
    return code


class TestLowerTriangle:
    def test_round_trip(self):
        Z = np.array([[1.0, -2.5, 0.25], [-2.5, 3.0, 4.0], [0.25, 4.0, -1.0]])
        doc = cli.sym_to_lower(Z)
        assert doc["dim"] == 3 and len(doc["lower"]) == 6
        assert np.array_equal(cli.lower_to_sym(doc), Z)

    def test_empty_matrix(self):
        doc = cli.sym_to_lower(np.zeros((0, 0)))
        assert doc == {"dim": 0, "lower": []}
        assert cli.lower_to_sym(doc).shape == (0, 0)

    def test_row_major_order(self):
        # the order of the documents: row by row, each row up to the diagonal
        A = np.random.default_rng(4).normal(size=(4, 4))
        Z = A + A.T
        assert cli.sym_to_lower(Z)["lower"] == [float(Z[i, j]) for i in range(4) for j in range(i + 1)]

    @pytest.mark.parametrize("d, lower", [
        (0, []),
        (1, [0.0]),
        (2, [0.0, 10.0, 11.0]),
        (3, [0.0, 10.0, 11.0, 20.0, 21.0, 22.0]),
        (4, [0.0, 10.0, 11.0, 20.0, 21.0, 22.0, 30.0, 31.0, 32.0, 33.0]),
    ])
    def test_explicit_lower_lists(self, d, lower):
        # entry (i, j) with i >= j holds 10 i + j; the list runs row by row, each row up to the diagonal
        i, j = np.indices((d, d))
        Z = 10.0 * np.maximum(i, j) + np.minimum(i, j)
        assert cli.sym_to_lower(Z) == {"dim": d, "lower": lower}
        assert np.array_equal(cli.lower_to_sym(cli.sym_to_lower(Z)), Z)

    @pytest.mark.parametrize("lower", [[1.0, 2.0], [1.0, 2.0, 3.0, 4.0], [[1.0, 2.0, 3.0]]])
    def test_wrong_length_rejected(self, lower):
        # too few entries used to raise a bare StopIteration, and extra ones were dropped
        with pytest.raises(InvalidInputError, match="dim 2 needs dim"):
            cli.lower_to_sym({"dim": 2, "lower": lower})


class TestSolveCommand:
    def test_success_exit_and_artifacts(self, tmp_path):
        report = tmp_path / "r.json"
        trace = tmp_path / "t.jsonl"
        code = run_main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS,
                         "--report", str(report), "--trace", str(trace)])
        assert code == 0
        doc = json.loads(report.read_text())
        assert doc["schema_version"] == "3"
        assert doc["final_status"] == "FeasOptReached"
        assert doc["b_count"] == 1
        assert abs(doc["final"]["x"][0]) <= 1e-4
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        assert len(rows) == len(doc["iterations"])
        assert rows[0]["k"] == 1

    def test_max_outer_exit(self, tmp_path):
        code = run_main(["solve", "--problem", "scalar-bound", "--max-outer", "1",
                         "--report", str(tmp_path / "r.json")])
        assert code == 2

    def test_huge_point_under_warning_filter_fails_without_traceback(self, tmp_path):
        # the corpus hooks' own overflow warnings, made errors by the filter, escaped the residuals as a
        # traceback; the residuals are now reported as not evaluated, and the audit still fails
        path = tmp_path / "check.json"
        proc = subprocess.run([sys.executable, "-m", "nsdpen", "check", "--problem", "scalar-bound", "--at", "9e307",
                               "--json", str(path)], capture_output=True, text=True,
                              env={**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning"})
        assert proc.returncode == cli.EXIT_AUDIT_FAILED
        assert "Traceback" not in proc.stderr
        assert "[FAIL]" in proc.stdout and "not evaluated: RuntimeWarning: overflow" in proc.stdout
        doc = json.loads(path.read_text())
        assert doc["audit"]["failures"] == ["grad_f", "hess_f"]
        assert doc["residuals"] is None and doc["multipliers"] is None

    def test_failing_hook_at_point_reported(self, monkeypatch, capsys):
        # a hook that raises at the point fails the audit and leaves the residuals unevaluated, with exit 1
        entry = problems.get_problem("scalar-bound")

        def broken(x):
            raise ZeroDivisionError("grad_f is undefined here")

        broken_entry = dataclasses.replace(entry, problem=dataclasses.replace(entry.problem, grad_f=broken))
        monkeypatch.setattr(problems, "get_problem", lambda name: broken_entry)
        code, out = run_main(["check", "--problem", "scalar-bound"], capsys)
        assert code == cli.EXIT_AUDIT_FAILED
        assert "not evaluated: ZeroDivisionError: grad_f is undefined here" in out.out

    def test_unknown_problem_exit(self):
        assert run_main(["solve", "--problem", "nope"]) == 65

    @pytest.mark.parametrize("flag, value, message", [
        ("--eta", "1.5", "eta must lie in (0, 1)"), ("--eta", "2", "eta must lie in (0, 1)"),
        ("--max-outer", "0", "max_outer must be an integer in [1, inf], got 0"),
        ("--gamma0", "1e15", "gamma0 must lie in (0, GAMMA_CAP] = (0, 1e+14]"),
    ], ids=["eta-1.5", "eta-2", "max-outer-0", "gamma0-1e15"])
    def test_invalid_config_exit(self, flag, value, message, capsys):
        # a flag that makes an invalid config is rejected when the config is built, before any solve
        code, out = run_main(["solve", "--problem", "scalar-bound", flag, value], capsys)
        assert code == 64
        assert f"usage error: {message}\n" in out.err and "usage" in out.err.splitlines()[-1]

    def test_unparseable_flag_exit(self):
        assert run_main(["solve", "--problem", "scalar-bound", "--max-outer", "xyz"]) == 64

    @pytest.mark.parametrize("flag, value", [("--gamma0", "inf"), ("--tol-feas", "nan"), ("--theta", "inf")])
    def test_non_finite_config_exit(self, flag, value, capsys):
        code, out = run_main(["solve", "--problem", "scalar-bound", flag, value], capsys)
        assert code == 64
        assert "must be finite" in out.err

    def test_missing_required_flag_exit(self):
        assert run_main(["solve"]) == 64

    @pytest.mark.parametrize("name", problems.list_problems())
    def test_flagless_solve_succeeds(self, name, capsys):
        # without flags a solve runs the problem's known-good config; scalar-bound, nearest-psd and
        # corr-matrix used to run PenaltyConfig()'s tol_feas = 1e-8 into the gamma cap and exit 3
        code, out = run_main(["solve", "--problem", name], capsys)
        assert code == 0, out.out
        assert "FeasOptReached" in out.out

    def test_infeasible_start_exits_3_without_traceback(self, monkeypatch, capsys):
        # scalar-bound from x0 = -1, where G = [[x0]] is not PSD: the solve refuses to start, as exit 3 with one line
        get_problem = problems.get_problem

        def infeasible(name):
            entry = get_problem(name)
            return dataclasses.replace(entry, problem=dataclasses.replace(entry.problem, start_point=[-1.0]))

        monkeypatch.setattr(problems, "get_problem", infeasible)
        code, out = run_main(["solve", "--problem", "scalar-bound"], capsys)
        assert code == 3 and out.out == ""
        assert out.err.startswith("error: start point of 'scalar-bound' has infeasibility ")
        assert out.err.count("\n") == 1 and "Traceback" not in out.err

    def test_infeasible_tolerance_forces_cap_failure(self, tmp_path):
        # feasibility target is unreachable before the weight cap: exit 3
        code = run_main(["solve", "--problem", "scalar-bound", "--tol-feas", "1e-12",
                         "--report", str(tmp_path / "r.json")])
        assert code == 3
        doc = json.loads((tmp_path / "r.json").read_text())
        assert doc["final_status"] == "InnerFailure"

    def test_report_numbers_revalidate(self, tmp_path):
        report = tmp_path / "r.json"
        trace = tmp_path / "t.jsonl"
        assert run_main(["solve", "--problem", "nearest-psd", "--tol-feas", "9e-5",
                         "--max-outer", "40", "--report", str(report),
                         "--trace", str(trace)]) == 0
        entry = problems.get_problem("nearest-psd")
        prob = entry.problem
        doc = json.loads(report.read_text())
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        for row, summary in zip(rows, doc["iterations"]):
            x = np.asarray(row["x"])
            gamma = row["gamma"]
            at = penalty.penalty_at(prob, x, penalty.special_params("script_F", gamma))
            regrad = penalty.penalty_grad(at)
            assert abs(np.linalg.norm(regrad) - row["stationarity"]) <= 1e-12 * (1 + row["stationarity"])
            assert optimality.infeasibility_u(at) == pytest.approx(row["u"], abs=1e-12)
            assert prob.f(x) == pytest.approx(row["f_value"], abs=1e-12)
            assert penalty.penalty_value(at) == pytest.approx(
                row["script_F_value"], abs=1e-12 * (1 + abs(row["script_F_value"])))
            mult = optimality.recover_multipliers(at)
            assert np.allclose(cli.lower_to_sym(row["Z"]), mult.Z, atol=1e-12)
            res, _ = optimality.evaluate_residuals(at, doc["b_count"])
            assert res.second_order == pytest.approx(row["second_order"], abs=1e-12)
            _, comp = optimality.jordan_complementarity(at, mult.Z)
            assert comp == pytest.approx(row["complementarity"], abs=1e-12)
            for key in ("k", "gamma", "delta", "u", "stationarity", "second_order"):
                assert summary[key] == row[key]

    def test_json_floats_round_trip_exactly(self, tmp_path):
        report = tmp_path / "r.json"
        assert run_main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS,
                         "--report", str(report)]) == 0
        text = report.read_text()
        doc = json.loads(text)
        assert json.loads(json.dumps(doc)) == doc  # binary64 repr round-trips

    def test_seed_echoed_in_config(self, tmp_path):
        # --seed was a no-op and is gone: it is now a usage error
        report = tmp_path / "r.json"
        assert run_main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS,
                         "--seed", "7", "--report", str(report)]) == 64
        assert run_main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS,
                         "--report", str(report)]) == 0
        doc = json.loads(report.read_text())
        assert "seed" not in doc["config"]
        assert doc["config"]["tol_feas"] == 3e-5


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ["solve", "--problem", "scalar-bound", *SOLVE_FLAGS, "--report"],
        ["solve", "--problem", "scalar-bound", *SOLVE_FLAGS, "--trace"],
        ["check", "--problem", "scalar-bound", "--json"],
    ], ids=["solve-report", "solve-trace", "check-json"])
    def test_io_error_exit(self, argv, tmp_path, capsys):
        path = tmp_path / "missing" / "out.json"
        code, out = run_main([*argv, str(path)], capsys)
        assert code == cli.EXIT_IO_ERROR == 74
        assert out.err == f"error: cannot write {path}: No such file or directory\n"

    def test_directory_as_output_leaves_no_temp_file(self, tmp_path, capsys):
        code, out = run_main(["check", "--problem", "scalar-bound", "--json", str(tmp_path)], capsys)
        assert code == 74
        assert "Is a directory" in out.err
        assert list(tmp_path.iterdir()) == []


class TestOutputMode:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_files_get_mode_666_less_umask(self, umask, mode, tmp_path):
        # a file renamed into place keeps its temp file's mode, so that file must be made like open() makes one
        paths = [tmp_path / name for name in ("r.json", "t.jsonl", "c.json")]
        old = os.umask(umask)
        try:
            assert run_main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS,
                             "--report", str(paths[0]), "--trace", str(paths[1])]) == 0
            assert run_main(["check", "--problem", "scalar-bound", "--json", str(paths[2])]) == 0
        finally:
            os.umask(old)
        assert [stat.S_IMODE(path.stat().st_mode) for path in paths] == [mode] * 3
        assert sorted(tmp_path.iterdir()) == sorted(paths)  # no temp file left behind


class TestDocumentContract:
    def test_default_config_mirrors_penalty_config(self, tmp_path):
        # a flag left out keeps the field of the problem's CorpusEntry.config, and a given flag sets its field;
        # every PenaltyConfig field is a flag, here set away from both the entry's value and the default
        report = tmp_path / "r.json"
        config = problems.get_problem("scalar-bound").config
        assert config != driver.PenaltyConfig()
        every = dict(eta=0.25, theta=4.0, gamma0=2.0, delta0=0.2, beta=0.4, tol_feas=1e-3, tol_opt=1e-3, max_outer=2)
        assert sorted(every) == sorted(field.name for field in dataclasses.fields(driver.PenaltyConfig))
        assert all(value not in (getattr(config, name), getattr(driver.PenaltyConfig(), name))
                   for name, value in every.items())
        every_flags = [arg for name, value in every.items() for arg in ("--" + name.replace("_", "-"), str(value))]
        for flags, changes in (([], {}), (["--max-outer", "3", "--eta", "0.25"], dict(max_outer=3, eta=0.25)),
                               (every_flags, every)):
            run_main(["solve", "--problem", "scalar-bound", *flags, "--report", str(report)])
            expected = dataclasses.replace(config, **changes)
            assert json.loads(report.read_text())["config"] == {name: getattr(expected, name) for name in cli.CONFIG_FLAGS}

    def test_rows_follow_iterate_record(self, tmp_path):
        report = tmp_path / "r.json"
        trace = tmp_path / "t.jsonl"
        assert run_main(["solve", "--problem", "nearest-psd", "--tol-feas", "9e-5", "--max-outer", "40",
                         "--report", str(report), "--trace", str(trace)]) == 0
        fields = [field.name for field in dataclasses.fields(driver.IterateRecord)]
        rows = [json.loads(line) for line in trace.read_text().splitlines()]
        summaries = json.loads(report.read_text())["iterations"]
        assert len(rows) == len(summaries) > 0
        for row, summary in zip(rows, summaries):
            assert sorted(row) == sorted(fields)
            assert set(summary) <= set(row)
            assert all(summary[key] == row[key] for key in summary)


class TestParserReuse:
    # main builds its parser once per process, so each call must start from a clean namespace

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_usage_error_after_success(self, tmp_path, capsys):
        code, _ = run_main(["solve", "--problem", "scalar-bound", *SOLVE_FLAGS, "--report", str(tmp_path / "r.json")],
                           capsys)
        assert code == 0
        for argv in (["solve", "--tol-feas", "1e-4"], ["check", "--problem", "scalar-bound", "--gamma", "x"], []):
            code, out = run_main(argv, capsys)
            assert code == 64
            assert out.err.splitlines()[-1].startswith("usage: nsdpen")

    def test_flagless_solve_after_flagged_one(self, tmp_path):
        # no flag value of the first call survives into the second
        entry = problems.get_problem("scalar-bound")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert run_main(["solve", "--problem", "scalar-bound", "--max-outer", "3", "--eta", "0.25", "--theta", "3",
                         "--report", str(first)]) == cli.EXIT_MAX_OUTER
        assert json.loads(first.read_text())["config"]["max_outer"] == 3
        assert run_main(["solve", "--problem", "scalar-bound", "--report", str(second)]) == 0
        assert json.loads(second.read_text())["config"] == {name: getattr(entry.config, name)
                                                             for name in cli.CONFIG_FLAGS}


class TestModuleEntryPoint:
    # ``python -m nsdpen`` runs __main__.py, which exits with the code of cli.main
    @staticmethod
    def run_module(*argv):
        return subprocess.run([sys.executable, "-m", "nsdpen", *argv], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": str(SRC)})

    def test_check_prints_what_main_prints(self, capsys):
        proc = self.run_module("check", "--problem", "scalar-bound")
        code, out = run_main(["check", "--problem", "scalar-bound"], capsys)
        assert code == proc.returncode == 0
        assert proc.stdout == out.out

    def test_unknown_problem_exit(self):
        proc = self.run_module("solve", "--problem", "nosuch")
        assert proc.returncode == cli.EXIT_UNKNOWN_PROBLEM == 65


class TestCheckCommand:
    def test_audit_at_start(self, capsys):
        code, out = run_main(["check", "--problem", "nearest-psd", "--at", "start"], capsys)
        assert code == 0
        assert "derivative audit" in out.out

    def test_point_and_gamma(self, tmp_path, capsys):
        path = tmp_path / "c.json"
        code, out = run_main(["check", "--problem", "scalar-bound", "--at", "0",
                              "--gamma", "100", "--json", str(path)], capsys)
        assert code == 0
        doc = json.loads(path.read_text())
        # G(0) = 0 makes the recovered multiplier vanish: stationarity is the
        # raw objective gradient 2, complementarity 0
        assert doc["residuals"]["stationarity"] == pytest.approx(2.0)
        assert doc["residuals"]["complementarity"] == 0.0
        assert doc["audit"]["passed"] is True
        assert doc["multipliers"]["Z"] == {"dim": 1, "lower": [0.0]}

    @pytest.mark.parametrize("problem, at", [("scalar-bound", "1,2"), ("corr-matrix", "0,,0,0"), ("scalar-bound", ",1")])
    def test_wrong_dimension_exit(self, problem, at, capsys):
        # blank fields used to be dropped, so "0,,0,0" was read as the 3 entries corr-matrix needs
        code, out = run_main(["check", "--problem", problem, "--at", at], capsys)
        assert code == 64
        assert "point" in out.err

    @pytest.mark.parametrize("problem, at", [("scalar-bound", "9e307"), ("scalar-bound", "1.7e308"),
                                             ("nearest-psd", "9e307,9e307,0"), ("corr-matrix", "9e307,9e307,9e307")])
    def test_huge_finite_point_fails_the_audit(self, problem, at):
        # G(x) is finite, but (X + X^T)/2 overflowed and eig_sym's error escaped main as a traceback;
        # run as a process, since the hooks' own overflow warnings are errors under pytest: they are printed
        # (problems.py), none from the audit's own arithmetic (model.py)
        proc = subprocess.run([sys.executable, "-m", "nsdpen", "check", "--problem", problem, "--at", at],
                              capture_output=True, text=True)
        assert proc.returncode == cli.EXIT_AUDIT_FAILED
        assert "Traceback" not in proc.stderr and "derivative audit" in proc.stdout
        assert "nsdpen/model.py" not in proc.stderr

    def test_unknown_problem_exit(self):
        assert run_main(["check", "--problem", "nope"]) == 65

    def test_bad_gamma_exit(self):
        assert run_main(["check", "--problem", "scalar-bound", "--gamma", "-1"]) == 64

    @pytest.mark.parametrize("gamma", ["inf", "nan"])
    def test_non_finite_gamma_exit(self, gamma, capsys):
        code, out = run_main(["check", "--problem", "scalar-bound", "--gamma", gamma], capsys)
        assert code == 64
        assert "gamma" in out.err

    @pytest.mark.parametrize("problem, point", [
        ("scalar-bound", "nan"), ("scalar-bound", "inf"), ("scalar-bound", "-inf"), ("nearest-psd", "0.5,nan,0.5"),
    ])
    def test_non_finite_point_exit(self, problem, point, capsys):
        code, out = run_main(["check", "--problem", problem, f"--at={point}"], capsys)
        assert code == 64
        assert "non-finite" in out.err

    @pytest.mark.parametrize("problem, point, field, value", [
        ("scalar-bound", "1e154", "stationarity", 2e154),  # ||grad f||^2 overflows
        ("equality-degenerate", "1e80", "feasibility_u", 1e160),  # ||g||^2 overflows
        ("corr-matrix", "1e155,1e155,0", "feasibility_u", 2**0.5 * 1e155),  # so does eig_sym's ||G(x)||_F^2
    ])
    def test_huge_point_residuals_finite(self, problem, point, field, value, tmp_path, capsys):
        # a norm whose square overflows printed inf, or raised under error::RuntimeWarning; the audit's
        # norms overflowed too, so grad_f failed with rel.err=inf
        path = tmp_path / "c.json"
        code, out = run_main(["check", "--problem", problem, "--at", point, "--json", str(path)], capsys)
        doc = json.loads(path.read_text())
        assert code == 0 and doc["audit"]["passed"] is True, out.out
        assert doc["residuals"][field] == pytest.approx(value, rel=1e-15)
        assert "inf" not in out.out

    def test_no_matrix_block_problem(self, tmp_path):
        path = tmp_path / "c.json"
        code = run_main(["check", "--problem", "equality-degenerate", "--at", "0.5",
                         "--gamma", "2", "--json", str(path)])
        assert code == 0
        doc = json.loads(path.read_text())
        assert doc["multipliers"]["Z"] == {"dim": 0, "lower": []}
        # y = -gamma * g(0.5) = -2 * 0.25
        assert doc["multipliers"]["y"] == [-0.5]
        assert doc["residuals"]["complementarity"] == 0.0
