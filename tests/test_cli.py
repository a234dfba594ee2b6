import dataclasses
import json
import os
import stat
import subprocess
import sys

import numpy as np
import pytest

from nsdpen import cli, driver, optimality, penalty, problems

SOLVE_FLAGS = ["--tol-feas", "3e-5", "--tol-opt", "1e-6", "--max-outer", "40"]


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

    def test_unknown_problem_exit(self):
        assert run_main(["solve", "--problem", "nope"]) == 65

    def test_bad_eta_exit(self, capsys):
        code, out = run_main(["solve", "--problem", "scalar-bound", "--eta", "1.5"], capsys)
        assert code == 64
        assert "usage" in out.err

    def test_unparseable_flag_exit(self):
        assert run_main(["solve", "--problem", "scalar-bound", "--max-outer", "xyz"]) == 64

    @pytest.mark.parametrize("flag, value", [("--gamma0", "inf"), ("--tol-feas", "nan"), ("--theta", "inf")])
    def test_non_finite_config_exit(self, flag, value, capsys):
        code, out = run_main(["solve", "--problem", "scalar-bound", flag, value], capsys)
        assert code == 64
        assert "must be finite" in out.err

    def test_missing_required_flag_exit(self):
        assert run_main(["solve"]) == 64

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
        report = tmp_path / "r.json"
        run_main(["solve", "--problem", "scalar-bound", "--report", str(report)])
        config = json.loads(report.read_text())["config"]
        defaults = driver.PenaltyConfig()
        assert config == {name: getattr(defaults, name) for name in cli.CONFIG_FLAGS}

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


def _strip_wall_time(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"wall_time_sec"' not in line)


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            report = tmp_path / f"r{tag}.json"
            trace = tmp_path / f"t{tag}.jsonl"
            cmd = [sys.executable, "-m", "nsdpen", "solve", "--problem", "scalar-bound",
                   *SOLVE_FLAGS, "--report", str(report), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append((report.read_bytes(), trace.read_bytes()))
        (r1, t1), (r2, t2) = outs
        assert _strip_wall_time(r1.decode()) == _strip_wall_time(r2.decode())
        assert r1 != r2 or json.loads(r1)["wall_time_sec"] == json.loads(r2)["wall_time_sec"]
        assert t1 == t2  # traces carry no timing at all


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

    def test_wrong_dimension_exit(self):
        assert run_main(["check", "--problem", "scalar-bound", "--at", "1,2"]) == 64

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
