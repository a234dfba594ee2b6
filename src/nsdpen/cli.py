"""Batch command-line front end.

Two subcommands: ``solve`` runs the outer penalty method on a registered
problem and writes a JSON report plus an optional JSONL iterate trace;
``check`` audits the derivative hooks of a problem at a point and reports
optimality residuals with recovered multipliers.

Exit codes: 0 success, 1 failed derivative audit or residuals that could
not be evaluated (check), 2 iteration cap reached, 3 inner-solver failure
or infeasible start, 64 bad flags, 65 unknown problem, 74 an output file
could not be written.  Every document is strict JSON, with a non-finite
number written as ``null``, and is written atomically (temp file + rename);
identical flags give byte-identical payloads apart from ``wall_time_sec``.
"""

import argparse
import dataclasses
import functools
import json
import math
import os
import sys

import numpy as np

from . import driver, model, optimality, penalty, problems
from .errors import (InvalidInputError, StartNotFeasibleError, UnknownProblemError, real_array, require_instance,
                     require_int)
from .matfun import _triangles

SCHEMA_VERSION = "4"

# the solve flags: every PenaltyConfig field, as the report's config section holds them
CONFIG_FLAGS = tuple(field.name for field in dataclasses.fields(driver.PenaltyConfig))
_TRACE_ROW = tuple(field.name for field in dataclasses.fields(driver.IterateRecord))
REPORT_ROW = ("k", "gamma", "delta", "u", "stationarity", "complementarity", "second_order",
              "subspace_dim", "f_value", "script_F_value", "xhat_branch")

EXIT_OK = 0
EXIT_AUDIT_FAILED = 1
EXIT_MAX_OUTER = 2
EXIT_SOLVE_FAILED = 3
EXIT_USAGE = 64
EXIT_UNKNOWN_PROBLEM = 65
EXIT_IO_ERROR = 74


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def sym_to_lower(Z: np.ndarray) -> dict:
    """Serialize a symmetric (square) matrix as its row-major lower triangle."""
    Z = real_array("Z", Z)
    if Z.ndim != 2 or Z.shape[0] != Z.shape[1]:
        raise InvalidInputError(f"Z must be a square matrix, got shape {Z.shape}")
    d = Z.shape[0]
    return {"dim": d, "lower": Z[_triangles(d)[1]].tolist()}


def lower_to_sym(doc: dict) -> np.ndarray:
    """Rebuild the symmetric matrix from its serialized lower triangle: a dict holding an integer dim >= 0 and
    dim*(dim+1)/2 lower entries."""
    require_instance("doc", doc, dict)
    for key in ("dim", "lower"):
        if key not in doc:
            raise InvalidInputError(f"doc has no {key!r} entry")
    d = doc["dim"]
    require_int("dim", d, 0)
    lower = real_array("lower", doc["lower"])
    if lower.shape != (d * (d + 1) // 2,):
        raise InvalidInputError(f"a lower triangle of dim {d} needs dim*(dim+1)/2 entries, got shape {lower.shape}")
    rows, cols = _triangles(d)[1]
    Z = np.zeros((d, d))
    Z[rows, cols] = lower
    Z[cols, rows] = lower
    return Z


def _atomic_write(path: str, text: str):
    """Write through a temp file, made with the mode ``open`` gives (0o666 less the umask), and a
    rename; an OSError is raised again naming ``path``."""
    try:
        tmp = os.path.join(os.path.dirname(os.path.abspath(path)), f".tmp-{os.urandom(8).hex()}.json")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "w") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None


def _finite(value):
    """``value`` with each non-finite float replaced by ``None``, as ``JSON.stringify`` writes it; the rest as is."""
    if isinstance(value, dict):
        return {key: _finite(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_finite(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _dump_json(doc: dict, indent: int | None = 2) -> str:
    return json.dumps(_finite(doc), indent=indent, sort_keys=True, allow_nan=False) + "\n"


def _row(record, names) -> dict:
    """The named fields of a record as JSON values.

    A 1-D array becomes a list of floats, a 2-D array its ``sym_to_lower``
    form; every other value passes through unchanged.
    """
    row = {}
    for name in names:
        value = getattr(record, name)
        if isinstance(value, np.ndarray):
            value = [float(v) for v in value] if value.ndim == 1 else sym_to_lower(value)
        row[name] = value
    return row


def _report_document(report: driver.SolveReport) -> dict:
    final = report.final
    return {
        "schema_version": SCHEMA_VERSION,
        "problem": report.problem,
        "config": dataclasses.asdict(report.config),
        "iterations": [_row(rec, REPORT_ROW) for rec in report.iterates],
        "final_status": report.final_status,
        "detail": report.detail,
        "b_count": report.b_count,
        "final": None if final is None else _row(final, ("x", "y", "Z", "f_value", "u")),
        "wall_time_sec": report.wall_time_sec,
    }


def _add_solve_parser(sub):
    p = sub.add_parser("solve", help="run the penalty method on a registered problem")
    p.add_argument("--problem", required=True)
    for field in dataclasses.fields(driver.PenaltyConfig):  # a flag left out keeps the CorpusEntry.config field
        p.add_argument("--" + field.name.replace("_", "-"), type=field.type)
    p.add_argument("--trace", default=None, help="JSONL path, one iterate record per line")
    p.add_argument("--report", default=None, help="JSON report path")


def _add_check_parser(sub):
    p = sub.add_parser("check", help="audit derivatives and report residuals at a point")
    p.add_argument("--problem", required=True)
    p.add_argument("--at", default="start", help='comma-separated point or "start"')
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--json", default=None, help="write the audit document to this path")


def _cmd_solve(args) -> int:
    entry = problems.get_problem(args.problem)
    try:
        given = {name: getattr(args, name) for name in CONFIG_FLAGS if getattr(args, name) is not None}
        cfg = dataclasses.replace(entry.config, **given)
    except InvalidInputError as exc:
        raise _UsageError(str(exc)) from None

    report = driver.solve(entry.problem, cfg)

    if args.trace:
        _atomic_write(args.trace, "".join(_dump_json(_row(rec, _TRACE_ROW), indent=None) for rec in report.iterates))
    if args.report:
        _atomic_write(args.report, _dump_json(_report_document(report)))

    final = report.final
    print(f"{report.problem}: {report.final_status} after {len(report.iterates)} outer iterations"
          + (f" ({report.detail})" if report.detail else ""))
    if final is not None:
        print(f"  u={final.u:.3e} stationarity={final.stationarity:.3e} "
              f"complementarity={final.complementarity:.3e} f={final.f_value:.10g}")
    if report.final_status == driver.FEAS_OPT_REACHED:
        return EXIT_OK
    if report.final_status == driver.MAX_OUTER:
        return EXIT_MAX_OUTER
    return EXIT_SOLVE_FAILED


def _parse_point(text: str, entry) -> np.ndarray:
    if text.strip() == "start":
        return entry.problem.start_point
    try:  # every field is required: an empty one does not parse
        x = real_array("point", [float(tok) for tok in text.split(",")])
    except ValueError:
        raise _UsageError(f"cannot parse point {text!r}") from None
    if x.size != entry.problem.n:
        raise _UsageError(f"point has {x.size} entries, problem {entry.problem.name!r} needs {entry.problem.n}")
    if not np.isfinite(x).all():
        raise _UsageError(f"point {text!r} has non-finite entries")
    return x


def _cmd_check(args) -> int:
    entry = problems.get_problem(args.problem)
    if not 0 < args.gamma < np.inf:
        raise _UsageError("gamma must be positive and finite")
    x = _parse_point(args.at, entry)

    audit = model.audit_derivatives(entry.problem, x)
    try:  # as in the audit, a hook that fails at the point (or warns, under an error filter) is reported
        at = penalty.penalty_at(entry.problem, x, penalty.special_params("script_F", args.gamma))
        res, mult = optimality.evaluate_residuals(at, entry.b_count_at_solution)
        failure = None
    except Exception as exc:
        res = mult = None
        failure = f"{type(exc).__name__}: {exc}"
    print(f"derivative audit at {list(map(float, x))}:")
    for hook, err in sorted(audit.errors.items()):
        flag = "FAIL" if hook in audit.failures else "ok"
        print(f"  {hook:8s} rel.err={err:.3e}  [{flag}]")
    print(f"residuals (gamma={args.gamma:g}):")
    if failure is not None:
        print(f"  not evaluated: {failure}")
    else:
        print(f"  stationarity={res.stationarity:.6e} u={res.feasibility_u:.6e} "
              f"complementarity={res.complementarity:.6e}")
        print(f"  second_order={res.second_order:.6e} subspace_dim={res.subspace_dim}")

    if args.json:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "problem": entry.problem.name,
            "at": [float(v) for v in x],
            "gamma": args.gamma,
            "audit": {
                "errors": audit.errors,
                "step": audit.step,
                "passed": audit.passed,
                "failures": sorted(audit.failures),
            },
            "residuals": None if res is None else _row(res, [field.name for field in dataclasses.fields(res)]),
            "multipliers": None if mult is None else _row(mult, ("y", "Z")),
        }
        _atomic_write(args.json, _dump_json(doc))
    return EXIT_OK if audit.passed and failure is None else EXIT_AUDIT_FAILED


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built once per process: parsing keeps no state between calls."""
    parser = _Parser(prog="nsdpen", description="penalty-method toolkit for nonlinear SDPs")
    sub = parser.add_subparsers(dest="command", required=True)
    _add_solve_parser(sub)
    _add_check_parser(sub)
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_check(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except UnknownProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_UNKNOWN_PROBLEM
    except StartNotFeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE_FAILED
    except OSError as exc:  # from _atomic_write: the only file access of a run
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_IO_ERROR


if __name__ == "__main__":
    sys.exit(main())
