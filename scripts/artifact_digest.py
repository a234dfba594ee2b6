"""Print one SHA-256 per artifact a change can claim to leave bit-identical.

For each corpus problem, through ``nsdpen.cli.main`` with the problem's
known-good config: the ``solve`` stdout, its ``--report`` document without
``wall_time_sec``, its ``--trace``, the ``check`` stdout and its ``--json``
document.  For the benchmark's generated families (``bench/families.py``,
imported read-only) at psd d = 5, 12 and ball d = 4, 8, seeds 1, 2 and 7,
under the benchmark's family config: the final status, detail and b_count
of ``nsdpen.solve`` and every field of every iterate record, floats and
arrays by their bits.  The same records of psd d = 5 and ball d = 4, seeds
1, 2 and 7, and of psd d = 12, seed 7, with both second-derivative hooks left
out (``hess_f=None, d2G=None, fd_second_order=True``), cover the synthesized
second derivatives.

Run it on two checkouts and diff the outputs:

    PYTHONPATH=src python scripts/artifact_digest.py > digests.txt
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from nsdpen import PenaltyConfig, cli, problems, solve

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import families

# bench/run.py's FAMILY_CONFIG
FAMILY_CONFIG = PenaltyConfig(tol_feas=1e-4, tol_opt=1e-6, max_outer=40)
FAMILY_CASES = [("psd", 5), ("psd", 12), ("ball", 4), ("ball", 8)]
SEEDS = (1, 2, 7)
SYNTHESIZED_CASES = [("psd", 5, SEEDS), ("ball", 4, SEEDS), ("psd", 12, (7,))]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_cli(argv) -> bytes:
    """The stdout of ``cli.main(argv)``, which must exit 0."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        sys.exit(f"error: nsdpen {' '.join(argv)} exited {code}")
    return out.getvalue().encode()


def corpus_digests(name: str, tmp: Path) -> dict:
    report, trace, check = tmp / f"{name}.json", tmp / f"{name}.jsonl", tmp / f"{name}-check.json"
    solve_out = run_cli(["solve", "--problem", name, "--report", str(report), "--trace", str(trace)])
    doc = json.loads(report.read_text())
    del doc["wall_time_sec"]
    check_out = run_cli(["check", "--problem", name, "--json", str(check)])
    return {"solve.stdout": solve_out, "report": json.dumps(doc, sort_keys=True).encode(), "trace": trace.read_bytes(),
            "check.stdout": check_out, "check.json": check.read_bytes()}


def value_bytes(value) -> bytes:
    """A record field by its bits: an array's dtype, shape and data, a float's hex, anything else its repr."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype}{value.shape}".encode() + np.ascontiguousarray(value).tobytes()
    if isinstance(value, float):
        return value.hex().encode()
    return repr(value).encode()


def family_records(kind: str, d: int, seed: int, synthesized: bool = False) -> bytes:
    prob = families.FAMILIES[kind](d, np.random.default_rng(seed)).problem
    if synthesized:
        prob = dataclasses.replace(prob, hess_f=None, d2G=None, fd_second_order=True)
    report = solve(prob, FAMILY_CONFIG)
    parts = [value_bytes(v) for v in (report.final_status, report.detail, report.b_count)]
    for rec in report.iterates:
        parts += [field.name.encode() + b"=" + value_bytes(getattr(rec, field.name))
                  for field in dataclasses.fields(rec)]
    return b"\n".join(parts)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for name in problems.list_problems():
            for artifact, data in corpus_digests(name, Path(tmp)).items():
                print(digest(data), f"corpus/{name}/{artifact}")
    for kind, d in FAMILY_CASES:
        for seed in SEEDS:
            print(digest(family_records(kind, d, seed)), f"family/{kind}-d{d}/seed-{seed}")
    for kind, d, seeds in SYNTHESIZED_CASES:
        for seed in seeds:
            records = family_records(kind, d, seed, synthesized=True)
            print(digest(records), f"family/{kind}-d{d}-synthesized/seed-{seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
