"""Benchmark of nsdpen's solve path, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke [--trace 0|1]

The benchmark drives nsdpen from outside through its public functions, in
one process with BLAS pinned to one thread, as a closed loop: one solve
starts when the previous one has finished.

Workloads:

* ``corpus-cli``: every registered problem through ``nsdpen.cli.main``,
  ``solve`` with report and trace and then ``check``, in a seeded order.
  n <= 3 and d <= 2, so Python overhead in the CLI, ``eig_sym`` and
  ``tr_minimize`` dominates; the only workload with equality constraints
  and inline certificates (known ``b_count``).
* ``psd-affine-d12``: nearest PSD matrix at d = 12 (n = 78) through
  ``nsdpen.solve``.  G is affine (d2G = 0) and ``b_count`` is estimated:
  Hessian assembly and certificates dominate.
* ``ball-nonaffine-d8``: nearest matrix in the spectral-norm ball at d = 8
  (n = 36).  G = I - X^2 keeps the d2G contraction live, so a shortcut that
  holds only for affine G must leave it unchanged.

With ``--trace 0`` the loop runs untraced for ``--seconds`` and the result
holds the end-to-end metrics.  The speed of a shared host can drift by up
to about 1.7x within seconds (seen on a 2-vCPU Xeon VM, in process CPU time
as well as wall time), so every timed round and every set-up is bracketed by a
short fixed calibration kernel, and its time is rescaled to the speed at
which that kernel takes ``CALIBRATION_UNIT_S`` per unit: the time metrics
are seconds at that reference speed.  The unscaled figures are printed on
the text lines above the result.  With ``--trace 1`` a fixed amount of work,
set by the workload and ``--seconds``, runs in pairs of one untraced and
one traced round; the result holds the per-layer metrics of the traced
rounds and the traced over untraced wall time.  Every solve is checked
against a reference.  ``--smoke`` runs one corpus pass and the families at
d = 3, 4, 5 once each.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# pin BLAS before numpy is imported: the OpenBLAS build allows 64 threads
# and the benchmark measures a single-threaded solve
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import time

T_START = time.perf_counter()

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np
import scipy

import nsdpen
from nsdpen import cli, problems

if SRC not in Path(nsdpen.__file__).resolve().parents:
    sys.exit(f"error: nsdpen was imported from {nsdpen.__file__}, not from {SRC}")

import families
from tracer import Tracer

# final X(x), or x for the corpus, must lie this close to the reference
# (Frobenius norm); observed distances are below 1e-4
REFERENCE_TOL = 1e-3

# known-good settings of the corpus problems, copied from
# scripts/run_corpus.py so that the benchmark's inputs stay fixed
CORPUS_FLAGS = {
    "scalar-bound": ["--tol-feas", "3e-5", "--tol-opt", "1e-6", "--max-outer", "40"],
    "nearest-psd": ["--tol-feas", "9e-5", "--tol-opt", "1e-6", "--max-outer", "40"],
    "equality-degenerate": ["--theta", "2", "--tol-feas", "1e-8", "--tol-opt", "1e-6", "--max-outer", "50"],
    "corr-matrix": ["--tol-feas", "1e-4", "--tol-opt", "1e-6", "--max-outer", "40"],
}

FAMILY_CONFIG = nsdpen.PenaltyConfig(tol_feas=1e-4, tol_opt=1e-6, max_outer=40)

SETUP_SAMPLES = 5

# time of one calibration unit at the reference speed: about its median over
# fifteen runs on a 2-vCPU Xeon VM; the time metrics are rescaled to it
CALIBRATION_UNIT_S = 1.07e-4

_CAL_RNG = np.random.default_rng(0)
_CAL_SMALL = _CAL_RNG.standard_normal((12, 12))
_CAL_SMALL = _CAL_SMALL + _CAL_SMALL.T
_CAL_LARGE = _CAL_RNG.standard_normal((78, 78))


def calibration_unit() -> float:
    """The mix a solve spends its time on: a small eigendecomposition, dense products, interpreted loops."""
    w, V = np.linalg.eigh(_CAL_SMALL)
    M = (V * np.maximum(w, 0.0)) @ V.T
    _CAL_LARGE @ _CAL_LARGE
    acc = 0.0
    for i in range(12):
        for j in range(i, 12):
            acc += M[i, j] * M[j, i]
    return acc


def calibrate(units: int) -> float:
    """Wall time of one calibration unit now, averaged over ``units`` units."""
    t0 = time.perf_counter()
    for _ in range(units):
        calibration_unit()
    return (time.perf_counter() - t0) / units


@dataclass
class Outcome:
    solve_s: list = field(default_factory=list)  # wall time of each solve call
    attempted: int = 0
    failures: list = field(default_factory=list)

    def add(self, other: "Outcome"):
        self.solve_s += other.solve_s
        self.attempted += other.attempted
        self.failures += other.failures


class Corpus:
    """One round is one pass over the registered problems, in a seeded order."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.names = problems.list_problems()
        self.known = {name: problems.get_problem(name).known_solution for name in self.names}

    def prepare(self, tracer=None) -> Outcome:
        return Outcome()

    def warm_up(self) -> Outcome:
        return self.round(0)

    def round(self, k: int, tracer=None) -> Outcome:
        out = Outcome()
        for name in np.random.default_rng([self.seed, k]).permutation(self.names):
            report, trace = self.workdir / f"{name}.json", self.workdir / f"{name}.jsonl"
            argv = ["solve", "--problem", name, *CORPUS_FLAGS[name], "--report", str(report), "--trace", str(trace)]
            with contextlib.redirect_stdout(io.StringIO()):
                t0 = time.perf_counter()
                code = cli.main(argv)
                out.solve_s.append(time.perf_counter() - t0)
                check = cli.main(["check", "--problem", name])
            out.attempted += 1
            if code != 0 or check != 0:
                out.failures.append(f"{name}: solve exit {code}, check exit {check}")
                continue
            x = np.asarray(json.loads(report.read_text())["final"]["x"])
            err = float(np.linalg.norm(x - self.known[name]))
            if not err <= REFERENCE_TOL:
                out.failures.append(f"{name}: final x is {err:.3e} from the known solution")
            if tracer is not None:
                tracer.counters["cli.bytes_written"] += report.stat().st_size + trace.stat().st_size
        return out


class Family:
    """A pool of generated instances; one round solves the next instance."""

    def __init__(self, kind: str, d: int, seed: int, pool: int):
        rng = np.random.default_rng(seed)
        self.instances = [families.FAMILIES[kind](d, rng) for _ in range(pool)]
        first = self.instances[0].problem
        self.audit_points = [first.start_point, first.start_point + rng.standard_normal(first.n)]
        self.small = families.FAMILIES[kind](3, rng)

    def prepare(self, tracer=None) -> Outcome:
        """Audit the hooks of the first instance at its start and at a random point."""
        out = Outcome()
        prob = self.instances[0].problem
        if tracer is not None:
            prob = tracer.instrument(prob)
        for x in self.audit_points:
            audit = nsdpen.audit_derivatives(prob, x)
            out.attempted += 1
            if not audit.passed:
                out.failures.append(f"{prob.name}: derivative audit failed for {audit.failures}")
        return out

    def warm_up(self) -> Outcome:
        """Solve a d = 3 instance of the family, so that first-call costs fall before timing."""
        return self.solve(self.small)

    def round(self, k: int, tracer=None) -> Outcome:
        return self.solve(self.instances[k % len(self.instances)], tracer)

    def solve(self, inst, tracer=None) -> Outcome:
        prob = inst.problem if tracer is None else tracer.instrument(inst.problem)
        t0 = time.perf_counter()
        report = nsdpen.solve(prob, FAMILY_CONFIG)
        out = Outcome(solve_s=[time.perf_counter() - t0], attempted=1)
        if report.final_status != nsdpen.FEAS_OPT_REACHED:
            out.failures.append(f"{prob.name}: {report.final_status} {report.detail}")
        else:
            err = float(np.linalg.norm(inst.matrix(report.final.x) - inst.reference))
            if not err <= REFERENCE_TOL:
                out.failures.append(f"{prob.name}: final X is {err:.3e} from the reference")
        return out


WORKLOADS = {
    "corpus-cli": lambda seed, workdir: Corpus(seed, workdir),
    "psd-affine-d12": lambda seed, workdir: Family("psd", 12, seed, pool=8),
    "ball-nonaffine-d8": lambda seed, workdir: Family("ball", 8, seed, pool=32),
}

# seconds per round when the benchmark was written; they fix the amount of
# work of a traced run, so that its counts repeat exactly
ROUND_COST_S = {"corpus-cli": 0.4, "psd-affine-d12": 5.0, "ball-nonaffine-d8": 1.2}

# calibration units run between two timed rounds: about 4% of a round
CALIBRATION_SHARE = 0.04
# calibration units run after a set-up
SETUP_CALIBRATION_UNITS = 400


def calibration_units(workload: str) -> int:
    return max(100, round(CALIBRATION_SHARE * ROUND_COST_S[workload] / CALIBRATION_UNIT_S))


def smoke_workloads(seed: int, workdir: Path):
    yield Corpus(seed, workdir)
    for kind in ("psd", "ball"):
        for d in (3, 4, 5):
            yield Family(kind, d, seed, pool=1)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample(args) -> tuple:
    """Set-up time of a fresh process (imports, problem generation, references, audits, warm-up).

    Returns it with the calibration unit time, averaged over a calibration
    here before the process starts and one in the process after its set-up.
    """
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    before = calibrate(SETUP_CALIBRATION_UNITS)
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    return float(result["setup_s"]), 0.5 * (before + float(result["unit_s"]))


@dataclass
class Timing:
    """Per-round figures of a timed run, unscaled and at the reference speed."""
    solve_s: list = field(default_factory=list)  # mean solve call of each round
    scaled_solve_s: list = field(default_factory=list)
    wall_s: float = 0.0  # rounds only, without the calibration between them
    scaled_wall_s: float = 0.0


def timed_run(workloads, units: int, seconds=None):
    """Untraced closed loop: one round of every workload, or rounds until ``seconds`` have passed.

    Each round is bracketed by ``units`` calibration units; its times are
    rescaled by the mean speed of the two brackets.
    """
    total, timing = Outcome(), Timing()
    start = time.perf_counter()
    unit_s = calibrate(units)
    k = 0
    while True:
        for workload in workloads:
            t0 = time.perf_counter()
            out = workload.round(k)
            wall = time.perf_counter() - t0
            before, unit_s = unit_s, calibrate(units)
            scale = CALIBRATION_UNIT_S / (0.5 * (before + unit_s))
            timing.solve_s.append(statistics.fmean(out.solve_s))
            timing.scaled_solve_s.append(timing.solve_s[-1] * scale)
            timing.wall_s += wall
            timing.scaled_wall_s += wall * scale
            total.add(out)
        k += 1
        if seconds is None or time.perf_counter() - start >= seconds:
            return total, timing


def traced_run(workloads, rounds, tracer):
    """``rounds`` pairs of an untraced and a traced round, alternating which goes first."""
    total = Outcome()
    wall = {False: 0.0, True: 0.0}
    for k in range(rounds):
        for workload in workloads:
            for traced in ((False, True) if k % 2 == 0 else (True, False)):
                tracer.request += 1
                t0 = time.perf_counter()
                if traced:
                    with tracer.installed():
                        out = workload.round(k, tracer)
                else:
                    out = workload.round(k)
                wall[traced] += time.perf_counter() - t0
                total.add(out)
    return total, wall[True] / wall[False]


def environment() -> dict:
    cpu = ""
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as handle:
        cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), "")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="nsdpen benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one corpus pass and the families at d <= 5")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if (args.workload is None) == (not args.smoke):
        parser.error("give exactly one of --workload and --smoke")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer = Tracer() if args.trace else None
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        if args.smoke:
            workloads = list(smoke_workloads(args.seed, workdir))
        else:
            workloads = [WORKLOADS[args.workload](args.seed, workdir)]
        total = Outcome()
        with tracer.installed() if tracer else contextlib.nullcontext():
            for workload in workloads:
                total.add(workload.prepare(tracer))
        if not args.smoke:
            for workload in workloads:
                total.add(workload.warm_up())
        setup = [(time.perf_counter() - T_START, calibrate(SETUP_CALIBRATION_UNITS))]
        if args.setup_only:
            print(json.dumps({"setup_s": setup[0][0], "unit_s": setup[0][1]}))
            return 0

        if tracer:
            rounds = 1 if args.smoke else max(1, int(args.seconds // (2 * ROUND_COST_S[args.workload])))
            out, overhead = traced_run(workloads, rounds, tracer)
            total.add(out)
            metrics = tracer.metrics()
            metrics["trace.overhead_ratio"] = (overhead, "ratio")
        else:
            if not args.smoke:
                setup += [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            units = 1 if args.smoke else calibration_units(args.workload)
            out, timing = timed_run(workloads, units, None if args.smoke else args.seconds)
            total.add(out)
            setup_s = [s for s, _ in setup]
            print(f"unscaled setup_s {statistics.median(setup_s):.6g} s,"
                  f" solve_s_p50 {statistics.median(timing.solve_s):.6g} s,"
                  f" solves_per_s {len(out.solve_s) / timing.wall_s:.6g} 1/s;"
                  f" calibration unit {timing.wall_s / timing.scaled_wall_s * CALIBRATION_UNIT_S:.4g} s"
                  f" on average, {CALIBRATION_UNIT_S:.4g} s at the reference speed")
            metrics = {
                "setup_s": (statistics.median(s * CALIBRATION_UNIT_S / u for s, u in setup), "s"),
                "solve_s_p50": (statistics.median(timing.scaled_solve_s), "s"),
                "solves_per_s": (len(out.solve_s) / timing.scaled_wall_s, "1/s"),
                "peak_rss_mb": (peak_rss_mb(), "MB"),
            }

    if tracer:
        out_dir = ROOT / ".bench_out"
        out_dir.mkdir(exist_ok=True)
        tracer.write_spans(out_dir / f"spans-{args.workload or 'smoke'}-seed{args.seed}.jsonl")

    print("env " + json.dumps(environment(), sort_keys=True))
    for failure in total.failures:
        print(f"FAILED {failure}")
    print(f"failed_ratio {len(total.failures) / total.attempted:.6g} ratio"
          f" ({len(total.failures)} of {total.attempted} checked operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not total.failures,
        "attempted": total.attempted,
        "failed": len(total.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
