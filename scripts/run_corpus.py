"""Run the outer penalty method on every corpus problem, under its known-good
``CorpusEntry.config``, and print a summary.

Exits 1 if a problem does not end in ``FeasOptReached``, ends farther than
``REFERENCE_TOL`` from its known solution, or estimates a critical-subspace
dimension ``b_count`` other than its ``b_count_at_solution``; otherwise 0.

Usage: python scripts/run_corpus.py [--problem NAME]
"""

import argparse
import sys

import numpy as np

from nsdpen import driver, problems

# largest accepted distance of a final x from the known solution (the benchmark's tolerance too)
REFERENCE_TOL = 1e-3


def run_one(name) -> bool:
    """Solve and print one problem; True if it reached FeasOptReached within REFERENCE_TOL of its known solution
    and estimated its known b_count."""
    entry = problems.get_problem(name)
    report = driver.solve(entry.problem, entry.config)
    final = report.final
    print(f"\n== {name}: {report.final_status} in {len(report.iterates)} outer iterations "
          f"({report.wall_time_sec:.3f}s)")
    if report.detail:
        print(f"   {report.detail}")
    print(f"   b_count = {report.b_count} (b_count_at_solution = {entry.b_count_at_solution})")
    if final is None:  # the first inner solve failed, so no iterate was recorded
        return False
    print(f"   {'k':>3} {'gamma':>10} {'delta':>10} {'u':>10} {'stat':>10} "
          f"{'comp':>10} {'2nd-ord':>9} {'dimS':>4}")
    for rec in report.iterates:
        if rec.k % 5 == 0 or rec.k == len(report.iterates):
            print(f"   {rec.k:>3} {rec.gamma:>10.2e} {rec.delta:>10.2e} {rec.u:>10.2e} "
                  f"{rec.stationarity:>10.2e} {rec.complementarity:>10.2e} "
                  f"{rec.second_order:>9.2e} {rec.subspace_dim:>4}")
    print(f"   final x = {np.array2string(final.x, precision=6)}")
    ok = report.final_status == driver.FEAS_OPT_REACHED and report.b_count == entry.b_count_at_solution
    if entry.known_solution is not None:
        err = np.linalg.norm(final.x - entry.known_solution)
        print(f"   distance to known solution: {err:.3e}")
        ok = ok and err <= REFERENCE_TOL
    if final.y.size:
        print(f"   y = {np.array2string(final.y, precision=6)}")
    if final.Z.size:
        print(f"   Z = {np.array2string(final.Z, precision=6)}")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", default=None, choices=problems.list_problems())
    args = parser.parse_args()
    names = [args.problem] if args.problem else problems.list_problems()
    failed = [name for name in names if not run_one(name)]
    if failed:
        print(f"\nFAILED: {', '.join(failed)} (not {driver.FEAS_OPT_REACHED} within {REFERENCE_TOL:g} "
              "of the known solution, or a b_count other than b_count_at_solution)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
