"""Run the outer penalty method on every corpus problem, under its known-good
``CorpusEntry.config``, and print a summary.

Usage: python scripts/run_corpus.py [--problem NAME]
"""

import argparse

import numpy as np

from nsdpen import driver, problems


def run_one(name):
    entry = problems.get_problem(name)
    report = driver.solve(entry.problem, entry.config, b_count=entry.b_count_at_solution)
    final = report.final
    print(f"\n== {name}: {report.final_status} in {len(report.iterates)} outer iterations "
          f"({report.wall_time_sec:.3f}s)")
    print(f"   {'k':>3} {'gamma':>10} {'delta':>10} {'u':>10} {'stat':>10} "
          f"{'comp':>10} {'2nd-ord':>9} {'dimS':>4}")
    for rec in report.iterates:
        if rec.k % 5 == 0 or rec.k == len(report.iterates):
            print(f"   {rec.k:>3} {rec.gamma:>10.2e} {rec.delta:>10.2e} {rec.u:>10.2e} "
                  f"{rec.stationarity:>10.2e} {rec.complementarity:>10.2e} "
                  f"{rec.second_order:>9.2e} {rec.subspace_dim:>4}")
    print(f"   final x = {np.array2string(final.x, precision=6)}")
    if entry.known_solution is not None:
        err = np.linalg.norm(final.x - entry.known_solution)
        print(f"   distance to known solution: {err:.3e}")
    if final.y.size:
        print(f"   y = {np.array2string(final.y, precision=6)}")
    if final.Z.size:
        print(f"   Z = {np.array2string(final.Z, precision=6)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--problem", default=None, choices=problems.list_problems())
    args = parser.parse_args()
    names = [args.problem] if args.problem else problems.list_problems()
    for name in names:
        run_one(name)


if __name__ == "__main__":
    main()
