"""Continuity of the derivative of X -> [X]+^3 as an eigenvalue crosses zero.

Sweeps X_k = diag(1, s/k, -1) for s = +-1 toward X = diag(1, 0, -1) and
prints the worst operator gap over a fixed grid of unit directions.  The gap
decays like 1/k even though the middle eigenvalue changes classification.
"""

import numpy as np

from nsdpen import matfun


def direction_grid():
    grid = []
    for i in range(3):
        for j in range(i, 3):
            E = np.zeros((3, 3))
            E[i, j] = E[j, i] = 1.0
            grid.append(E / np.linalg.norm(E))
    grid.append(np.ones((3, 3)) / 3.0)
    return grid


def main():
    grid = direction_grid()
    dec_limit = matfun.eig_sym(np.diag([1.0, 0.0, -1.0]))
    print(f"{'k':>10} {'gap (+1/k)':>14} {'gap (-1/k)':>14}")
    for e in range(1, 8):
        k = 10**e
        gaps = []
        for sign in (+1.0, -1.0):
            dec_k = matfun.eig_sym(np.diag([1.0, sign / k, -1.0]))
            gaps.append(max(
                np.linalg.norm(matfun.dq_apply(dec_k, H) - matfun.dq_apply(dec_limit, H))
                for H in grid
            ))
        print(f"{k:>10d} {gaps[0]:>14.6e} {gaps[1]:>14.6e}")


if __name__ == "__main__":
    main()
