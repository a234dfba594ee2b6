import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdpen import matfun
from nsdpen.errors import InvalidInputError

from conftest import eig_classes, q_cube, random_orthogonal, random_sym, rng, sym_from_spectrum


class TestEigSym:
    def test_diagonal_input_sorted_descending(self):
        dec = matfun.eig_sym(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(dec.values, [3.0, 2.0, 1.0])
        # permutation columns with nonnegative leading entries
        assert np.allclose(np.abs(dec.vectors), np.eye(3)[:, [0, 2, 1]])
        assert np.all(dec.vectors[dec.vectors != 0] > 0)

    def test_two_by_two_exchange(self):
        dec = matfun.eig_sym([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(dec.values, [1.0, -1.0])
        s = 1.0 / np.sqrt(2.0)
        assert np.allclose(dec.vectors[:, 0], [s, s])
        assert np.allclose(dec.vectors[:, 1], [s, -s])

    def test_reconstruction_random(self):
        X = random_sym(rng(5), 5)
        dec = matfun.eig_sym(X)
        R = (dec.vectors * dec.values) @ dec.vectors.T
        assert np.linalg.norm(R - X) <= 1e-10 * (1 + dec.source_norm)
        assert np.linalg.norm(dec.vectors.T @ dec.vectors - np.eye(5)) <= 1e-12 * 5

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            matfun.eig_sym([[np.nan, 0.0], [0.0, 1.0]])

    def test_non_square_rejected(self):
        with pytest.raises(InvalidInputError):
            matfun.eig_sym(np.zeros((2, 3)))

    def test_huge_finite_entries_accepted(self):
        # X + X^T overflowed to inf before the halving, and eig_sym rejected this finite matrix
        X = np.array([[0.0, 1e308], [1e308, 0.0]])
        assert np.array_equal(matfun.symmetrize(X), X)
        assert matfun.eig_sym(X).values.tolist() == [1e308, -1e308]

    @pytest.mark.parametrize("X", [[[5e-324, 1.5e-323], [1.5e-323, 0.0]], [[5e-324, 1.5e-323], [1.5e-323, 1e308]]],
                             ids=["subnormal", "subnormal-and-huge"])
    def test_symmetric_input_returned_unchanged(self, X):
        # halving first rounded the odd multiples of 2^-1074 off: the subnormal matrix came back as
        # [[0, 2e-323], [2e-323, 0]]; an overflowing sum elsewhere is halved first there only
        X = np.array(X)
        assert matfun.symmetrize(X).tobytes() == X.tobytes()

    def test_stack_symmetrized_entry_by_entry(self):
        # the transpose swaps the last two axes only, so each (d, d) entry of a stack is symmetrized in place
        X = rng(6).normal(size=(4, 3, 3))
        assert np.array_equal(matfun.symmetrize(X), np.stack([matfun.symmetrize(A) for A in X]))
        assert np.array_equal(matfun.symmetrize(X), 0.5 * (X + X.transpose(0, 2, 1)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sign_rule_matches_column_loop(self, seed):
        # reference: the column-by-column form of the sign rule
        def loop_signs(P):
            P = P.copy()
            for j in range(P.shape[1]):
                nz = np.flatnonzero(np.abs(P[:, j]) > 1e-12)
                k = nz[0] if nz.size else 0
                if P[k, j] < 0:
                    P[:, j] = -P[:, j]
            return P

        gen = rng(seed)
        # eigenvectors whose first entries are 0 or +-1e-13, below the sign
        # tolerance, so the rule must look further down; eigenvalue 2 is repeated
        Q = np.zeros((5, 5))
        Q[1:, 1:] = random_orthogonal(gen, 4)
        Q[0, 0] = 1.0
        Q[:, 1:] = Q[:, 1:] * np.where(gen.random(4) < 0.5, -1.0, 1.0)
        tilt = 1e-13 * np.array([1.0, -1.0])
        Q[0, 1:3] = tilt
        Q[1:, 0] = -Q[1:, 1:3] @ tilt  # keeps Q orthogonal to first order
        X = (Q * np.array([3.0, 2.0, 2.0, -1.0, 0.5])) @ Q.T
        X = 0.5 * (X + X.T)  # exactly symmetric: eig_sym decomposes this very matrix
        w, P = np.linalg.eigh(X)
        dec = matfun.eig_sym(X)
        assert np.array_equal(dec.values, w[::-1])
        assert np.array_equal(dec.vectors, loop_signs(P[:, ::-1]))
        assert np.sum(np.abs(dec.vectors[0]) <= 1e-12) >= 2  # the tiny leading entries survive eigh
        for col in dec.vectors.T:
            assert col[np.flatnonzero(np.abs(col) > 1e-12)[0]] > 0

    def test_deterministic(self):
        X = random_sym(rng(11), 4)
        a = matfun.eig_sym(X)
        b = matfun.eig_sym(X.copy())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.vectors, b.vectors)


class TestPsdMaps:
    def test_proj_diag(self):
        assert np.allclose(matfun.psd_part_from(matfun.eig_sym(np.diag([2.0, -3.0]))), np.diag([2.0, 0.0]))

    def test_proj_identity_on_psd(self):
        X = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.linalg.norm(matfun.psd_part_from(matfun.eig_sym(X)) - X) <= 1e-12

    def test_proj_exchange_matrix(self):
        # eigenvalues +-1; the positive part is the projector onto (1,1)/sqrt(2)
        P = matfun.psd_part_from(matfun.eig_sym([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_proj_result_psd(self):
        X = random_sym(rng(2), 6)
        P = matfun.psd_part_from(matfun.eig_sym(X))
        lo = np.linalg.eigvalsh(P)[0]
        assert lo >= -1e-10 * (1 + np.linalg.norm(X))

    def test_q_cube_diag(self):
        assert np.allclose(matfun.q_cube_from(matfun.eig_sym(np.diag([2.0, -1.0]))), np.diag([8.0, 0.0]))

    def test_q_cube_zero(self):
        assert np.allclose(matfun.q_cube_from(matfun.eig_sym(np.zeros((3, 3)))), 0.0)

    def test_q_cube_exchange_matrix(self):
        Q = matfun.q_cube_from(matfun.eig_sym([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(Q, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_q_cube_commutes_with_argument(self):
        X = random_sym(rng(3), 5, scale=2.0)
        Q = matfun.q_cube_from(matfun.eig_sym(X))
        assert np.linalg.norm(Q @ X - X @ Q) <= 1e-9 * (1 + np.linalg.norm(X) ** 4)

    def test_quartic_trace_values(self):
        assert matfun.quartic_trace_from(matfun.eig_sym(np.diag([1.0, -2.0]))) == pytest.approx(1.0)
        assert matfun.quartic_trace_from(matfun.eig_sym(-np.eye(3))) == 0.0
        assert matfun.quartic_trace_from(matfun.eig_sym([[0.0, 1.0], [1.0, 0.0]])) == pytest.approx(1.0)

    def test_quartic_trace_matches_spectrum(self):
        X = random_sym(rng(4), 6)
        w = np.linalg.eigvalsh(X)
        assert matfun.quartic_trace_from(matfun.eig_sym(X)) == pytest.approx(np.sum(np.maximum(w, 0) ** 4))

    def test_half_identity_with_spectral_abs(self):
        X = random_sym(rng(6), 5)
        lhs = matfun.psd_part_from(matfun.eig_sym(X))
        w, V = np.linalg.eigh(X)
        rhs = 0.5 * (X + (V * np.abs(w)) @ V.T)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(X))


def table_coeff(w, tol):
    """The table of ``dq_coeff``'s docstring, filled entry by entry."""
    # numpy's power may round one element differently depending on the
    # length and the strides of the array it sits in, so the cubes are taken
    # as dq_coeff takes them: over a copy of the positive eigenvalues
    sq, cube = w**2, np.zeros_like(w)
    cube[w > tol] = w[w > tol] ** 3
    C = np.zeros((w.size, w.size))
    for i, a in enumerate(w):
        for j, b in enumerate(w):
            if a > tol and b > tol:
                C[i, j] = sq[i] + a * b + sq[j]
            elif a > tol and abs(b) <= tol:
                C[i, j] = sq[i]
            elif abs(a) <= tol and b > tol:
                C[i, j] = sq[j]
            elif a > tol and b < -tol:
                C[i, j] = cube[i] / (a - b)
            elif a < -tol and b > tol:
                C[i, j] = cube[j] / (b - a)
    return C


class TestClassify:
    """The split of the spectrum at ``default_zero_tol`` that ``dq_coeff`` makes."""

    def test_three_way_split(self):
        # 1e-15 lies below the tolerance 3.6e-10, so it counts as zero
        dec = matfun.EigenDecomp(np.array([3.0, 1e-15, -2.0]), np.eye(3), 3.6)
        assert np.array_equal(matfun.dq_coeff(dec), [[27.0, 9.0, 27.0 / 5.0], [9.0, 0.0, 0.0], [27.0 / 5.0, 0.0, 0.0]])

    def test_all_positive(self):
        dec = matfun.EigenDecomp(np.array([2.0, 1.0]), np.eye(2), 2.2)
        assert np.array_equal(matfun.dq_coeff(dec), [[12.0, 7.0], [7.0, 3.0]])

    def test_all_zero(self):
        dec = matfun.EigenDecomp(np.zeros(2), np.eye(2), 0.0)
        assert np.array_equal(matfun.dq_coeff(dec), np.zeros((2, 2)))

    def test_default_tol_scaling(self):
        for source_norm, tol in ((0.0, 1e-12), (1e-3, 1e-12), (1.0, 1e-10), (1e4, 1e-6)):
            dec = matfun.EigenDecomp(np.array([1.0]), np.eye(1), source_norm)
            assert matfun.default_zero_tol(dec) == pytest.approx(tol, rel=1e-15)
        # 5e-7 is zero against the tolerance 1e-6 of a matrix of norm 1e4, positive against 1e-10
        big = matfun.EigenDecomp(np.array([1.0, 5e-7]), np.eye(2), 1e4)
        assert np.array_equal(matfun.dq_coeff(big), [[3.0, 1.0], [1.0, 0.0]])
        small = matfun.EigenDecomp(big.values, big.vectors, 1.0)
        assert np.array_equal(matfun.dq_coeff(small), table_coeff(big.values, 1e-10))
        assert matfun.dq_coeff(small)[1, 1] > 0

    @given(st.integers(0, 10**6))
    def test_matches_table(self, seed):
        # random spectra with exact zeros and eigenvalues at, just inside and
        # just outside the zero tolerance; the values are a reversed view, and
        # the coefficients must not depend on that layout
        gen = rng(seed)
        d = int(gen.integers(1, 9))
        w = gen.normal(size=d) * 10.0 ** gen.integers(-3, 4)
        source_norm = float(np.linalg.norm(w))
        tol = max(matfun.ABS_EIG_TOL, matfun.REL_EIG_TOL * source_norm)
        edge = tol * np.array([1.0, 1.0 - 2.0**-20, 1.0 + 2.0**-20])
        special = np.concatenate([[0.0], edge, -edge])
        pick = gen.random(d) < 0.5
        w[pick] = gen.choice(special, size=int(pick.sum()))
        dec = matfun.EigenDecomp(np.sort(w)[::-1], np.eye(d), source_norm)
        assert matfun.default_zero_tol(dec) == tol
        C = matfun.dq_coeff(dec)
        assert isinstance(C, np.ndarray) and C.shape == (d, d)
        assert np.array_equal(C, table_coeff(dec.values, tol))


class TestDqCoeff:
    def test_mixed_signs(self):
        assert np.allclose(matfun.dq_coeff(matfun.eig_sym(np.diag([1.0, -1.0]))), [[3.0, 0.5], [0.5, 0.0]])

    def test_zero_eigenvalue(self):
        assert np.allclose(matfun.dq_coeff(matfun.eig_sym(np.diag([1.0, 0.0]))), [[3.0, 1.0], [1.0, 0.0]])

    def test_negative_definite_gives_zero(self):
        assert np.allclose(matfun.dq_coeff(matfun.eig_sym(-np.eye(3))), 0.0)

    def test_coeff_symmetric_nonnegative_with_zero_blocks(self):
        gen = rng(7)
        X = sym_from_spectrum(gen, [2.0, 0.5, 0.0, -0.3, -2.0])
        dec = matfun.eig_sym(X)
        _, zero, neg = eig_classes(dec)
        C = matfun.dq_coeff(dec)
        assert np.array_equal(C, C.T)
        assert np.all(C >= 0)
        assert np.all(C[np.ix_(neg, neg)] == 0)
        assert np.all(C[np.ix_(zero, zero)] == 0)


class TestDqApply:
    def test_zero_matrix_derivative_vanishes(self):
        H = random_sym(rng(8), 3)
        assert np.allclose(matfun.dq_apply(matfun.eig_sym(np.zeros((3, 3))), H), 0.0)

    def test_indefinite_example_and_fd(self):
        X = np.diag([1.0, -1.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = matfun.dq_apply(matfun.eig_sym(X), H)
        assert np.allclose(out, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        t = 1e-5
        fd = (q_cube(X + t * H) - q_cube(X - t * H)) / (2 * t)
        assert np.linalg.norm(out - fd) <= 1e-8

    def test_positive_definite_polynomial_rule(self):
        # on PD input the cube is a plain polynomial with derivative
        # X^2 H + X H X + H X^2
        X = np.diag([2.0, 1.0])
        gen = rng(9)
        for _ in range(5):
            H = random_sym(gen, 2)
            out = matfun.dq_apply(matfun.eig_sym(X), H)
            ref = X @ X @ H + X @ H @ X + H @ X @ X
            assert np.linalg.norm(out - ref) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidInputError):
            matfun.dq_apply(matfun.eig_sym(np.eye(2)), np.eye(3))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_H_rejected(self, bad):
        with pytest.raises(InvalidInputError, match="^H has non-finite entries$"):
            matfun.dq_apply(matfun.eig_sym(np.eye(2)), np.array([[1.0, bad], [bad, 0.0]]))

    @given(st.integers(0, 10**6), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        gen = rng(seed)
        d = int(gen.integers(1, 6))
        dec = matfun.eig_sym(random_sym(gen, d))
        H1, H2 = random_sym(gen, d), random_sym(gen, d)
        lhs = matfun.dq_apply(dec, a * H1 + b * H2)
        rhs = a * matfun.dq_apply(dec, H1) + b * matfun.dq_apply(dec, H2)
        scale = np.linalg.norm(lhs) + np.linalg.norm(rhs)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + scale)

    def test_fd_consistency_well_separated(self):
        # central difference of the cube map at eigenvalue gaps >= 0.35
        gen = rng(10)
        t = 1e-5
        for _ in range(20):
            d = int(gen.integers(2, 7))
            values = np.sort(gen.uniform(-3, 3, size=d))[::-1]
            values += 0.35 * np.arange(d)[::-1]
            X = sym_from_spectrum(gen, values)
            H = random_sym(gen, d)
            out = matfun.dq_apply(matfun.eig_sym(X), H)
            fd = (q_cube(X + t * H) - q_cube(X - t * H)) / (2 * t)
            scale = 1 + np.linalg.norm(X) ** 3 * np.linalg.norm(H)
            assert np.linalg.norm(out - fd) <= 1e-6 * scale

    def test_continuity_at_coalescence(self):
        # X_k = diag(1, +-1/k, -1) -> diag(1, 0, -1); the operator gap on a
        # fixed grid of directions must shrink monotonically below 1e-6
        H_grid = []
        for i in range(3):
            for j in range(i, 3):
                E = np.zeros((3, 3))
                E[i, j] = E[j, i] = 1.0
                H_grid.append(E / np.linalg.norm(E))
        H_grid.append(np.ones((3, 3)) / 3.0)
        H_grid.append(random_sym(rng(12), 3) / np.linalg.norm(random_sym(rng(12), 3)))

        dec_limit = matfun.eig_sym(np.diag([1.0, 0.0, -1.0]))

        def gap(k, sign):
            dec_k = matfun.eig_sym(np.diag([1.0, sign / k, -1.0]))
            return max(
                np.linalg.norm(matfun.dq_apply(dec_k, H) - matfun.dq_apply(dec_limit, H))
                for H in H_grid
            )

        for sign in (+1.0, -1.0):
            gaps = [gap(10**e, sign) for e in range(1, 8)]
            assert all(b < a for a, b in zip(gaps, gaps[1:]))
            assert gaps[-1] < 1e-6

    def test_basis_invariance_repeated_eigenvalues(self):
        # rotate the eigenvector choice inside a repeated block: the operator
        # action must not change
        gen = rng(13)
        values = np.array([2.0, 2.0, -1.0])
        Q = random_orthogonal(gen, 3)
        X = (Q * values) @ Q.T
        dec = matfun.eig_sym(X)
        theta = 0.7
        R = np.eye(3)
        R[:2, :2] = [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        alt = matfun.EigenDecomp(dec.values, dec.vectors @ R, dec.source_norm)
        H = random_sym(gen, 3)
        out1 = matfun.dq_apply(dec, H)
        out2 = matfun.dq_apply(alt, H)
        assert np.linalg.norm(out1 - out2) <= 1e-10

    def test_matches_block_form_oracle(self):
        # independent construction: split off the nonzero eigenvalues mu and
        # apply the closed-form coefficient matrices
        #   A_ij = (|mu_i|^3 + mu_i^3 + |mu_j|^3 + mu_j^3)
        #          * (mu_i^2 + mu_i mu_j + mu_j^2) / (2 (|mu_i|^3 + |mu_j|^3))
        #   B    = diag((|mu| + mu) mu / 2)
        # acting on the compressed blocks of H
        gen = rng(14)
        for values in ([2.0, 1.0, 0.0, -1.5], [3.0, 0.0, 0.0, -0.5], [1.0, -1.0]):
            X = sym_from_spectrum(gen, values)
            H = random_sym(gen, len(values))
            dec = matfun.eig_sym(X)
            nz = np.flatnonzero(np.abs(dec.values) > 1e-12)
            zr = np.flatnonzero(np.abs(dec.values) <= 1e-12)
            mu = dec.values[nz]
            PI = dec.vectors[:, nz]
            PJ = dec.vectors[:, zr]
            absmu3 = np.abs(mu) ** 3
            A = ((absmu3[:, None] + (mu**3)[:, None] + absmu3[None, :] + (mu**3)[None, :])
                 * (mu[:, None] ** 2 + np.outer(mu, mu) + mu[None, :] ** 2)
                 / (2.0 * (absmu3[:, None] + absmu3[None, :])))
            b = 0.5 * (np.abs(mu) + mu) * mu
            KII = PI.T @ H @ PI
            KIJ = PI.T @ H @ PJ
            ref = PI @ (A * KII) @ PI.T
            if zr.size:
                cross = PI @ (b[:, None] * KIJ) @ PJ.T
                ref = ref + cross + cross.T
            out = matfun.dq_apply(matfun.eig_sym(X), H)
            assert np.linalg.norm(out - ref) <= 1e-10 * (1 + np.linalg.norm(ref))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_orthogonal_covariance(self, seed):
        gen = rng(seed)
        d = int(gen.integers(1, 6))
        X = random_sym(gen, d)
        U = random_orthogonal(gen, d)
        tol = 1e-10 * (1 + np.linalg.norm(X) ** 4)
        dec, rotated = matfun.eig_sym(X), matfun.eig_sym(U.T @ X @ U)
        assert np.linalg.norm(matfun.psd_part_from(rotated) - U.T @ matfun.psd_part_from(dec) @ U) <= tol
        assert np.linalg.norm(matfun.q_cube_from(rotated) - U.T @ matfun.q_cube_from(dec) @ U) <= tol
        assert matfun.quartic_trace_from(rotated) == pytest.approx(matfun.quartic_trace_from(dec), abs=tol)


# entries on both sides of the unscaled range 2**±450 of _norm, subnormal ones, and the special values
_NORM_ENTRIES = st.one_of(
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.one_of(st.integers(-1074, 1020), st.integers(-460, -440),
                                                           st.integers(440, 460))),
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, math.inf, -math.inf, math.nan]),
)


def scaled_norm(v) -> float:
    """The norm as taken before the unscaled path: every input scaled by its power of two.  An infinite
    entry leaves the unit at 1, so a huge finite one next to it overflows its square, harmlessly."""
    unit = matfun._pow2_unit(v)
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v * unit)) / unit


class TestNorm:
    @given(st.lists(_NORM_ENTRIES, min_size=1, max_size=12), st.sampled_from(["flat", "matrix", "transposed"]))
    @settings(max_examples=300)
    def test_equals_scaled_form(self, entries, layout):
        v = np.array(entries)
        if layout != "flat":
            v = v.reshape(max(r for r in (1, 2, 3, 4) if v.size % r == 0), -1)
            if layout == "transposed":
                v = v.T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert matfun._norm(v).hex() == scaled_norm(v).hex()

    @pytest.mark.parametrize("top", [math.ldexp(1.0, 450), math.ldexp(1.0, -450), 2.0**-1022, 5e-324, 1e308])
    def test_boundaries(self, top):
        # at and next to each end of the unscaled range, alone and with an entry that underflows when squared
        for a in (np.nextafter(top, 0.0), top, np.nextafter(top, np.inf)):
            for v in (np.array([a]), np.array([a, -a, 2.0**-600, 5e-324]), np.array([[a, 0.5 * a], [0.0, -a]]).T):
                assert matfun._norm(v).hex() == scaled_norm(v).hex()
        assert matfun._norm(np.zeros(3)) == 0.0


class TestTriangles:
    @pytest.mark.parametrize("n", [0, 1, 4, 7])
    def test_row_major_pairs(self, n):
        (ur, uc), (lr, lc) = matfun._triangles(n)
        assert list(zip(ur.tolist(), uc.tolist())) == [(i, j) for i in range(n) for j in range(i, n)]
        assert list(zip(lr.tolist(), lc.tolist())) == [(i, j) for i in range(n) for j in range(i + 1)]

    def test_cached_and_read_only(self):
        pairs = matfun._triangles(5)
        assert matfun._triangles(5) is pairs
        for a in (*pairs[0], *pairs[1]):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 1

    @pytest.mark.parametrize("n", [0, 1, 7, 300])
    def test_upper_ints_share_one_int_per_value(self, n):
        # above 256 CPython makes a new int per conversion, so sharing is checked there too
        rows, cols = matfun._upper_ints(n)
        assert matfun._upper_ints(n) is matfun._upper_ints(n)
        assert (list(rows), list(cols)) == (matfun._triangles(n)[0][0].tolist(), matfun._triangles(n)[0][1].tolist())
        assert all(type(i) is int for i in rows + cols)
        assert len({id(i) for i in rows + cols}) == n
