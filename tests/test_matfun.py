import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsdpen import matfun
from nsdpen.errors import InvalidInputError

from conftest import rng


def random_sym(gen, d, scale=1.0):
    A = gen.normal(size=(d, d)) * scale
    return 0.5 * (A + A.T)


def random_orthogonal(gen, d):
    Q, R = np.linalg.qr(gen.normal(size=(d, d)))
    return Q * np.sign(np.diag(R))


def sym_from_spectrum(gen, values):
    values = np.asarray(values, dtype=float)
    Q = random_orthogonal(gen, values.size)
    return (Q * values) @ Q.T


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


class TestClassify:
    def test_three_way_split(self):
        dec = matfun.EigenDecomp(np.array([3.0, 1e-15, -2.0]), np.eye(3), 3.6)
        cls = matfun.classify_eigs(dec, tol=1e-10)
        assert list(cls.pos) == [0] and list(cls.zero) == [1] and list(cls.neg) == [2]

    def test_all_positive(self):
        dec = matfun.EigenDecomp(np.array([2.0, 1.0]), np.eye(2), 2.2)
        cls = matfun.classify_eigs(dec, tol=1e-10)
        assert cls.zero.size == 0 and cls.neg.size == 0 and cls.pos.size == 2

    def test_all_zero(self):
        dec = matfun.EigenDecomp(np.zeros(2), np.eye(2), 0.0)
        cls = matfun.classify_eigs(dec)
        assert list(cls.zero) == [0, 1]

    def test_default_tol_scaling(self):
        dec = matfun.EigenDecomp(np.array([1.0]), np.eye(1), 1e4)
        assert matfun.classify_eigs(dec).tol == pytest.approx(1e-10 * 1e4)

    def test_negative_tol_rejected(self):
        dec = matfun.EigenDecomp(np.array([1.0]), np.eye(1), 1.0)
        with pytest.raises(InvalidInputError):
            matfun.classify_eigs(dec, tol=-1.0)

    @given(st.integers(0, 10**6))
    def test_partition_prefix_suffix(self, seed):
        gen = rng(seed)
        d = int(gen.integers(1, 8))
        X = random_sym(gen, d)
        if gen.random() < 0.3:  # force some exact zeros
            w, Q = np.linalg.eigh(X)
            w[: int(gen.integers(1, d + 1))] = 0.0
            X = (Q * w) @ Q.T
        dec = matfun.eig_sym(X)
        cls = matfun.classify_eigs(dec)
        merged = np.concatenate([cls.pos, cls.zero, cls.neg])
        assert sorted(merged.tolist()) == list(range(d))
        assert list(cls.pos) == list(range(len(cls.pos)))
        assert list(cls.neg) == list(range(d - len(cls.neg), d))


class TestPsdMaps:
    def test_proj_diag(self):
        assert np.allclose(matfun.proj_psd(np.diag([2.0, -3.0])), np.diag([2.0, 0.0]))

    def test_proj_identity_on_psd(self):
        X = np.array([[2.0, 0.5], [0.5, 1.0]])
        assert np.linalg.norm(matfun.proj_psd(X) - X) <= 1e-12

    def test_proj_exchange_matrix(self):
        # eigenvalues +-1; the positive part is the projector onto (1,1)/sqrt(2)
        P = matfun.proj_psd([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(P, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_proj_result_psd(self):
        X = random_sym(rng(2), 6)
        P = matfun.proj_psd(X)
        lo = np.linalg.eigvalsh(P)[0]
        assert lo >= -1e-10 * (1 + np.linalg.norm(X))

    def test_q_cube_diag(self):
        assert np.allclose(matfun.q_cube(np.diag([2.0, -1.0])), np.diag([8.0, 0.0]))

    def test_q_cube_zero(self):
        assert np.allclose(matfun.q_cube(np.zeros((3, 3))), 0.0)

    def test_q_cube_exchange_matrix(self):
        Q = matfun.q_cube([[0.0, 1.0], [1.0, 0.0]])
        assert np.allclose(Q, [[0.5, 0.5], [0.5, 0.5]], atol=1e-14)

    def test_q_cube_commutes_with_argument(self):
        X = random_sym(rng(3), 5, scale=2.0)
        Q = matfun.q_cube(X)
        assert np.linalg.norm(Q @ X - X @ Q) <= 1e-9 * (1 + np.linalg.norm(X) ** 4)

    def test_quartic_trace_values(self):
        assert matfun.quartic_trace(np.diag([1.0, -2.0])) == pytest.approx(1.0)
        assert matfun.quartic_trace(-np.eye(3)) == 0.0
        assert matfun.quartic_trace([[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(1.0)

    def test_quartic_trace_matches_spectrum(self):
        X = random_sym(rng(4), 6)
        w = np.linalg.eigvalsh(X)
        assert matfun.quartic_trace(X) == pytest.approx(np.sum(np.maximum(w, 0) ** 4))

    def test_half_identity_with_spectral_abs(self):
        X = random_sym(rng(6), 5)
        lhs = matfun.proj_psd(X)
        w, V = np.linalg.eigh(X)
        rhs = 0.5 * (X + (V * np.abs(w)) @ V.T)
        assert np.linalg.norm(lhs - rhs) <= 1e-12 * (1 + np.linalg.norm(X))


class TestDqCoeff:
    def test_mixed_signs(self):
        op = matfun.dq_operator(np.diag([1.0, -1.0]))
        assert np.allclose(op.coeff, [[3.0, 0.5], [0.5, 0.0]])

    def test_zero_eigenvalue(self):
        op = matfun.dq_operator(np.diag([1.0, 0.0]))
        assert np.allclose(op.coeff, [[3.0, 1.0], [1.0, 0.0]])

    def test_negative_definite_gives_zero(self):
        op = matfun.dq_operator(-np.eye(3))
        assert np.allclose(op.coeff, 0.0)

    def test_coeff_symmetric_nonnegative_with_zero_blocks(self):
        gen = rng(7)
        X = sym_from_spectrum(gen, [2.0, 0.5, 0.0, -0.3, -2.0])
        dec = matfun.eig_sym(X)
        cls = matfun.classify_eigs(dec)
        op = matfun.dq_coeff(dec, cls)
        C = op.coeff
        assert np.array_equal(C, C.T)
        assert np.all(C >= 0)
        assert np.all(C[np.ix_(cls.neg, cls.neg)] == 0)
        assert np.all(C[np.ix_(cls.zero, cls.zero)] == 0)


class TestDqApply:
    def test_zero_matrix_derivative_vanishes(self):
        op = matfun.dq_operator(np.zeros((3, 3)))
        H = random_sym(rng(8), 3)
        assert np.allclose(matfun.dq_apply(op, H), 0.0)

    def test_indefinite_example_and_fd(self):
        X = np.diag([1.0, -1.0])
        H = np.array([[0.0, 1.0], [1.0, 0.0]])
        out = matfun.dq_apply(matfun.dq_operator(X), H)
        assert np.allclose(out, [[0.0, 0.5], [0.5, 0.0]], atol=1e-12)
        t = 1e-5
        fd = (matfun.q_cube(X + t * H) - matfun.q_cube(X - t * H)) / (2 * t)
        assert np.linalg.norm(out - fd) <= 1e-8

    def test_positive_definite_polynomial_rule(self):
        # on PD input the cube is a plain polynomial with derivative
        # X^2 H + X H X + H X^2
        X = np.diag([2.0, 1.0])
        gen = rng(9)
        for _ in range(5):
            H = random_sym(gen, 2)
            out = matfun.dq_apply(matfun.dq_operator(X), H)
            ref = X @ X @ H + X @ H @ X + H @ X @ X
            assert np.linalg.norm(out - ref) <= 1e-10

    def test_dimension_mismatch(self):
        op = matfun.dq_operator(np.eye(2))
        with pytest.raises(InvalidInputError):
            matfun.dq_apply(op, np.eye(3))

    @given(st.integers(0, 10**6), st.floats(-3, 3), st.floats(-3, 3))
    def test_linearity(self, seed, a, b):
        gen = rng(seed)
        d = int(gen.integers(1, 6))
        op = matfun.dq_operator(random_sym(gen, d))
        H1, H2 = random_sym(gen, d), random_sym(gen, d)
        lhs = matfun.dq_apply(op, a * H1 + b * H2)
        rhs = a * matfun.dq_apply(op, H1) + b * matfun.dq_apply(op, H2)
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
            out = matfun.dq_apply(matfun.dq_operator(X), H)
            fd = (matfun.q_cube(X + t * H) - matfun.q_cube(X - t * H)) / (2 * t)
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

        op_limit = matfun.dq_operator(np.diag([1.0, 0.0, -1.0]))

        def gap(k, sign):
            op_k = matfun.dq_operator(np.diag([1.0, sign / k, -1.0]))
            return max(
                np.linalg.norm(matfun.dq_apply(op_k, H) - matfun.dq_apply(op_limit, H))
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
        cls = matfun.classify_eigs(dec)
        H = random_sym(gen, 3)
        out1 = matfun.dq_apply(matfun.dq_coeff(dec, cls), H)
        out2 = matfun.dq_apply(matfun.dq_coeff(alt, cls), H)
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
            out = matfun.dq_apply(matfun.dq_operator(X), H)
            assert np.linalg.norm(out - ref) <= 1e-10 * (1 + np.linalg.norm(ref))

    @given(st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_orthogonal_covariance(self, seed):
        gen = rng(seed)
        d = int(gen.integers(1, 6))
        X = random_sym(gen, d)
        U = random_orthogonal(gen, d)
        tol = 1e-10 * (1 + np.linalg.norm(X) ** 4)
        assert np.linalg.norm(matfun.proj_psd(U.T @ X @ U) - U.T @ matfun.proj_psd(X) @ U) <= tol
        assert np.linalg.norm(matfun.q_cube(U.T @ X @ U) - U.T @ matfun.q_cube(X) @ U) <= tol
        assert matfun.quartic_trace(U.T @ X @ U) == pytest.approx(matfun.quartic_trace(X), abs=tol)
