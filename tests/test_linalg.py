import numpy as np
import pytest

from lrpca import (InvalidInput, SingularGram, gram_solve, matrix_norm, truncated_svd)
from lrpca.linalg import _gram_solver
from oracles import jacobi_rank_r, jacobi_svd


class TestMatrixNorm:
    def test_fro_345(self):
        assert matrix_norm([[3.0, -4.0]], "fro") == pytest.approx(5.0)

    def test_inf_is_max_magnitude(self):
        assert matrix_norm([[3.0, -4.0]], "inf") == 4.0

    def test_two_inf_is_max_row_l2(self):
        assert matrix_norm([[3.0, 4.0], [0.0, 1.0]], "two_inf") == pytest.approx(5.0)

    def test_one_inf_is_max_row_l1(self):
        assert matrix_norm([[3.0, -4.0], [1.0, 1.0]], "one_inf") == pytest.approx(7.0)

    def test_spectral_matches_lapack(self, rng):
        for _ in range(20):
            M = rng.standard_normal((17, 11))
            ref = np.linalg.norm(M, 2)
            assert matrix_norm(M, "spectral") == pytest.approx(ref, rel=1e-8)

    def test_spectral_zero_matrix(self):
        assert matrix_norm(np.zeros((4, 3)), "spectral") == 0.0

    def test_spectral_ones_vector_annihilated(self):
        # M annihilates the all-ones vector yet has ||M||_2 = 2.
        M = np.array([[1.0, -1.0], [1.0, -1.0]])
        assert matrix_norm(M, "spectral") == pytest.approx(2.0)

    def test_fro_spectral_sandwich(self, rng):
        for _ in range(20):
            M = rng.standard_normal((12, 9))
            spec = matrix_norm(M, "spectral")
            fro = matrix_norm(M, "fro")
            assert spec <= fro * (1 + 1e-12)
            assert fro <= np.sqrt(9) * spec * (1 + 1e-9)

    def test_empty_matrix_rejected(self):
        with pytest.raises(InvalidInput, match="is empty"):
            matrix_norm(np.zeros((0, 3)), "fro")

    def test_nan_rejected(self):
        with pytest.raises(InvalidInput):
            matrix_norm([[np.nan, 1.0]], "fro")

    def test_unknown_kind(self):
        with pytest.raises(InvalidInput, match="'nuclear'; expected one of "
                           "fro, inf, two_inf, one_inf, spectral"):
            matrix_norm([[1.0]], "nuclear")


class TestTruncatedSVD:
    def test_exact_rank_one(self, rng):
        u = rng.standard_normal(8)
        v = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        v /= np.linalg.norm(v)
        f = truncated_svd(5.0 * np.outer(u, v), 1)
        assert f.sigma == pytest.approx([5.0])

    def test_diagonal_input(self):
        f = truncated_svd(np.diag([3.0, 2.0, 1.0]), 2)
        assert f.sigma == pytest.approx([3.0, 2.0])

    def test_orthonormal_factors(self, rng):
        M = rng.standard_normal((40, 25))
        f = truncated_svd(M, 4)
        assert np.linalg.norm(f.U.T @ f.U - np.eye(4)) <= 1e-10
        assert np.linalg.norm(f.V.T @ f.V - np.eye(4)) <= 1e-10
        assert all(a >= b >= 0 for a, b in zip(f.sigma, f.sigma[1:]))

    def test_random_30x30_matches_jacobi_oracle(self):
        M = np.random.default_rng(7).standard_normal((30, 30))
        f = truncated_svd(M, 3)
        ref = jacobi_rank_r(M, 3)
        rel = np.linalg.norm(f.product() - ref) / np.linalg.norm(ref)
        assert rel <= 1e-9

    def test_full_rank_reconstructs(self, rng):
        M = rng.standard_normal((15, 10))
        f = truncated_svd(M, 10)
        assert np.linalg.norm(f.product() - M) <= 1e-9 * np.linalg.norm(M)

    def test_deterministic_given_seed(self, rng):
        M = rng.standard_normal((50, 50))
        f1 = truncated_svd(M, 3)
        f2 = truncated_svd(M, 3)
        assert np.array_equal(f1.U, f2.U)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.V, f2.V)

    def test_rank_too_large(self):
        with pytest.raises(InvalidInput, match="rank 5 exceeds"):
            truncated_svd(np.eye(4), 5)

    def test_zero_matrix(self):
        f = truncated_svd(np.zeros((6, 5)), 2)
        assert f.sigma == pytest.approx([0.0, 0.0])
        assert np.linalg.norm(f.U.T @ f.U - np.eye(2)) <= 1e-14

    def test_near_tie_at_rank_boundary(self, rng):
        # sigma_3 and sigma_4 agree to 1e-12: no stationary rank-3 subspace
        # exists, and an iterative solver waiting for one never stops.
        sigma = np.array([5.0, 4.0, 3.0, 3.0 * (1 - 1e-12), 2.0])
        U = np.linalg.qr(rng.standard_normal((40, 5)))[0]
        V = np.linalg.qr(rng.standard_normal((40, 5)))[0]
        M = (U * sigma) @ V.T
        f = truncated_svd(M, 3)
        assert f.sigma == pytest.approx([5.0, 4.0, 3.0], rel=1e-12)
        assert np.linalg.norm(f.U.T @ f.U - np.eye(3)) <= 1e-12
        assert np.linalg.norm(f.V.T @ f.V - np.eye(3)) <= 1e-12
        tail = np.sqrt((sigma[3:] ** 2).sum())
        assert np.linalg.norm(M - f.product()) == pytest.approx(tail, rel=1e-12)


class TestJacobiOracleSelfCheck:
    def test_reconstructs_and_is_orthonormal(self, rng):
        M = rng.standard_normal((12, 9))
        U, s, V = jacobi_svd(M)
        assert np.linalg.norm((U * s) @ V.T - M) <= 1e-12 * np.linalg.norm(M)
        assert np.linalg.norm(V.T @ V - np.eye(9)) <= 1e-12
        ref = np.linalg.svd(M, compute_uv=False)
        assert s == pytest.approx(ref, rel=1e-12)


class TestGramSolve:
    def test_diagonal_inverse(self):
        W = gram_solve(np.eye(2), np.diag([2.0, 4.0]))
        assert W == pytest.approx(np.diag([0.5, 0.25]))
        # A pivot above _PIVOT_RTOL * max(diag G) is solved, not rejected.
        W = gram_solve(np.eye(2), np.diag([1.0, 1e-12]))
        assert W == pytest.approx(np.diag([1.0, 1e12]))

    def test_identity_gram(self, rng):
        V = rng.standard_normal((7, 3))
        assert gram_solve(V, np.eye(3)) == pytest.approx(V)

    @pytest.mark.parametrize("G", [
        np.zeros((2, 2)),
        np.diag([1.0, 1e-16]),
        np.diag([1e-16, 1.0]),
        np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]]),
    ], ids=["zero", "tiny_last", "tiny_first", "near_collinear"])
    def test_zero_gram_singular(self, G):
        with pytest.raises(SingularGram):
            gram_solve(np.ones((4, 2)), G)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(InvalidInput, match="shape mismatch"):
            gram_solve(np.ones((4, 2)), np.eye(3))

    def test_indefinite_gram_rejected(self):
        with pytest.raises(SingularGram):
            gram_solve(np.ones((3, 2)), np.diag([1.0, -1.0]))

    def test_residual_bound(self, rng):
        def check(G):
            V = rng.standard_normal((30, 5))
            W = gram_solve(V, G)
            assert np.linalg.norm(W @ G - V) <= 1e-10 * np.linalg.norm(V)

        for _ in range(10):
            A = rng.standard_normal((20, 5))
            check(A.T @ A + 0.1 * np.eye(5))
        # cond(G) = 1e6, the edge of the documented 1e-10 residual range.
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        check(Q @ np.diag(np.logspace(0, -6, 5)) @ Q.T)

    @pytest.mark.parametrize("cond", [1e1, 1e6, 1e10])
    def test_factor_once_apply_many_is_gram_solve(self, rng, cond):
        # One factor serves several right-hand sides, each bit for bit what
        # gram_solve returns, also at and beyond the 1e6 residual range.
        Q = np.linalg.qr(rng.standard_normal((5, 5)))[0]
        G = Q @ np.diag(np.logspace(0, -np.log10(cond), 5)) @ Q.T
        solve = _gram_solver(G)
        for V in (rng.standard_normal((30, 5)),
                  rng.standard_normal((40, 10))[:, 3:8]):
            assert np.array_equal(solve(V), gram_solve(V, G))
        # At r = 1 the products are broadcast multiplies; they give what
        # the GEMMs of inner dimension 1 give, on a strided V as well.
        G = np.array([[rng.uniform(0.5, 2.0) / cond]])
        Lc_inv = np.linalg.inv(np.linalg.cholesky(G))
        G_inv = Lc_inv.T @ Lc_inv
        solve = _gram_solver(G)
        for n in (7, 60, 19200):
            for V in (rng.standard_normal((n, 1)),
                      rng.standard_normal((n, 3))[:, 1:2]):
                W = V @ G_inv
                W += (V - W @ G) @ G_inv
                assert np.array_equal(solve(V), W)
                assert np.array_equal(gram_solve(V, G), W)

    def test_round_trip_property(self, rng):
        V = rng.standard_normal((9, 4))
        B = rng.standard_normal((11, 4))
        G = B.T @ B + np.eye(4)
        W = gram_solve(V, G)
        assert np.linalg.norm(W @ G - V) <= 1e-10 * np.linalg.norm(V)
