import numpy as np
import pytest

from lrpca import (InvalidInput, banded_sparse_matrix, matrix_norm,
                   soft_threshold, sparsify_top_fraction)
from oracles import brute_force_sparsify


class TestSoftThreshold:
    def test_direct_formula(self):
        M = [[3.0, -0.5], [1.0, -2.0]]
        out = soft_threshold(M, 1.0)
        np.testing.assert_allclose(out, [[2.0, 0.0], [0.0, -1.0]], atol=1e-15)

    def test_zero_threshold_is_identity(self, rng):
        M = rng.standard_normal((5, 7))
        assert np.array_equal(soft_threshold(M, 0.0), M)

    def test_full_shrinkage(self, rng):
        M = rng.standard_normal((6, 4))
        out = soft_threshold(M, np.abs(M).max())
        assert np.count_nonzero(out) == 0

    def test_equals_sign_formula_across_magnitudes(self, rng):
        M = (rng.choice([-1.0, 1.0], size=(400, 500))
             * 10.0 ** rng.uniform(-8, 8, size=(400, 500)))
        for zeta in (0.0, 1e-6, 0.3, 1e3, 1e7):
            ref = np.sign(M) * np.maximum(np.abs(M) - zeta, 0.0)
            assert np.array_equal(soft_threshold(M, zeta), ref)

    def test_negative_threshold_rejected(self):
        with pytest.raises(InvalidInput, match="threshold must be >= 0"):
            soft_threshold([[1.0]], -0.1)

    @pytest.mark.parametrize("zeta", [float("nan"), np.float64("nan")],
                             ids=["float", "float64"])
    def test_nan_threshold_rejected(self, zeta):
        # zeta < 0 is False for NaN, which would shrink every entry to NaN.
        with pytest.raises(InvalidInput, match="threshold must be >= 0"):
            soft_threshold(np.ones((3, 3)), zeta)

    def test_entrywise_lipschitz(self, rng):
        for _ in range(50):
            A = rng.standard_normal((8, 8))
            B = rng.standard_normal((8, 8))
            zeta = abs(rng.standard_normal())
            lhs = np.abs(soft_threshold(A, zeta) - soft_threshold(B, zeta)).max()
            assert lhs <= np.abs(A - B).max() + 1e-15


class TestSparsifyTopFraction:
    def test_2x2_half(self):
        out = sparsify_top_fraction([[3.0, 1.0], [2.0, 4.0]], 0.5)
        np.testing.assert_allclose(out, [[3.0, 0.0], [0.0, 4.0]], atol=1e-15)

    def test_keep_all(self, rng):
        M = rng.standard_normal((5, 5))
        assert np.array_equal(sparsify_top_fraction(M, 1.0), M)

    def test_keep_none(self, rng):
        M = rng.standard_normal((5, 5))
        assert np.count_nonzero(sparsify_top_fraction(M, 0.0)) == 0

    def test_fraction_bounds(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(InvalidInput, match=r"fraction must be in \[0, 1\]"):
                sparsify_top_fraction([[1.0]], bad)

    def test_matches_brute_force_oracle(self, rng):
        # Distinct magnitudes so the keep decision is unambiguous.
        for trial in range(100):
            M = rng.standard_normal((8, 8))
            while len(np.unique(np.abs(M))) != 64:
                M = rng.standard_normal((8, 8))
            alpha = rng.choice([0.125, 0.25, 0.5, 0.75])
            assert np.array_equal(sparsify_top_fraction(M, alpha),
                                  brute_force_sparsify(M, alpha))

    def test_ties_at_cutoff_all_kept(self):
        M = np.array([[2.0, -2.0, 1.0],
                      [2.0, 0.5, -2.0],
                      [0.1, 2.0, 2.0]])
        out = sparsify_top_fraction(M, 1 / 3)
        # Every |2.0| entry ranks first in its row and column.
        assert np.array_equal(out != 0, np.abs(M) == 2.0)


class TestThresholdSupportContainment:
    """With the oracle threshold, no false-positive outliers survive and the
    sparse estimate stays within 2x of the true outliers entrywise."""

    def test_containment_and_linf_bound(self, rng):
        for _ in range(200):
            n1, n2 = rng.integers(3, 12, size=2)
            X_star = rng.standard_normal((n1, n2))
            X_k = X_star + 0.3 * rng.standard_normal((n1, n2))
            S_star = np.zeros((n1, n2))
            mask = rng.random((n1, n2)) < 0.2
            S_star[mask] = 3.0 * rng.standard_normal(int(mask.sum()))
            zeta = np.abs(X_star - X_k).max()
            S = soft_threshold(X_star + S_star - X_k, zeta)
            assert not ((S != 0) & (S_star == 0)).any()
            assert np.abs(S - S_star).max() <= 2 * zeta + 1e-12


class TestSparseNormBounds:
    """Row/column-sparse matrices obey the three norm bounds against the
    entrywise max, with the sparsity fraction as the growth rate."""

    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_bounds(self, alpha):
        n = 100
        for seed in range(10):
            S = banded_sparse_matrix(n, alpha, seed=seed)
            inf = matrix_norm(S, "inf")
            an = alpha * n
            assert matrix_norm(S, "spectral") <= an * inf * (1 + 1e-9)
            assert matrix_norm(S, "two_inf") <= np.sqrt(an) * inf * (1 + 1e-12)
            assert matrix_norm(S, "one_inf") <= an * inf * (1 + 1e-12)
