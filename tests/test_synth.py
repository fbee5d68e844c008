import numpy as np
import pytest

from lrpca import (InstanceSource, InvalidInput, banded_sparse_matrix,
                   gen_instance)


class TestGenInstance:
    def test_decomposition_is_exact(self):
        inst = gen_instance(50, 40, 3, 0.1, 7)
        assert np.array_equal(inst.Y, inst.X_star + inst.S_star)

    def test_alpha_zero_no_outliers(self):
        inst = gen_instance(30, 30, 2, 0.0, 1)
        assert np.count_nonzero(inst.S_star) == 0
        assert np.array_equal(inst.Y, inst.X_star)

    def test_deterministic(self):
        a = gen_instance(25, 35, 4, 0.2, 9)
        b = gen_instance(25, 35, 4, 0.2, 9)
        assert np.array_equal(a.Y, b.Y)
        assert np.array_equal(a.S_star, b.S_star)

    def test_outlier_count_and_magnitudes(self):
        inst = gen_instance(200, 200, 5, 0.1, 1)
        assert np.count_nonzero(inst.S_star) == int(0.1 * 200 * 200)
        bound = np.abs(inst.X_star).mean()
        assert np.abs(inst.S_star).max() <= bound

    def test_rank_bound(self):
        inst = gen_instance(40, 40, 3, 0.1, 2)
        s = np.linalg.svd(inst.X_star, compute_uv=False)
        assert s[3] <= 1e-12 * s[0]

    def test_factor_variance_law_of_large_numbers(self):
        # Entry variance of the factors targets 1/max(n1, n2).
        inst = gen_instance(600, 600, 5, 0.0, 3)
        # Recover factor variance from X = L R^T: Var(X_ij) = r / n^2.
        var = inst.X_star.var()
        assert var == pytest.approx(5 / 600 ** 2, rel=0.1)

    def test_invalid_rank(self):
        with pytest.raises(InvalidInput, match="rank 11 exceeds"):
            gen_instance(10, 10, 11, 0.1, 0)

    def test_invalid_fraction(self):
        with pytest.raises(InvalidInput, match=r"alpha must be in \[0, 1\]"):
            gen_instance(10, 10, 2, 1.5, 0)

    def test_rectangular_shapes(self):
        inst = gen_instance(30, 50, 2, 0.1, 5)
        assert inst.Y.shape == (30, 50)
        assert np.count_nonzero(inst.S_star) == int(0.1 * 30 * 50)


class TestBandedSparse:
    @pytest.mark.parametrize("alpha", [0.05, 0.1, 0.2])
    def test_row_and_column_counts(self, alpha):
        n = 50
        S = banded_sparse_matrix(n, alpha, seed=3)
        limit = int(np.floor(alpha * n))
        assert (np.count_nonzero(S, axis=0) <= limit).all()
        assert (np.count_nonzero(S, axis=1) <= limit).all()
        assert np.count_nonzero(S) > 0

    def test_alpha_zero_empty(self):
        assert np.count_nonzero(banded_sparse_matrix(20, 0.0, seed=1)) == 0

    @pytest.mark.parametrize("alpha", [-0.1, 1.5])
    def test_alpha_out_of_range_rejected(self, alpha):
        with pytest.raises(InvalidInput, match="alpha must be in"):
            banded_sparse_matrix(10, alpha, seed=0)


class TestInstanceSource:
    def test_stream_is_deterministic(self):
        a = InstanceSource(20, 20, 2, 0.1, base_seed=5)
        b = InstanceSource(20, 20, 2, 0.1, base_seed=5)
        assert np.array_equal(a.instance(3).Y, b.instance(3).Y)
        # Instance i is the instance of seed base_seed + i.
        assert [a.instance(i).seed for i in (10, 11, 12)] == [15, 16, 17]
        assert np.array_equal(a.instance(3).Y, gen_instance(20, 20, 2, 0.1, 8).Y)

    def test_instances_differ(self):
        src = InstanceSource(20, 20, 2, 0.1, base_seed=5)
        assert not np.array_equal(src.instance(0).Y, src.instance(1).Y)


@pytest.mark.parametrize("make", [
    lambda: gen_instance(10, 10, 2, 0.1, -1),
    lambda: gen_instance(10, 10, 2, 0.1, np.int64(-3)),
    lambda: InstanceSource(10, 10, 2, 0.1, base_seed=-1),
], ids=["gen_instance", "gen_instance_numpy_int", "instance_source"])
def test_negative_seed_rejected(make):
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        make()
