import numpy as np
import pytest

from lrpca import (FixedSchedule, InstanceSource, InvalidInput,
                   banded_sparse_matrix, gen_instance, solve)


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

    # A size of 10.5 reached numpy as a TypeError, and a seed of -1 or 1.5
    # as a bare ValueError or TypeError.
    @pytest.mark.parametrize("n, seed, message", [
        (10.5, 0, "n must be >= 1"), (0, 0, "n must be >= 1"),
        (10, -1, "seed must be >= 0"), (10, 1.5, "seed must be >= 0"),
    ], ids=["n_float", "n_zero", "seed_negative", "seed_float"])
    def test_count_not_integer_rejected(self, n, seed, message):
        with pytest.raises(InvalidInput, match=f"{message} and an integer"):
            banded_sparse_matrix(n, 0.2, seed)


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

    @pytest.mark.parametrize("i", [1.5, -2])
    def test_index_not_a_count_rejected(self, i):
        # int(i) truncated 1.5 to instance 1, and -2 gave the instance of
        # seed base_seed - 2.
        src = InstanceSource(10, 10, 2, 0.1, 3)
        with pytest.raises(InvalidInput,
                           match="instance index must be >= 0 and an integer"):
            src.instance(i)


@pytest.mark.parametrize("make", [
    lambda: gen_instance(10, 10, 2, 0.1, -1),
    lambda: gen_instance(10, 10, 2, 0.1, np.int64(-3)),
    lambda: InstanceSource(10, 10, 2, 0.1, base_seed=-1),
], ids=["gen_instance", "gen_instance_numpy_int", "instance_source"])
def test_negative_seed_rejected(make):
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        make()


# A rank, seed or size that is not an integer was truncated or reached
# numpy as a TypeError.
@pytest.mark.parametrize("make, message", [
    (lambda: solve(np.eye(6), 2.7, FixedSchedule(0.1, 0.5)),
     "rank must be >= 1"),
    (lambda: gen_instance(10, 10, 2.0, 0.1, 0), "rank must be >= 1"),
    (lambda: gen_instance(10, 10, 2, 0.1, 1.5), "seed must be >= 0"),
    (lambda: solve(np.eye(6), 2, FixedSchedule(0.1, 0.5), seed=1.5),
     "seed must be >= 0"),
    (lambda: InstanceSource(10, 10, 2, 0.1, base_seed=1.5),
     "seed must be >= 0"),
    (lambda: gen_instance(10.5, 10, 2, 0.1, 0), "n1 must be >= 1"),
    (lambda: InstanceSource(10.5, 10, 2, 0.1), "n1 must be >= 1"),
    (lambda: InstanceSource(10, 10.0, 2, 0.1), "n2 must be >= 1"),
], ids=["solve_rank", "gen_rank", "gen_seed", "solve_seed", "source_seed",
        "gen_size", "source_n1", "source_n2"])
def test_count_not_integer_rejected(make, message):
    with pytest.raises(InvalidInput, match=f"{message} and an integer"):
        make()


def test_numpy_integer_counts_accepted():
    inst = gen_instance(np.int64(10), np.int32(8), np.int64(2), 0.1,
                        np.uint8(4))
    assert inst.shape == (10, 8) and inst.r == 2 and inst.seed == 4
    assert type(inst.r) is int and type(inst.seed) is int
