import importlib
import pkgutil

import numpy as np
import pytest

import lrpca
from lrpca import (FixedSchedule, FrameSequence, InstanceSource, InvalidInput,
                   OracleSchedule, ParamSchedule, StopRule, TrainConfig,
                   banded_sparse_matrix, gen_instance, grid_search_tail,
                   lrpca_step, matrix_norm, rescale_schedule, soft_threshold,
                   solve, solve_scaledgd, spectral_init, sparsify_top_fraction,
                   truncated_svd, write_matrix)
from lrpca.bench import runtime_scaling_bench
from lrpca.validation import check_fraction, check_nonneg, check_positive

# The modules whose public names lrpca/__init__.py re-exports.
REEXPORTED = ("linalg", "operators", "schedule", "solver", "synth",
              "training", "matrixio", "video")


def test_every_exported_name_resolves():
    modules = [lrpca] + [importlib.import_module(f"lrpca.{info.name}")
                         for info in pkgutil.iter_modules(lrpca.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing
    # A name a re-exported module makes public is public at the top too.
    unlisted = [f"lrpca.{mod}.{name}" for mod in REEXPORTED
                for name in importlib.import_module(f"lrpca.{mod}").__all__
                if name not in lrpca.__all__]
    assert not unlisted


def test_invalid_input_is_the_one_caller_mistake_error():
    errors = [name for name in lrpca.__all__
              if isinstance(getattr(lrpca, name), type)
              and issubclass(getattr(lrpca, name), InvalidInput)]
    assert errors == ["InvalidInput"]
    assert issubclass(InvalidInput, ValueError)


# A caller's bad setting raises InvalidInput, which callers that catch
# ValueError still catch.
@pytest.mark.parametrize("call, match", [
    (lambda: truncated_svd(np.eye(4), 5), "rank 5 exceeds"),
    (lambda: sparsify_top_fraction([[1.0]], 1.5), "fraction must be in"),
    (lambda: soft_threshold([[1.0]], -0.1), "threshold must be >= 0"),
    (lambda: matrix_norm(np.zeros((0, 3)), "fro"), "is empty"),
    (lambda: spectral_init(np.eye(4), 1, 0.1, seed=-1), "seed must be >= 0"),
    (lambda: solve(np.eye(4), 1, OracleSchedule()), "requires the true"),
    (lambda: solve(np.eye(4), 1, FixedSchedule(0.1, 0.5), truth=np.eye(3)),
     "shape mismatch"),
], ids=["rank", "fraction", "threshold", "empty", "seed", "oracle_truth",
        "shapes"])
def test_range_errors_are_invalid_input(call, match):
    with pytest.raises(InvalidInput, match=match):
        call()


# A matrix must hold integers or floats: a complex one lost its imaginary
# part (with a ComplexWarning), numeric strings and bools were converted,
# and other strings raised a bare ValueError.
@pytest.mark.parametrize("M", [
    np.eye(3) * (1 + 1j),
    np.eye(3, dtype=bool),
    [["1", "2"], ["3", "4"]],
    [["a"]],
    np.eye(3).astype(object),
], ids=["complex", "bool", "numeric_str", "str", "object"])
@pytest.mark.parametrize("op", [
    lambda M, tmp: soft_threshold(M, 0.1),
    lambda M, tmp: solve(M, 1, FixedSchedule(0.1, 0.5)),
    lambda M, tmp: matrix_norm(M, "fro"),
    lambda M, tmp: truncated_svd(M, 1),
    lambda M, tmp: write_matrix(M, tmp / "M.lrpm"),
], ids=["soft_threshold", "solve", "matrix_norm", "truncated_svd",
        "write_matrix"])
def test_matrix_not_real_numbers_rejected(op, M, tmp_path):
    with pytest.raises(InvalidInput, match="must hold real numbers, got dtype"):
        op(M, tmp_path)
    assert not (tmp_path / "M.lrpm").exists()


@pytest.mark.parametrize("call", [
    lambda: ParamSchedule(zetas=(-1.0, 0.5), etas=(0.5,)),
    lambda: OracleSchedule(eta=0.0),
    lambda: TrainConfig(K=3, K_bar=2),
    lambda: TrainConfig(sgd_steps_per_stage=-1),
    lambda: rescale_schedule(ParamSchedule(zetas=(1.0, 0.5), etas=(0.5,)),
                             0, 2, 40, 2),
    lambda: grid_search_tail(ParamSchedule(zetas=(1.0, 0.5), etas=(0.5,)),
                             [], TrainConfig(K=1, K_bar=2)),
], ids=["ParamSchedule", "OracleSchedule", "TrainConfig", "TrainConfig_steps",
        "rescale_schedule", "grid_search_tail"])
def test_bad_settings_raise_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


@pytest.mark.parametrize("size", [float("inf"), float("nan"), 2.5, True],
                         ids=["inf", "nan", "float", "bool"])
@pytest.mark.parametrize("at", range(4),
                         ids=["n_base", "r_base", "n_target", "r_target"])
def test_rescale_schedule_size_not_count_rejected(at, size):
    # An infinite target size gave all-zero thresholds.
    sizes = [500, 5, 500, 5]
    sizes[at] = size
    with pytest.raises(InvalidInput, match="must be >= 1 and an integer"):
        rescale_schedule(ParamSchedule(zetas=(1.0, 0.5), etas=(0.5,)), *sizes)


# bool is an int subclass, but True is no count: each of these ran as 1.
@pytest.mark.parametrize("call", [
    lambda: StopRule("fixed_iters", 0, True),
    lambda: solve(np.eye(4), True, FixedSchedule(0.1, 0.5)),
    lambda: solve(np.eye(4), 1, FixedSchedule(0.1, 0.5), seed=False),
    lambda: TrainConfig(K=True, K_bar=True),
    lambda: InstanceSource(10, 10, 2, 0.1).instance(True),
    lambda: FrameSequence(np.zeros((3, 2)), True, 3),
], ids=["max_iters", "rank", "seed", "TrainConfig_K", "instance_index",
        "frame_height"])
def test_bool_count_rejected(call):
    with pytest.raises(InvalidInput, match="must be >= [01] and an integer"):
        call()


@pytest.mark.parametrize("x", [True, None, float("nan"), 1.5, -0.1, "0.1"],
                         ids=["bool", "none", "nan", "above", "below", "str"])
def test_check_fraction_rejects(x):
    with pytest.raises(InvalidInput, match=r"alpha must be in \[0, 1\]"):
        check_fraction(x, "alpha")


@pytest.mark.parametrize("x", [0, 0.25, 1, np.float64(0.5)])
def test_check_fraction_accepts(x):
    assert check_fraction(x, "alpha") == float(x)


@pytest.mark.parametrize("check", [check_nonneg, check_positive])
@pytest.mark.parametrize("x", [True, None, "0.1", float("nan"), -0.1],
                         ids=["bool", "none", "str", "nan", "negative"])
def test_scalar_checks_reject(check, x):
    with pytest.raises(InvalidInput, match="^eta must be"):
        check(x, "eta")


@pytest.mark.parametrize("x", [0, 0.0, float("inf")],
                         ids=["int_zero", "zero", "inf"])
def test_check_positive_rejects_zero_and_inf(x):
    with pytest.raises(InvalidInput, match="eta must be finite and > 0"):
        check_positive(x, "eta")
    assert check_nonneg(x, "eta") == float(x)


@pytest.mark.parametrize("check", [check_nonneg, check_positive])
@pytest.mark.parametrize("x", [2, 0.25, np.float64(0.5)],
                         ids=["int", "float", "float64"])
def test_scalar_checks_accept(check, x):
    y = check(x, "eta")
    assert y == x and type(y) is float


def _one_step(zeta, eta):
    Y = np.eye(4)
    return lrpca_step(spectral_init(Y, 1, 0.1), Y, zeta, eta)


# Every threshold, step size, tolerance, tail factor and learning rate goes
# through check_nonneg or check_positive: a string raised a bare TypeError
# (or, in a ParamSchedule, was converted), and True ran as 1.
@pytest.mark.parametrize("call", [
    lambda: soft_threshold(np.eye(3), "0.1"),
    lambda: soft_threshold(np.eye(3), True),
    lambda: StopRule("residual_rel", "1e-4"),
    lambda: OracleSchedule("0.5"),
    lambda: OracleSchedule(True),
    lambda: _one_step(True, 0.5),
    lambda: _one_step(0.1, "0.5"),
    lambda: solve_scaledgd(np.eye(4), 1, 0.1, "0.5"),
    lambda: ParamSchedule(zetas=("0.1", 0.1), etas=(0.5,)),
    lambda: ParamSchedule(zetas=(0.1, 0.1), etas=(True,)),
    lambda: ParamSchedule(zetas=("a", 0.1), etas=(0.5,)),
    lambda: ParamSchedule(zetas=(0.1, 0.1), etas=(0.5,), beta="0.9"),
    lambda: ParamSchedule(zetas=(0.1, 0.1), etas=(0.5,), phi=True),
    lambda: TrainConfig(learning_rate="0.1"),
    lambda: TrainConfig(learning_rate=True),
    lambda: TrainConfig(grid=("0.1", 1.0, 0.1)),
    lambda: TrainConfig(grid=(0.1, "1", 0.1)),
    lambda: TrainConfig(grid=(0.1, 1.0, True)),
    lambda: runtime_scaling_bench([20], [2], "10"),
], ids=["soft_threshold_str", "soft_threshold_bool", "StopRule_tolerance",
        "OracleSchedule_str", "OracleSchedule_bool", "lrpca_step_threshold",
        "lrpca_step_step_size", "solve_scaledgd_step_size",
        "ParamSchedule_threshold", "ParamSchedule_step_size",
        "ParamSchedule_not_number", "ParamSchedule_beta", "ParamSchedule_phi",
        "TrainConfig_learning_rate_str", "TrainConfig_learning_rate_bool",
        "TrainConfig_grid_min", "TrainConfig_grid_max", "TrainConfig_grid_step",
        "runtime_scaling_bench_iters"])
def test_scalar_not_number_rejected(call):
    with pytest.raises(InvalidInput):
        call()


# Every fraction goes through check_fraction: a string raised a bare
# TypeError, and sparsify_top_fraction ran a True fraction at 1.0.
@pytest.mark.parametrize("call", [
    lambda: sparsify_top_fraction(np.eye(3), True),
    lambda: solve_scaledgd(np.eye(4), 1, "0.1", 0.5),
    lambda: gen_instance(10, 10, 2, "0.1", 0),
    lambda: banded_sparse_matrix(10, True, 0),
    lambda: InstanceSource(10, 10, 2, True),
], ids=["sparsify_top_fraction", "solve_scaledgd", "gen_instance",
        "banded_sparse_matrix", "InstanceSource"])
def test_fraction_not_number_rejected(call):
    with pytest.raises(InvalidInput, match=r"must be in \[0, 1\]"):
        call()
