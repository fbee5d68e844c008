import importlib
import pkgutil

import numpy as np
import pytest

import lrpca
from lrpca import (FixedSchedule, InvalidInput, OracleSchedule, ParamSchedule,
                   TrainConfig, grid_search_tail, matrix_norm,
                   rescale_schedule, soft_threshold, solve, spectral_init,
                   sparsify_top_fraction, truncated_svd)


def test_every_exported_name_resolves():
    modules = [lrpca] + [importlib.import_module(f"lrpca.{info.name}")
                         for info in pkgutil.iter_modules(lrpca.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


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
