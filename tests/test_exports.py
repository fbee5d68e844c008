import importlib
import pkgutil

import pytest

import lrpca
from lrpca import (InvalidFraction, InvalidInput, InvalidRank,
                   InvalidThreshold, OracleSchedule, ParamSchedule,
                   TrainConfig, grid_search_tail, rescale_schedule)


def test_every_exported_name_resolves():
    modules = [lrpca] + [importlib.import_module(f"lrpca.{info.name}")
                         for info in pkgutil.iter_modules(lrpca.__path__)]
    missing = [f"{mod.__name__}.{name}" for mod in modules
               for name in getattr(mod, "__all__", ())
               if not hasattr(mod, name)]
    assert not missing


@pytest.mark.parametrize("error", [InvalidRank, InvalidFraction,
                                   InvalidThreshold])
def test_range_errors_are_invalid_input(error):
    assert issubclass(error, InvalidInput)
    assert issubclass(error, ValueError)


# A caller's bad setting raises InvalidInput, which callers that catch
# ValueError still catch.
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
