import dataclasses
import inspect

import numpy as np
import pytest

from lrpca import (LRPCA, InvalidInput, MissingGroundTruth, ParamSchedule,
                   TrainConfig, UnfoldingTrainer, gen_instance, train_schedule)


class TestLRPCAEstimator:
    def test_fit_sets_attributes(self):
        inst = gen_instance(40, 40, 2, 0.1, 3)
        est = LRPCA(rank=2, oracle=True, stop_mode="fixed_iters", max_iters=8)
        assert est.fit(inst.Y, X_true=inst.X_star) is est
        assert est.low_rank_.shape == (40, 40)
        assert est.sparse_.shape == (40, 40)
        assert est.n_iter_ == 8
        assert len(est.trace_) == 9

    def test_fit_transform_returns_low_rank(self):
        inst = gen_instance(30, 30, 2, 0.1, 5)
        est = LRPCA(rank=2, zeta=0.01, eta=0.6, stop_mode="fixed_iters",
                    max_iters=5)
        X = est.fit_transform(inst.Y)
        assert np.array_equal(X, est.low_rank_)

    def test_transform_does_not_touch_fitted_state(self):
        a = gen_instance(30, 30, 2, 0.1, 1)
        b = gen_instance(30, 30, 2, 0.1, 2)
        est = LRPCA(rank=2, zeta=0.01, stop_mode="fixed_iters", max_iters=4)
        est.fit(a.Y)
        before = est.low_rank_.copy()
        est.transform(b.Y)
        assert np.array_equal(est.low_rank_, before)

    def test_learned_schedule_accepted(self):
        inst = gen_instance(30, 30, 2, 0.1, 7)
        theta = ParamSchedule(zetas=(0.03, 0.015), etas=(0.6,), beta=1.0, phi=0.6)
        est = LRPCA(rank=2, schedule=theta, stop_mode="fixed_iters", max_iters=6)
        est.fit(inst.Y)
        assert est.n_iter_ == 6

    def test_oracle_requires_truth(self):
        inst = gen_instance(20, 20, 2, 0.1, 1)
        with pytest.raises(MissingGroundTruth):
            LRPCA(rank=2, oracle=True).fit(inst.Y)

    def test_no_source_configured(self):
        inst = gen_instance(20, 20, 2, 0.1, 1)
        with pytest.raises(InvalidInput):
            LRPCA(rank=2).fit(inst.Y)

    def test_get_set_params_round_trip(self):
        est = LRPCA(rank=3, zeta=0.5, eta=0.7, tol=1e-5)
        params = est.get_params()
        assert params["rank"] == 3 and params["eta"] == 0.7
        est.set_params(rank=4, tol=1e-6)
        assert est.rank == 4 and est.tol == 1e-6
        clone = LRPCA(**est.get_params())
        assert clone.get_params() == est.get_params()

    def test_set_params_rejects_unknown(self):
        with pytest.raises(ValueError):
            LRPCA().set_params(bogus=1)


class TestUnfoldingTrainer:
    def test_fit_generates_schedule(self):
        tr = UnfoldingTrainer(n=30, rank=2, alpha=0.1, K=1, K_bar=2,
                              sgd_steps_per_stage=2, grid=(0.5, 1.0, 0.5),
                              grid_instances=2, seed=4)
        tr.fit()
        assert tr.schedule_.K == 1
        assert len(tr.stage_losses_) == 2 * 2
        # (stage, step, loss, grad_norm) per SGD step.
        assert [row[:2] for row in tr.stage_losses_] == [(0, 0), (0, 1),
                                                         (1, 0), (1, 1)]
        assert all(np.isfinite(row[3]) and row[3] >= 0
                   for row in tr.stage_losses_)
        assert tr.schedule_.phi in (0.5, 1.0)

    def test_fit_on_instance_list(self):
        data = [gen_instance(25, 25, 2, 0.1, s) for s in range(4)]
        tr = UnfoldingTrainer(rank=2, K=1, K_bar=1, sgd_steps_per_stage=2,
                              grid=(1.0, 1.0, 0.5), grid_instances=2, seed=1)
        tr.fit(data)
        assert tr.schedule_.K == 1

    def test_deterministic(self):
        kw = dict(n=25, rank=2, alpha=0.1, K=1, K_bar=2,
                  sgd_steps_per_stage=2, grid=(0.5, 1.0, 0.5),
                  grid_instances=2, seed=9)
        assert UnfoldingTrainer(**kw).fit().schedule_ == \
            UnfoldingTrainer(**kw).fit().schedule_

    def test_defaults_are_library_defaults(self):
        params = UnfoldingTrainer().get_params()
        cfg = TrainConfig()
        for field in dataclasses.fields(TrainConfig):
            assert params[field.name] == getattr(cfg, field.name)
        assert UnfoldingTrainer()._config() == cfg
        grid_default = inspect.signature(train_schedule).parameters[
            "grid_instances"].default
        assert params["grid_instances"] == grid_default

    def test_get_params_contract(self):
        tr = UnfoldingTrainer(n=100, rank=3)
        assert tr.get_params()["n"] == 100
        tr.set_params(alpha=0.2)
        assert tr.alpha == 0.2
