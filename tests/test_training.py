import numpy as np
import pytest

from lrpca import (InstanceSource, ParamSchedule, ProblemInstance,
                   TrainConfig, TrainingDiverged, gen_instance,
                   grid_search_tail, layerwise_train, stage_loss,
                   train_schedule)
from lrpca.training import _StepContext


def small_source(alpha=0.1, seed=0, n=40, r=2):
    return InstanceSource(n, n, r, alpha, base_seed=seed)


class TestStageLoss:
    def test_outlier_free_perfect_init(self):
        inst = gen_instance(30, 30, 2, 0.0, 3)
        theta = ParamSchedule(zetas=(np.abs(inst.X_star).max(),), etas=())
        loss = stage_loss(theta, 0, [inst])
        assert loss <= 1e-16 * np.linalg.norm(inst.X_star) ** 2

    def test_zero_threshold_absorbs_observation(self):
        batch = [gen_instance(30, 30, 2, 0.1, s) for s in (1, 2, 3)]
        theta = ParamSchedule(zetas=(0.0,), etas=())
        loss = stage_loss(theta, 0, batch)
        expect = np.mean([np.linalg.norm(b.X_star) ** 2 for b in batch])
        assert loss == pytest.approx(expect, rel=1e-12)

    def test_duplicated_instance_mean_invariance(self):
        inst = gen_instance(25, 25, 2, 0.1, 5)
        theta = ParamSchedule(zetas=(0.01, 0.005), etas=(0.5,))
        single = stage_loss(theta, 1, [inst])
        doubled = stage_loss(theta, 1, [inst, inst])
        assert doubled == pytest.approx(single, rel=1e-14)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            stage_loss(ParamSchedule(zetas=(0.1,), etas=()), 0, [])


class TestFiniteDifferenceGradient:
    def test_self_consistency_at_half_step(self):
        # Central differences at step h and h/2 agree to O(h^2) on a smooth
        # point of the loss.
        inst = gen_instance(40, 40, 2, 0.1, 11)
        theta = ParamSchedule(zetas=(0.5 * np.abs(inst.Y).max(), 0.003),
                              etas=(0.55,))
        k = 1

        def grad(idx, h):
            from lrpca.training import _fd_gradient
            ctx = _StepContext(theta, inst, k)
            return _fd_gradient(ctx, idx, h)

        h = 1e-4
        for idx in (0, 1, 2):  # zeta_0, zeta_1, eta_1
            g1 = grad(idx, h)
            g2 = grad(idx, h / 2)
            scale = max(abs(g1), abs(g2), 1e-9)
            assert abs(g1 - g2) / scale <= 1e-3

    def test_probe_reuses_center_prefix(self):
        # A probe of a late parameter must agree exactly with a full forward
        # pass of the perturbed schedule.
        from lrpca.training import _forward, _perturbed, _norm_loss
        inst = gen_instance(30, 30, 2, 0.1, 21)
        theta = ParamSchedule(zetas=(0.01, 0.006, 0.003), etas=(0.6, 0.6))
        ctx = _StepContext(theta, inst, 2)
        cand = _perturbed(theta, 2, 0.009)  # zeta_2
        via_ctx = ctx.probe_loss(cand, 2)
        X, _ = _forward(cand, inst, 2)
        assert via_ctx == pytest.approx(_norm_loss(X, inst), rel=1e-14)


class TestLayerwiseTrain:
    def test_deterministic(self):
        cfg = TrainConfig(K=2, K_bar=3, sgd_steps_per_stage=3, seed=4)
        a = layerwise_train(small_source(seed=4), cfg)
        b = layerwise_train(small_source(seed=4), cfg)
        assert a == b

    def test_outlier_free_stage0_collapses(self):
        # On clean data a large-enough initial threshold zeroes the loss;
        # training must find it from the deliberately low starting point.
        source = small_source(alpha=0.0, seed=8)
        cfg = TrainConfig(K=0, K_bar=0, sgd_steps_per_stage=30,
                          learning_rate=0.5, seed=8)
        theta0_loss = stage_loss(
            ParamSchedule(zetas=(0.5 * np.abs(source.instance(0).Y).max(),),
                          etas=()),
            0, [source.instance(100 + i) for i in range(5)])
        theta = layerwise_train(source, cfg)
        trained_loss = stage_loss(theta, 0,
                                  [source.instance(100 + i) for i in range(5)])
        assert trained_loss <= 1e-6 * theta0_loss

    def test_loss_improves_on_corrupted_family(self):
        from lrpca.training import _initial_schedule
        source = small_source(alpha=0.1, seed=3)
        cfg = TrainConfig(K=2, K_bar=3, sgd_steps_per_stage=8, seed=3)
        held = [source.instance(900 + i) for i in range(8)]
        before = stage_loss(_initial_schedule(source, cfg), 2, held)
        theta = layerwise_train(source, cfg)
        after = stage_loss(theta, 2, held)
        assert after < before

    def test_divergence_reported_with_stage(self):
        bad = ProblemInstance(Y=np.full((5, 5), np.nan),
                              X_star=np.eye(5), S_star=np.zeros((5, 5)),
                              r=1, alpha=0.0, seed=0)

        class BadSource:
            def instance(self, i):
                return bad

        cfg = TrainConfig(K=1, K_bar=1, sgd_steps_per_stage=2, seed=0)
        with pytest.raises(TrainingDiverged) as info:
            layerwise_train(BadSource(), cfg)
        assert info.value.stage == 0


class TestGridSearchTail:
    def test_singleton_grid(self):
        theta = ParamSchedule(zetas=(0.02, 0.01), etas=(0.5,))
        cfg = TrainConfig(K=1, K_bar=3, grid=(1.0, 1.0, 0.1))
        out = grid_search_tail(theta, [gen_instance(20, 20, 2, 0.1, 3)], cfg)
        assert (out.beta, out.phi) == (1.0, 1.0)

    def test_tie_break_smallest_phi_then_beta(self):
        # With K_bar == K no tail iterations run, so every pair ties exactly.
        theta = ParamSchedule(zetas=(0.02, 0.01), etas=(0.5,))
        cfg = TrainConfig(K=1, K_bar=1, grid=(0.5, 1.0, 0.5))
        out = grid_search_tail(theta, [gen_instance(20, 20, 2, 0.1, 3)], cfg)
        assert (out.phi, out.beta) == (0.5, 0.5)

    def test_returned_pair_minimizes_over_grid(self):
        theta = ParamSchedule(zetas=(0.03, 0.015, 0.008), etas=(0.6, 0.6))
        dataset = [gen_instance(30, 30, 2, 0.1, 40 + i) for i in range(3)]
        cfg = TrainConfig(K=2, K_bar=5, grid=(0.3, 0.9, 0.3))
        out = grid_search_tail(theta, dataset, cfg)

        def eval_pair(beta, phi):
            cand = theta.replace(beta=beta, phi=phi)
            return stage_loss(cand, 5, dataset)

        best_loss = eval_pair(out.beta, out.phi)
        for beta in (0.3, 0.6, 0.9):
            for phi in (0.3, 0.6, 0.9):
                assert best_loss <= eval_pair(beta, phi) * (1 + 1e-12)

    def test_threads_match_serial(self):
        # Worker threads run the solver's iteration pass concurrently, so its
        # scratch buffers must not be shared between calls.
        theta = ParamSchedule(zetas=(0.03, 0.015, 0.008), etas=(0.6, 0.6))
        dataset = [gen_instance(30, 30, 2, 0.1, 50 + i) for i in range(3)]
        cfg = TrainConfig(K=2, K_bar=5, grid=(0.3, 0.9, 0.3))
        assert (grid_search_tail(theta, dataset, cfg, jobs=2)
                == grid_search_tail(theta, dataset, cfg, jobs=1))

    def test_empty_dataset_rejected(self):
        theta = ParamSchedule(zetas=(0.02, 0.01), etas=(0.5,))
        with pytest.raises(ValueError):
            grid_search_tail(theta, [], TrainConfig(K=1, K_bar=2))


class TestTrainSchedule:
    def test_end_to_end_small(self):
        theta = train_schedule(small_source(seed=6),
                               TrainConfig(K=2, K_bar=4,
                                           sgd_steps_per_stage=4,
                                           grid=(0.5, 1.0, 0.5), seed=6),
                               grid_instances=2)
        assert theta.K == 2
        assert theta.beta in (0.5, 1.0)
        assert theta.phi in (0.5, 1.0)
        assert all(z >= 0 for z in theta.zetas)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(K=5, K_bar=4)
        with pytest.raises(ValueError):
            TrainConfig(grid=(0.1, 1.0, 0.0))
        with pytest.raises(ValueError):
            TrainConfig(fd_epsilon=0.0)
