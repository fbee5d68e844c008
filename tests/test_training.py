import numpy as np
import pytest

from lrpca import (InstanceSource, ParamSchedule, ProblemInstance,
                   TrainConfig, TrainingDiverged, gen_instance,
                   grid_search_tail, layerwise_train, stage_loss,
                   train_schedule)
from lrpca import training
from lrpca.solver import spectral_init
from lrpca.training import _advance, _stage_gradient
from oracles import central_difference_gradient


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


def _with_params(theta, values):
    """``theta`` with zeta_0..zeta_K, eta_1..eta_K replaced by ``values``."""
    return theta.replace(zetas=tuple(values[:theta.K + 1]),
                         etas=tuple(values[theta.K + 1:]))


def _norm_stage_loss(theta, k, inst):
    return stage_loss(theta, k, [inst]) / np.linalg.norm(inst.X_star) ** 2


def _kink_gap(theta, inst, k):
    """Smallest ``| |T_j| - zeta_j |`` over the entries of layers 0..k, with
    ``T_0 = Y`` (the init's threshold) and ``T_j = Y - L_{j-1} R_{j-1}^T``."""
    factors = spectral_init(inst.Y, inst.r, theta.zeta0,
                            seed=inst.seed).factors
    gap = float(np.abs(np.abs(inst.Y) - theta.zeta0).min())
    for j in range(1, k + 1):
        zeta, _ = theta.at(j)
        T = inst.Y - factors.product()
        gap = min(gap, float(np.abs(np.abs(T) - zeta).min()))
        factors = _advance(factors, inst.Y, theta, j, j)[0]
    return gap


class TestReverseModeGradient:
    @pytest.mark.parametrize("n1, n2, r, alpha, seed", [
        (40, 40, 2, 0.1, 11), (50, 30, 3, 0.15, 24)])
    def test_matches_central_differences_at_every_layer(self, n1, n2, r,
                                                        alpha, seed):
        # Tolerance: |analytic - FD| <= 1e-6 max|FD| + 1e-12 per parameter
        # (measured: at most 5e-9).  The instances are picked so that every
        # layer's threshold lies more than 50 FD steps from each of its
        # residual entries: a probe that crossed a clip kink would differ by
        # about 1e-3.  zeta_0 is itself a central difference (step 1e-5).
        inst = gen_instance(n1, n2, r, alpha, seed)
        z0 = 0.5 * float(np.abs(inst.Y).max())
        theta = ParamSchedule(zetas=tuple(z0 * 0.6 ** k for k in range(5)),
                              etas=(0.6, 0.55, 0.5, 0.62))
        h = 1e-6
        assert _kink_gap(theta, inst, theta.K) > 50 * h
        values = theta.zetas + theta.etas
        for k in range(theta.K + 1):
            loss, g_zeta, g_eta = _stage_gradient(theta, inst, k)
            assert loss == pytest.approx(_norm_stage_loss(theta, k, inst),
                                         rel=1e-12)
            fd = central_difference_gradient(
                lambda v: _norm_stage_loss(_with_params(theta, v), k, inst),
                values, h)
            got = np.concatenate((g_zeta, g_eta))
            tol = 1e-6 * np.abs(fd).max() + 1e-12
            np.testing.assert_array_less(np.abs(got - fd), tol)
            # Layers past k do not act on the stage-k loss.
            assert not g_zeta[k + 1:].any() and not g_eta[k:].any()


class TestLayerwiseTrain:
    def test_deterministic(self):
        cfg = TrainConfig(K=2, K_bar=3, sgd_steps_per_stage=3)
        a = layerwise_train(small_source(seed=4), cfg)
        b = layerwise_train(small_source(seed=4), cfg)
        assert a == b

    def test_outlier_free_stage0_collapses(self):
        # On clean data a large-enough initial threshold zeroes the loss;
        # training must find it from the deliberately low starting point.
        source = small_source(alpha=0.0, seed=8)
        cfg = TrainConfig(K=0, K_bar=0, sgd_steps_per_stage=30,
                          learning_rate=0.5)
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
        cfg = TrainConfig(K=2, K_bar=3, sgd_steps_per_stage=8)
        held = [source.instance(900 + i) for i in range(8)]
        before = stage_loss(_initial_schedule(source, cfg), 2, held)
        theta = layerwise_train(source, cfg)
        after = stage_loss(theta, 2, held)
        assert after < before
        assert all(e > 0 for e in theta.etas)

    def test_divergence_reported_with_stage(self):
        bad = ProblemInstance(Y=np.full((5, 5), np.nan),
                              X_star=np.eye(5), S_star=np.zeros((5, 5)),
                              r=1, alpha=0.0, seed=0)

        class BadSource:
            def instance(self, i):
                return bad

        cfg = TrainConfig(K=1, K_bar=1, sgd_steps_per_stage=2)
        with pytest.raises(TrainingDiverged) as info:
            layerwise_train(BadSource(), cfg)
        assert info.value.stage == 0

    def test_nan_gradient_reported_with_stage(self, monkeypatch):
        # Stage 0 has no layer to backpropagate through; stage 1 is the
        # first whose gradient comes from the backward sweep.
        def nan_backward(*args):
            L_bar, R_bar, zeta_bar, _ = real_backward(*args)
            return L_bar, R_bar, zeta_bar, float("nan")

        real_backward = training._soft_backward
        monkeypatch.setattr(training, "_soft_backward", nan_backward)
        cfg = TrainConfig(K=2, K_bar=2, sgd_steps_per_stage=2)
        with pytest.raises(TrainingDiverged) as info:
            layerwise_train(small_source(seed=2), cfg)
        assert info.value.stage == 1

    def test_etas_stay_positive(self, monkeypatch):
        # A gradient that pushes every step size down on every step: the
        # trust cap moves eta by at most a quarter of itself, so 60 steps
        # shrink it a lot but never to or below zero.
        def falling(theta, inst, k):
            return 1.0, np.zeros(theta.K + 1), np.full(theta.K, 1e6)

        monkeypatch.setattr(training, "_stage_gradient", falling)
        cfg = TrainConfig(K=2, K_bar=2, sgd_steps_per_stage=20)
        theta = layerwise_train(small_source(seed=2), cfg)
        assert all(0.0 < e < 1e-4 for e in theta.etas)


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

    def test_empty_dataset_rejected(self):
        theta = ParamSchedule(zetas=(0.02, 0.01), etas=(0.5,))
        with pytest.raises(ValueError):
            grid_search_tail(theta, [], TrainConfig(K=1, K_bar=2))


class TestTrainSchedule:
    def test_end_to_end_small(self):
        theta = train_schedule(small_source(seed=6),
                               TrainConfig(K=2, K_bar=4,
                                           sgd_steps_per_stage=4,
                                           grid=(0.5, 1.0, 0.5)),
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
