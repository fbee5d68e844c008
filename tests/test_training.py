from dataclasses import replace

import numpy as np
import pytest

from lrpca import (InstanceSource, InvalidInput, ParamSchedule,
                   ProblemInstance, TrainConfig, TrainingDiverged,
                   gen_instance, grid_search_tail, layerwise_train,
                   train_schedule)
from lrpca import solver, training
from lrpca.solver import FactorPair, _Scratch, spectral_init
from lrpca.training import _advance, _stage_gradient
from conftest import ListSource, run_concurrently, traced_peak
from oracles import (central_difference_gradient, exhaustive_tail_search,
                     stage_loss)


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


def _with_params(theta, values):
    """``theta`` with zeta_0..zeta_K, eta_1..eta_K replaced by ``values``."""
    return replace(theta, zetas=tuple(values[:theta.K + 1]),
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
        factors = _advance(factors, inst.Y, theta, j, j, _Scratch())[-1]
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
        # about 1e-3.  Every parameter's gradient is exact, zeta_0's too: the
        # backward sweep's adjoints of the init's factors meet the init's
        # forward-mode tangent.
        inst = gen_instance(n1, n2, r, alpha, seed)
        z0 = 0.5 * float(np.abs(inst.Y).max())
        theta = ParamSchedule(zetas=tuple(z0 * 0.6 ** k for k in range(5)),
                              etas=(0.6, 0.55, 0.5, 0.62))
        h = 1e-6
        assert _kink_gap(theta, inst, theta.K) > 50 * h
        values = theta.zetas + theta.etas
        for k in range(theta.K + 1):
            loss, g_zeta, g_eta = _stage_gradient(theta, inst, k, _Scratch())
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


def _off_kinks(Y, z):
    """A threshold near ``z`` midway between the two entries of ``|Y|`` that
    are farthest apart among the 200 around ``z``."""
    a = np.sort(np.abs(Y).ravel())
    i = int(np.searchsorted(a, z))
    w = a[max(i - 100, 0):i + 100]
    j = int(np.argmax(np.diff(w)))
    return 0.5 * (w[j] + w[j + 1])


def _check_init_tangent(Y, r, zeta0, seed):
    """The init's tangent in zeta_0 against central differences.

    Only ``d(L_0 R_0^T)`` is fixed (the tangent picks one gauge of the
    factors), so both sides are read through a random probe ``W``:
    ``<W, dL R^T + L dR^T>`` against differences of ``<W, L_0 R_0^T>``.
    Tolerance 1e-6 relative (measured: at most 5e-8); every entry of ``Y``
    lies more than 50 steps from ``zeta0``.
    """
    h = 1e-7
    assert np.abs(np.abs(Y) - zeta0).min() > 50 * h
    W = np.random.default_rng(0).standard_normal(Y.shape)
    state, d = spectral_init(Y, r, zeta0, seed=seed, tangent=True)
    L, R = state.factors.L, state.factors.R
    got = float(np.vdot(W, d.L @ R.T + L @ d.R.T))
    fd = central_difference_gradient(
        lambda v: float(np.vdot(W, spectral_init(Y, r, v[0],
                                                 seed=seed).low_rank())),
        [zeta0], h)[0]
    assert np.isfinite(got)
    assert abs(got - fd) <= 1e-6 * abs(fd)


def _block_twins(n, eps):
    """``diag(B, (1 + eps) B)`` for one corrupted rank-1 n/2 x n/2 ``B``:
    every singular value appears twice, so at r = 2 the kept pair ties
    (``eps = 0``) or nearly ties, while sigma_2 and sigma_3 stay apart."""
    b = gen_instance(n // 2, n // 2, 1, 0.1, 9)
    out = []
    for M in (b.Y, b.X_star):
        D = np.zeros((n, n))
        D[:n // 2, :n // 2], D[n // 2:, n // 2:] = M, (1 + eps) * M
        out.append(D)
    return ProblemInstance(Y=out[0], X_star=out[1], S_star=out[0] - out[1],
                           r=2, alpha=0.1, seed=1)


class TestInitTangent:
    # A short side up to 2 (r + 10) takes the exact SVD, a longer one the
    # range sketch; one square, one wide and one tall shape for each, at a
    # loose and a tight threshold.
    @pytest.mark.parametrize("n1, n2, r, seed", [
        (20, 20, 2, 1), (24, 60, 3, 1), (120, 20, 2, 2),
        (40, 40, 2, 15), (40, 150, 3, 3), (150, 40, 2, 3)])
    @pytest.mark.parametrize("frac", [1.0, 0.3])
    def test_matches_central_differences(self, n1, n2, r, seed, frac):
        inst = gen_instance(n1, n2, r, 0.1, seed)
        zeta0 = _off_kinks(inst.Y, frac * 0.5 * np.abs(inst.Y).max())
        _check_init_tangent(inst.Y, r, zeta0, seed)

    # Tall and wide shapes at least 8 times as long as their short side
    # (over 2 (r + 10)) take the short side's Gram; the sketch is ruled out.
    # Loose and tight thresholds where the entries near zeta_0 leave room
    # for the differences: 2400 x 60 has none at the tight one.
    @pytest.mark.parametrize("n1, n2, r, seed, frac", [
        (400, 40, 2, 1, 1.0), (400, 40, 2, 1, 0.6),
        (40, 400, 3, 1, 1.0), (40, 400, 3, 1, 0.6),
        (520, 30, 1, 4, 1.0), (520, 30, 1, 4, 0.6),
        (2400, 60, 1, 4, 1.0)])
    def test_gram_route_matches_central_differences(self, monkeypatch, n1,
                                                    n2, r, seed, frac):
        def no_sketch(*args, **kwargs):
            raise AssertionError("the init took the sketch")

        monkeypatch.setattr(solver, "_sketch_svd", no_sketch)
        inst = gen_instance(n1, n2, r, 0.1, seed)
        zeta0 = _off_kinks(inst.Y, frac * 0.5 * np.abs(inst.Y).max())
        _check_init_tangent(inst.Y, r, zeta0, seed)

    @pytest.mark.parametrize("clipped", [1, 3, 8])
    def test_sketch_of_rank_below_its_width(self, clipped):
        # Clean rank-2 data with a few entries clipped: A = Y - S_0 has rank
        # at most 2 + clipped < r + 10, so the sketch spans its range.
        inst = gen_instance(40, 40, 2, 0.0, 4)
        a = np.sort(np.abs(inst.Y).ravel())[::-1]
        zeta0 = 0.5 * (a[clipped - 1] + a[clipped])
        _check_init_tangent(inst.Y, 2, zeta0, 1)

    @pytest.mark.parametrize("n", [20, 60])
    @pytest.mark.parametrize("eps", [0.0, 1e-10])
    def test_tied_top_singular_values(self, n, eps):
        inst = _block_twins(n, eps)
        zeta0 = _off_kinks(inst.Y, 0.4 * np.abs(inst.Y).max())
        _check_init_tangent(inst.Y, 2, zeta0, inst.seed)
        # The stage-1 gradient in zeta_0 stays finite and exact as well.
        theta = ParamSchedule(zetas=(zeta0, 0.5 * zeta0), etas=(0.5,))
        assert _kink_gap(theta, inst, 1) > 50e-6
        g = _stage_gradient(theta, inst, 1, _Scratch())[1][0]
        fd = central_difference_gradient(
            lambda v: _norm_stage_loss(_with_params(theta, v), 1, inst),
            theta.zetas + theta.etas, 1e-6)[0]
        assert np.isfinite(g)
        assert abs(g - fd) <= 1e-6 * abs(fd) + 1e-12


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

    @pytest.mark.parametrize("n", [20, 30])
    def test_rank_deficient_init_reported_with_stage(self, n):
        # A = Y - S_0 = ones / 2 has rank 1 < r: its rank-2 factors have no
        # derivative in zeta_0, so stage 0 raises rather than stepping to
        # NaN thresholds.  n = 20 takes the exact SVD, n = 30 the sketch.
        ones = ProblemInstance(Y=np.ones((n, n)), X_star=np.ones((n, n)),
                               S_star=np.zeros((n, n)), r=2, alpha=0.0,
                               seed=0)

        class OnesSource:
            def instance(self, i):
                return ones

        cfg = TrainConfig(K=0, K_bar=0, sgd_steps_per_stage=1)
        with pytest.raises(TrainingDiverged, match="rank") as info:
            layerwise_train(OnesSource(), cfg)
        assert info.value.stage == 0

    def test_callback_gets_loss_and_gradient_norm(self, monkeypatch):
        def fixed(theta, inst, k, scratch):
            return 0.5, np.full(theta.K + 1, 3.0), np.full(theta.K, 4.0)

        monkeypatch.setattr(training, "_stage_gradient", fixed)
        rows = []
        cfg = TrainConfig(K=1, K_bar=1, sgd_steps_per_stage=2)
        layerwise_train(small_source(seed=2), cfg,
                        callback=lambda *row: rows.append(row))
        # |(3, 3, 4)| = sqrt(34) for the K = 1 gradient (zeta_0, zeta_1, eta_1).
        assert rows == [(stage, step, 0.5, np.sqrt(34.0))
                        for stage in (0, 1) for step in (0, 1)]

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
        def falling(theta, inst, k, scratch):
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

    def test_returned_pair_minimizes_over_grid(self):
        theta = ParamSchedule(zetas=(0.03, 0.015, 0.008), etas=(0.6, 0.6))
        dataset = [gen_instance(30, 30, 2, 0.1, 40 + i) for i in range(3)]
        cfg = TrainConfig(K=2, K_bar=5, grid=(0.3, 0.9, 0.3))
        out = grid_search_tail(theta, dataset, cfg)

        def eval_pair(beta, phi):
            cand = replace(theta, beta=beta, phi=phi)
            return stage_loss(cand, 5, dataset)

        best_loss = eval_pair(out.beta, out.phi)
        for beta in (0.3, 0.6, 0.9):
            for phi in (0.3, 0.6, 0.9):
                assert best_loss <= eval_pair(beta, phi) * (1 + 1e-12)

    def test_empty_dataset_rejected(self):
        theta = ParamSchedule(zetas=(0.02, 0.01), etas=(0.5,))
        with pytest.raises(ValueError):
            grid_search_tail(theta, [], TrainConfig(K=1, K_bar=2))
        with pytest.raises(InvalidInput, match="nonempty"):
            grid_search_tail(theta, iter(()), TrainConfig(K=1, K_bar=2))

    def test_generator_read_once_matches_list(self):
        # A one-shot generator is read once, in order, and gives the
        # schedule a list of the same instances gives, to the bit.
        dataset = [gen_instance(40, 40, 2, 0.1, 50 + i) for i in range(4)]
        theta = self.start_schedule(dataset[0], K=3, decay=0.65)
        cfg = TrainConfig(K=3, K_bar=8, grid=(0.2, 1.0, 0.2))
        read = []

        def stream():
            for i, inst in enumerate(dataset):
                read.append(i)
                yield inst

        out = grid_search_tail(theta, stream(), cfg)
        assert read == [0, 1, 2, 3]
        assert out == grid_search_tail(theta, dataset, cfg)

    # The search prunes, the oracle runs every pair on every instance; both
    # must return the same schedule, to the bit.
    @staticmethod
    def start_schedule(inst, K, decay):
        # SGD's starting profile (zeta_k = 0.5 max|Y| decay^k, eta 0.65).
        z0 = 0.5 * float(np.abs(inst.Y).max())
        return ParamSchedule(zetas=tuple(z0 * decay ** k for k in range(K + 1)),
                             etas=(0.65,) * K)

    @staticmethod
    def count_tail_passes(monkeypatch):
        # One _advance call from iteration K + 1 is one (pair, instance)
        # evaluation of the tail.
        calls = []
        real = training._advance

        def counting(factors, Y, theta, j0, k, scratch):
            if j0 == theta.K + 1:
                calls.append((theta.beta, theta.phi))
            return real(factors, Y, theta, j0, k, scratch)

        monkeypatch.setattr(training, "_advance", counting)
        return calls

    def test_matches_exhaustive_search_on_100_pairs(self, monkeypatch):
        dataset = [gen_instance(40, 40, 2, 0.1, 50 + i) for i in range(4)]
        theta = self.start_schedule(dataset[0], K=3, decay=0.65)
        cfg = TrainConfig(K=3, K_bar=8)  # the default 10 x 10 grid
        calls = self.count_tail_passes(monkeypatch)
        out = grid_search_tail(theta, dataset, cfg)
        assert len(set(calls)) == 100
        # The spread grid is pruned: most pairs stop after a few instances.
        assert len(calls) < 100 * len(dataset)
        assert out == exhaustive_tail_search(theta, dataset, cfg)

    def test_tie_break_smallest_phi_then_beta(self, monkeypatch):
        # With K_bar == K no tail iterations run, so every pair ties exactly:
        # ties are never dropped, and the smallest (phi, beta) wins.
        dataset = [gen_instance(30, 30, 2, 0.1, 60 + i) for i in range(3)]
        theta = self.start_schedule(dataset[0], K=2, decay=0.65)
        cfg = TrainConfig(K=2, K_bar=2, grid=(0.2, 1.0, 0.2))
        calls = self.count_tail_passes(monkeypatch)
        out = grid_search_tail(theta, dataset, cfg)
        assert len(calls) == 25 * len(dataset)
        assert (out.phi, out.beta) == (0.2, 0.2)
        assert out == exhaustive_tail_search(theta, dataset, cfg)

    def test_matches_exhaustive_search_when_winner_is_last(self):
        # Thresholds that already fell fast: the slowest tail, (1.0, 1.0),
        # the last pair in grid order, wins.
        dataset = [gen_instance(40, 40, 2, 0.1, 50 + i) for i in range(4)]
        theta = self.start_schedule(dataset[0], K=1, decay=0.05)
        cfg = TrainConfig(K=1, K_bar=4, grid=(0.2, 1.0, 0.2))
        out = grid_search_tail(theta, dataset, cfg)
        assert (out.beta, out.phi) == (1.0, 1.0)
        assert out == exhaustive_tail_search(theta, dataset, cfg)

    @staticmethod
    def nan_tail(monkeypatch, pair, on_instance=None):
        # The tail of (beta, phi) == pair returns NaN factors on every
        # instance, or on the one whose Y is on_instance.
        real = training._advance

        def poisoned(factors, Y, theta, j0, k, scratch):
            states = real(factors, Y, theta, j0, k, scratch)
            if (j0 == theta.K + 1 and (theta.beta, theta.phi) in pair
                    and (on_instance is None or Y is on_instance)):
                nan = np.full_like(states[-1].L, np.nan)
                states[-1] = FactorPair(nan, states[-1].R)
            return states

        monkeypatch.setattr(training, "_advance", poisoned)

    @pytest.mark.parametrize("where", ["first_pair", "winner"])
    @pytest.mark.parametrize("on_last_instance", [False, True])
    def test_nan_tail_never_wins(self, monkeypatch, where, on_last_instance):
        # A NaN mean never wins: not for the first pair in grid order (no
        # tuple compares less than (nan, ...), so a plain min picks it) nor
        # for the pair that wins without it, whether the NaN shows on the
        # first instance, which sets the visit order, or on the last.
        dataset = [gen_instance(40, 40, 2, 0.1, 50 + i) for i in range(4)]
        theta = self.start_schedule(dataset[0], K=3, decay=0.65)
        cfg = TrainConfig(K=3, K_bar=8, grid=(0.2, 1.0, 0.2))
        clean = grid_search_tail(theta, dataset, cfg)
        assert (clean.beta, clean.phi) != (0.2, 0.2)
        pair = {"first_pair": (0.2, 0.2),
                "winner": (clean.beta, clean.phi)}[where]
        self.nan_tail(monkeypatch, {pair},
                      dataset[-1].Y if on_last_instance else None)
        out = grid_search_tail(theta, dataset, cfg)
        assert (out.beta, out.phi) != pair
        assert out == exhaustive_tail_search(theta, dataset, cfg)
        if where == "first_pair":
            assert out == clean

    def test_no_finite_pair_raises(self, monkeypatch):
        dataset = [gen_instance(30, 30, 2, 0.1, 60 + i) for i in range(2)]
        theta = self.start_schedule(dataset[0], K=2, decay=0.65)
        cfg = TrainConfig(K=2, K_bar=4, grid=(0.5, 1.0, 0.5))
        self.nan_tail(monkeypatch, {(b, p) for b in (0.5, 1.0)
                                    for p in (0.5, 1.0)})
        with pytest.raises(TrainingDiverged, match="finite") as info:
            grid_search_tail(theta, dataset, cfg)
        assert info.value.stage == cfg.K_bar


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

    def test_instance_list_source(self):
        # Any object with instance(i) is a source: here a fixed list of four,
        # which SGD and the grid phase cycle through.
        data = [gen_instance(25, 25, 2, 0.1, s) for s in range(4)]
        cfg = TrainConfig(K=1, K_bar=1, sgd_steps_per_stage=2,
                          grid=(1.0, 1.0, 0.5))
        a, b = (train_schedule(ListSource(data), cfg, grid_instances=2)
                for _ in range(2))
        assert a == b
        assert a.K == cfg.K
        assert np.isfinite(a.zetas + a.etas + (a.beta, a.phi)).all()

    def test_mixed_shapes_match_fresh_buffers(self, monkeypatch):
        # A source may change shape between instances, so the run's one set
        # of slab buffers is remade; the schedule is the one learned with
        # fresh buffers in every pass.
        data = [gen_instance(*shape, 2, 0.1, s) for s, shape in
                enumerate([(30, 40), (3000, 30), (30, 40), (45, 25)])]
        cfg = TrainConfig(K=2, K_bar=3, sgd_steps_per_stage=2,
                          grid=(0.5, 1.0, 0.5))
        reused = train_schedule(ListSource(data), cfg, grid_instances=3)
        real_slabs = _Scratch.slabs

        def fresh_slabs(self, n1, n2):
            self._bufs = ()  # a new set at every pass
            return real_slabs(self, n1, n2)

        monkeypatch.setattr(_Scratch, "slabs", fresh_slabs)
        assert train_schedule(ListSource(data), cfg, grid_instances=3) == reused

    def test_concurrent_runs_match_serial(self):
        # Each run owns its slab buffers, so runs on threads share nothing.
        cfg = TrainConfig(K=2, K_bar=3, sgd_steps_per_stage=2,
                          grid=(0.5, 1.0, 0.5))
        sources = [small_source(seed=3, n=60), small_source(seed=9, n=50),
                   small_source(seed=4, n=60)]
        serial = [train_schedule(src, cfg, grid_instances=2) for src in sources]
        assert run_concurrently(
            [lambda s=s: train_schedule(s, cfg, grid_instances=2)
             for s in sources]) == serial

    def test_callback_sees_every_sgd_step(self):
        rows = []
        cfg = TrainConfig(K=1, K_bar=2, sgd_steps_per_stage=2,
                          grid=(0.5, 1.0, 0.5))
        theta = train_schedule(small_source(n=30, seed=4), cfg,
                               grid_instances=2,
                               callback=lambda *row: rows.append(row))
        assert theta.K == 1
        assert theta.phi in (0.5, 1.0)
        # (stage, step, loss, grad_norm) per SGD step, in order.
        assert [row[:2] for row in rows] == [(0, 0), (0, 1), (1, 0), (1, 1)]
        assert all(np.isfinite(row[2:]).all() and row[3] >= 0 for row in rows)

    # The source protocol: instance 0 is the probe, SGD reads the next
    # (K + 1) * steps instances in order and the grid phase the
    # grid_instances (20 by default) that follow.
    @pytest.mark.parametrize("grid_instances", [2, None])
    def test_reads_probe_then_sgd_then_grid_instances(self, grid_instances):
        family = small_source(n=20, seed=5)
        read = []

        class CountingSource:
            def instance(self, i):
                read.append(i)
                return family.instance(i)

        cfg = TrainConfig(K=1, K_bar=1, sgd_steps_per_stage=2,
                          grid=(1.0, 1.0, 0.5))
        kw = {} if grid_instances is None else {"grid_instances": grid_instances}
        train_schedule(CountingSource(), cfg, **kw)
        n_grid = 20 if grid_instances is None else grid_instances
        assert read == list(range(1 + 2 * 2 + n_grid))

    def test_grid_phase_keeps_Y_and_X_star_only(self):
        # The grid phase reads its instances from a generator and keeps Y,
        # X_star and thin factors of each.  At n = 200 one slab is the whole
        # matrix, so the tail passes hold 4 x (Y, X_star), the final X and
        # three slab buffers: 12.3 n^2 doubles measured.  Four whole
        # instances held at once read 16.3 n^2.
        n = 200
        cfg = TrainConfig(K=2, K_bar=4, sgd_steps_per_stage=1,
                          grid=(0.2, 1.0, 0.2))
        source = InstanceSource(n, n, 5, 0.1, base_seed=7)
        _, peak = traced_peak(
            lambda: train_schedule(source, cfg, grid_instances=4))
        assert peak < 13 * n * n * 8

    # 2.5 passed the old `< 1` test, ran every SGD step and then failed
    # in range().
    @pytest.mark.parametrize("grid_instances", [0, 2.5])
    def test_no_grid_instances_rejected_before_sgd(self, monkeypatch,
                                                   grid_instances):
        def no_step(*args):
            raise AssertionError("an SGD step ran")

        monkeypatch.setattr(training, "_stage_gradient", no_step)
        cfg = TrainConfig(K=1, K_bar=2, sgd_steps_per_stage=1)
        with pytest.raises(InvalidInput, match="grid_instances"):
            train_schedule(small_source(n=20), cfg,
                           grid_instances=grid_instances)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(K=5, K_bar=4)
        with pytest.raises(ValueError):
            TrainConfig(grid=(0.1, 1.0, 0.0))

    # The grid is (min, max, step); another length or a scalar fails where
    # it enters, not when it is unpacked.
    @pytest.mark.parametrize("grid, match", [
        ((0.1, 1.0), "grid must have 3 values, got 2"),
        ((0.1, 1.0, 0.1, 0.1), "grid must have 3 values, got 4"),
        (0.1, "grid must be a tuple, a list or a 1-D array, got 0.1"),
    ], ids=["two", "four", "scalar"])
    def test_grid_not_three_values_rejected(self, grid, match):
        with pytest.raises(InvalidInput, match=match):
            TrainConfig(grid=grid)

    @pytest.mark.parametrize("grid, count", [
        ((0.1, 1.0, 0.1), 10), ((0.2, 1.0, 0.2), 5), ((0.5, 1.0, 0.5), 2),
        ((0.3, 0.9, 0.3), 3), ((1.0, 1.0, 0.1), 1), ((1.0, 1.0, 1.0), 1),
        # A step below the 12-digit rounding still gives each value once.
        ((0.5, 0.5, 1e-13), 1),
        ((0.001, 1.0, 0.001), 1000),  # the most values an axis may have
    ])
    def test_grid_values_increase_within_bounds(self, grid, count):
        values = TrainConfig(grid=grid).grid_values()
        assert len(values) == count
        assert values[0] == grid[0]
        assert all(a < b for a, b in zip(values, values[1:]))
        assert grid[0] <= min(values) and max(values) <= grid[1]

    # The tail search may evaluate every pair of values, so a step that
    # makes millions of them fails when the config is built.
    @pytest.mark.parametrize("grid, count", [((0.5, 1.0, 0.0005), "1001"),
                                             ((0.1, 1.0, 1e-9), "900000001"),
                                             ((0.1, 1.0, 1e-320), "inf")])
    def test_grid_with_too_many_values_rejected(self, grid, count):
        with pytest.raises(InvalidInput,
                           match=f"has {count} values per axis, more than 1000"):
            TrainConfig(grid=grid)

    # A count that is not an integer would fail later, in range().
    @pytest.mark.parametrize("counts", [
        {"K": 2.5}, {"K_bar": 15.0}, {"sgd_steps_per_stage": 1.5},
        {"K": "3", "K_bar": 3},
    ], ids=["K", "K_bar", "sgd_steps_per_stage", "K_str"])
    def test_count_not_integer_rejected(self, counts):
        name = next(iter(counts))
        with pytest.raises(InvalidInput,
                           match=f"{name} must be >= 0 and an integer"):
            TrainConfig(**counts)
        assert TrainConfig(K=np.int64(2), K_bar=3).K == 2

    @pytest.mark.parametrize("lr", [0.0, -5.0, float("nan"), float("inf")])
    def test_learning_rate_rejected(self, lr):
        with pytest.raises(InvalidInput, match="learning_rate"):
            TrainConfig(learning_rate=lr)

    # Each grid value becomes a tail factor (beta or phi), which must be
    # finite and > 0, so a grid that cannot give one fails before training.
    @pytest.mark.parametrize("grid", [
        (1.0, 0.5, 0.1), (0.0, 1.0, 0.5), (-0.5, 1.0, 0.5), (1e-13, 1.0, 0.5),
        (float("nan"), 1.0, 0.1), (0.1, float("inf"), 0.1),
        (0.1, 1.0, float("nan")), (0.1, 1.0, float("inf")),
    ])
    def test_grid_without_valid_tail_rejected(self, grid):
        with pytest.raises(ValueError, match="grid"):
            TrainConfig(grid=grid)

    def test_tail_past_k_zero_rejected(self):
        # A K = 0 schedule has no step size for the tail to extend.
        with pytest.raises(ValueError, match="K_bar"):
            TrainConfig(K=0, K_bar=2)
        assert TrainConfig(K=0, K_bar=0).K_bar == 0
