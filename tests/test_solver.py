import itertools
import tracemalloc

import numpy as np
import pytest

from lrpca import (ConvergenceFailure, FactorPair, FixedSchedule, FrameSequence,
                   InvalidInput, LrpcaError, OracleSchedule, ParamSchedule,
                   SingularGram, SolverState, StopRule, background_subtract,
                   gen_instance, lrpca_step, matrix_norm,
                   moving_blob_scene, soft_threshold, solve, solve_scaledgd,
                   sparsify_top_fraction, spectral_init, truncated_svd)
from lrpca import solver as solver_module
from lrpca.linalg import (_GRAM_ASPECT, _GRAM_MAX_SHORT, _SKETCH_OVERSAMPLE,
                          _exact_svd, _gram_svd, _sketch_svd, gram_solve)
from lrpca.solver import (_block_rows, _factor_state, _Pass, _scaled_update,
                          _Scratch, _soft_backward, _soft_pass, _sparsify_pass,
                          _step_sums)
from lrpca.training import _stage_gradient
from conftest import run_concurrently, traced_peak
from oracles import (dense_layer_vjp, dense_reference_solve,
                     scalar_lrpca_step, sort_sparsify)


def rank_r_instance(rng, n1=30, n2=24, r=3, noise=0.0):
    L = rng.standard_normal((n1, r))
    R = rng.standard_normal((n2, r))
    return L @ R.T


# Short side 20 gets the exact init SVD, which reads no seed, 60 the sketch.
@pytest.mark.parametrize("n", [20, 60], ids=["exact", "sketch"])
@pytest.mark.parametrize("call", [
    lambda Y: spectral_init(Y, 2, 0.1, seed=-1),
    lambda Y: solve(Y, 2, FixedSchedule(0.1, 0.5), seed=-1),
    lambda Y: solve_scaledgd(Y, 2, 0.2, 0.5, seed=-1),
], ids=["spectral_init", "solve", "solve_scaledgd"])
def test_negative_seed_rejected(n, call):
    with pytest.raises(InvalidInput, match="seed must be >= 0"):
        call(gen_instance(n, n, 2, 0.1, 1).Y)


def separate_buffer_init(Y, r, zeta0, seed):
    """The init's factors and tangent from ``S_0`` and ``A = Y - S_0`` in
    buffers of their own, and the SVD route taken: ``(S_0, L, R, dL, dR,
    route)``."""
    S0 = soft_threshold(Y, zeta0)
    A = Y - S0
    short, long = sorted(A.shape)
    gram = None
    if short <= 2 * (r + _SKETCH_OVERSAMPLE):
        route, (f, (dXV, dXtU)) = "exact", _exact_svd(A, r, np.sign(S0))
    elif short <= _GRAM_MAX_SHORT and long >= _GRAM_ASPECT * short:
        gram = _gram_svd(A, r, np.sign(S0))
    if gram is not None:
        route, (f, (dXV, dXtU)) = "gram", gram
    elif short > 2 * (r + _SKETCH_OVERSAMPLE):
        route, (f, (dXV, dXtU)) = "sketch", _sketch_svd(A, r, seed,
                                                        np.sign(S0))
    root = np.sqrt(f.sigma)
    dL = (dXV - 0.5 * f.U @ (f.U.T @ dXV)) / root
    dR = (dXtU - 0.5 * f.V @ (f.V.T @ dXtU)) / root
    return S0, f.U * root, f.V * root, dL, dR, route


def assert_within_contract(A, X, r):
    """``spectral_init``'s contract: ``X`` is within ``10 (s_{r+1} / s_r)^7
    + 1e-12`` of the exact rank-r truncation of ``A``, relative."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    exact = (U[:, :r] * s[:r]) @ Vt[:r]
    bound = 10 * (s[r] / s[r - 1]) ** 7 + 1e-12
    assert np.linalg.norm(X - exact) <= bound * np.linalg.norm(exact)


def _refuse(*args, **kwargs):
    raise AssertionError("the init took a route the test rules out")


def record_routes(monkeypatch):
    """Spy on the init's three SVD routes: the list of ``(route, returned
    None)`` calls, in order."""
    calls = []
    for owner, name, route in ((solver_module, "truncated_svd", "exact"),
                               (solver_module, "_exact_svd", "exact"),
                               (solver_module, "_gram_svd", "gram"),
                               (solver_module, "_sketch_svd", "sketch")):
        def spy(*args, _f=getattr(owner, name), _route=route, **kwargs):
            out = _f(*args, **kwargs)
            calls.append((_route, out is None))
            return out
        monkeypatch.setattr(owner, name, spy)
    return calls


class TestSpectralInit:
    # The init's one buffer holds S_0, then A = Y - S_0 while the SVD reads
    # it, then S_0 again.  The round trip is exact, so the state and the
    # tangent are those that separate buffers give, to the bit, on both SVD
    # branches and at thresholds below max|Y| / 2 too.
    @pytest.mark.parametrize("n1, n2, route", [
        (30, 20, "exact"), (120, 90, "sketch"), (400, 40, "gram")],
        ids=["exact", "sketch", "gram"])
    @pytest.mark.parametrize("frac", [0.02, 0.2, 0.45, 0.7, 1.5])
    def test_one_buffer_matches_separate_buffers(self, n1, n2, route, frac):
        inst = gen_instance(n1, n2, 3, 0.1, 4)
        zeta0 = frac * float(np.abs(inst.Y).max())
        ref = separate_buffer_init(inst.Y, 3, zeta0, seed=2)
        assert ref[5] == route
        state = spectral_init(inst.Y, 3, zeta0, seed=2)
        t_state, d = spectral_init(inst.Y, 3, zeta0, seed=2, tangent=True)
        for got in (state, t_state):
            assert np.array_equal(got.S, ref[0])
            assert np.array_equal(got.factors.L, ref[1])
            assert np.array_equal(got.factors.R, ref[2])
        assert np.array_equal(d.L, ref[3])
        assert np.array_equal(d.R, ref[4])

    # Besides Y, the init holds one n1 x n2 buffer, plus sign(S_0) with the
    # tangent (measured: 1.14 Y and 2.28 Y); S_0 and A = Y - S_0 in buffers
    # of their own would add another Y.
    @pytest.mark.parametrize("tangent", [False, True])
    def test_holds_one_buffer_besides_Y(self, tangent):
        inst = gen_instance(600, 400, 5, 0.1, 3)
        zeta0 = 0.3 * float(np.abs(inst.Y).max())
        _, peak = traced_peak(lambda: spectral_init(inst.Y, 5, zeta0, seed=1,
                                                    tangent=tangent))
        assert peak < (1.5 + tangent) * inst.Y.nbytes

    def test_outlier_free_exact(self, rng):
        X = rank_r_instance(rng)
        state = spectral_init(X, 3, np.abs(X).max())
        assert np.count_nonzero(state.S) == 0
        err = np.linalg.norm(state.low_rank() - X) / np.linalg.norm(X)
        assert err <= 1e-9

    def test_support_containment(self, rng):
        X = rank_r_instance(rng)
        S = np.zeros_like(X)
        S[rng.random(X.shape) < 0.1] = 5.0
        state = spectral_init(X + S, 3, np.abs(X).max())
        assert not ((state.S != 0) & (S == 0)).any()

    # A NaN threshold would make S_0 and Y - S_0 all NaN, which the exact
    # SVD (short side 20) and the range sketch (200) would meet instead.
    @pytest.mark.parametrize("n", [20, 200], ids=["exact", "sketch"])
    def test_nan_threshold_rejected(self, n):
        Y = gen_instance(n, n, 2, 0.1, 1).Y
        with pytest.raises(InvalidInput, match="threshold must be >= 0"):
            spectral_init(Y, 2, float("nan"))

    def test_full_shrinkage_gives_plain_svd(self, rng):
        Y = rng.standard_normal((20, 15))
        state = spectral_init(Y, 4, np.abs(Y).max() + 1.0)
        assert np.count_nonzero(state.S) == 0
        ref = truncated_svd(Y, 4).product()
        assert np.linalg.norm(state.low_rank() - ref) <= 1e-9 * np.linalg.norm(ref)

    # Wide and tall shapes whose short side exceeds 2 (r + 10), each at a
    # loose and a tight threshold (the tight one leaves outliers in Y - S_0
    # and narrows the spectral gap).  The init takes the sketch on the wide
    # one only, so the sketch is called directly.
    @pytest.mark.parametrize("n1, n2, r, alpha", [(600, 2000, 5, 0.1),
                                                  (4000, 60, 1, 0.05)])
    @pytest.mark.parametrize("frac", [0.5, 0.1])
    def test_sketch_within_contract_of_exact_truncation(self, n1, n2, r,
                                                        alpha, frac):
        inst = gen_instance(n1, n2, r, alpha, 5)
        A = inst.Y - soft_threshold(inst.Y, frac * np.abs(inst.Y).max())
        assert_within_contract(A, _sketch_svd(A, r, 3)[0].product(), r)

    # Tall and wide shapes at least 8 times as long as their short side take
    # the short side's Gram, and it keeps the sketch's contract.
    @pytest.mark.parametrize("n1, n2, r, alpha", [
        (4000, 60, 1, 0.05), (60, 2400, 2, 0.1), (2400, 200, 3, 0.1)])
    @pytest.mark.parametrize("frac", [0.5, 0.1])
    def test_gram_within_contract_of_exact_truncation(
            self, monkeypatch, n1, n2, r, alpha, frac):
        monkeypatch.setattr(solver_module, "truncated_svd", _refuse)
        monkeypatch.setattr(solver_module, "_sketch_svd", _refuse)
        inst = gen_instance(n1, n2, r, alpha, 5)
        state = spectral_init(inst.Y, r, frac * np.abs(inst.Y).max(), seed=3)
        assert_within_contract(inst.Y - state.S, state.low_rank(), r)

    # sigma_1 / sigma_2 = 1e3 squares to 1e6 in the Gram, whose rounding
    # would then exceed the contract's bound at sigma_3 / sigma_2 = 0.05;
    # the init falls back to the sketch, which keeps it.
    def test_badly_conditioned_tall_input_falls_back_to_sketch(
            self, monkeypatch, rng):
        U = np.linalg.qr(rng.standard_normal((2400, 60)))[0]
        V = np.linalg.qr(rng.standard_normal((60, 60)))[0]
        s = np.concatenate(([1e3, 1.0], 0.05 * 0.9 ** np.arange(58)))
        A = (U * s) @ V.T
        calls = record_routes(monkeypatch)
        state = spectral_init(A, 2, 2 * np.abs(A).max(), seed=3)
        assert calls == [("gram", True), ("sketch", False)]
        assert not state.S.any()
        assert_within_contract(A, state.low_rank(), 2)

    # The route follows the shape alone: a short side up to 2 (r + 10)
    # takes the exact SVD; past it, a side at least 8 times the short side,
    # with the short side at most 256, takes the Gram; the rest the sketch.
    # A float32 Y takes its float64 twin's route: the SVD reads a float64
    # copy of A, so float32's rounding cannot turn the Gram route down.
    @pytest.mark.parametrize("n1, n2, r, route", [
        (2000, 2000, 5, "sketch"), (200, 200, 5, "sketch"),
        (400, 100, 2, "sketch"), (3200, 400, 2, "sketch"),
        (2400, 60, 1, "gram"), (60, 2400, 1, "gram"), (2048, 256, 1, "gram"),
        (19200, 60, 1, "gram"), (2400, 20, 1, "exact")])
    def test_route_pinned_by_shape(self, monkeypatch, n1, n2, r, route):
        calls = record_routes(monkeypatch)
        inst = gen_instance(n1, n2, r, 0.1, 2)
        for Y in (inst.Y, inst.Y.astype(np.float32)):
            spectral_init(Y, r, 0.5 * np.abs(inst.Y).max(), seed=1)
        assert calls == [(route, False)] * 2

    def test_float32_video_takes_gram_route(self, monkeypatch):
        # A 120 x 160, 60-frame clip as read from 8-bit PGMs: 19200 x 60.
        # At zeta_0 = 0.5, S_0 and A = Y - S_0 are exact in float32, so an
        # SVD that reads A in float64 gives the float64 twin's factors.
        calls = record_routes(monkeypatch)
        Y = video_clip(120, 160, 60)
        state = spectral_init(Y, 1, 0.5, seed=0)
        twin = spectral_init(Y.astype(np.float64), 1, 0.5, seed=0)
        assert calls == [("gram", False)] * 2
        assert state.S.dtype == np.float32 and state.S.any()
        assert np.array_equal(state.S, twin.S)
        assert state.factors.L.dtype == state.factors.R.dtype == np.float64
        assert np.array_equal(state.factors.L, twin.factors.L)
        assert np.array_equal(state.factors.R, twin.factors.R)

    def test_sketch_fixed_by_seed(self):
        inst = gen_instance(600, 2000, 5, 0.1, 5)
        zeta0 = 0.1 * np.abs(inst.Y).max()
        a, b, c = (spectral_init(inst.Y, 5, zeta0, seed=s) for s in (4, 4, 5))
        assert np.array_equal(a.factors.L, b.factors.L)
        assert np.array_equal(a.factors.R, b.factors.R)
        assert not np.array_equal(a.factors.L, c.factors.L)


class TestLrpcaStep:
    def test_scalar_hand_example(self):
        state = SolverState(FactorPair(np.array([[1.0]]), np.array([[1.0]])),
                            np.zeros((1, 1)))
        new = lrpca_step(state, np.array([[2.0]]), zeta=2.0, eta=0.5)
        assert new.S == pytest.approx(np.array([[0.0]]))
        assert new.factors.L == pytest.approx(np.array([[1.5]]))
        assert new.factors.R == pytest.approx(np.array([[1.5]]))

    def test_matches_plain_loop_reference(self, rng):
        L = rng.standard_normal((4, 2))
        R = rng.standard_normal((5, 2))
        S_true = np.zeros((4, 5))
        Y = L @ R.T + S_true
        Y[1, 3] += 2.0
        state = SolverState(FactorPair(L, R), np.zeros((4, 5)))
        new = lrpca_step(state, Y, zeta=0.3, eta=0.7)
        L_ref, R_ref, S_ref = scalar_lrpca_step(L.tolist(), R.tolist(),
                                                Y.tolist(), 0.3, 0.7)
        np.testing.assert_allclose(new.factors.L, L_ref, atol=1e-12)
        np.testing.assert_allclose(new.factors.R, R_ref, atol=1e-12)
        np.testing.assert_allclose(new.S, S_ref, atol=1e-12)

    def test_exact_solution_is_fixed_point(self, rng):
        X = rank_r_instance(rng)
        S_star = np.zeros_like(X)
        S_star[rng.random(X.shape) < 0.1] = 2.0
        Y = X + S_star
        f = truncated_svd(X, 3)
        root = np.sqrt(f.sigma)
        state = SolverState(FactorPair(f.U * root, f.V * root), S_star)
        new = lrpca_step(state, Y, zeta=0.0, eta=0.5)
        np.testing.assert_allclose(new.S, S_star, atol=1e-10)
        np.testing.assert_allclose(new.factors.L, state.factors.L, atol=1e-10)
        np.testing.assert_allclose(new.factors.R, state.factors.R, atol=1e-10)

    def test_oracle_threshold_support_containment(self, rng):
        inst = gen_instance(60, 60, 3, 0.1, 5)
        state = spectral_init(inst.Y, 3, np.abs(inst.X_star).max())
        zeta = np.abs(inst.X_star - state.low_rank()).max()
        new = lrpca_step(state, inst.Y, zeta=zeta, eta=0.5)
        assert not ((new.S != 0) & (inst.S_star == 0)).any()

    def test_gauge_invariance_of_product(self, rng):
        inst = gen_instance(30, 30, 3, 0.1, 9)
        state = spectral_init(inst.Y, 3, 0.5 * np.abs(inst.Y).max())
        Q = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        gauged = SolverState(
            FactorPair(state.factors.L @ Q,
                       state.factors.R @ np.linalg.inv(Q).T),
            state.S)
        a = lrpca_step(state, inst.Y, zeta=0.01, eta=0.5).low_rank()
        b = lrpca_step(gauged, inst.Y, zeta=0.01, eta=0.5).low_rank()
        assert np.linalg.norm(a - b) <= 1e-10 * np.linalg.norm(a)

    def test_near_fixed_point_barely_moves(self, rng):
        inst = gen_instance(40, 40, 3, 0.05, 2)
        f = truncated_svd(inst.X_star, 3)
        root = np.sqrt(f.sigma)
        state = SolverState(FactorPair(f.U * root, f.V * root), inst.S_star)
        zeta = np.abs(inst.X_star - state.low_rank()).max()
        new = lrpca_step(state, inst.Y, zeta=zeta, eta=0.5)
        move = (np.linalg.norm(new.low_rank() - state.low_rank())
                / np.linalg.norm(state.low_rank()))
        assert move <= 1e-10

    def test_negative_threshold_rejected(self, rng):
        Y = rng.standard_normal((4, 4))
        state = spectral_init(Y, 2, 0.1)
        with pytest.raises(InvalidInput, match="threshold must be >= 0"):
            lrpca_step(state, Y, zeta=-1.0, eta=0.5)

    # A NaN or infinite step returns non-finite factors; a zero or negative
    # one runs, standing still or stepping against the gradient.
    @pytest.mark.parametrize("zeta, eta, message", [
        (float("nan"), 0.5, "threshold must be >= 0"),
        (0.1, float("nan"), "step size must be finite and > 0"),
        (0.1, float("inf"), "step size must be finite and > 0"),
        (0.1, 0.0, "step size must be finite and > 0"),
        (0.1, -1.0, "step size must be finite and > 0"),
    ], ids=["zeta_nan", "eta_nan", "eta_inf", "eta_zero", "eta_negative"])
    def test_bad_threshold_or_step_rejected(self, rng, zeta, eta, message):
        Y = rng.standard_normal((4, 4))
        state = spectral_init(Y, 2, 0.1)
        with pytest.raises(InvalidInput, match=message):
            lrpca_step(state, Y, zeta=zeta, eta=eta)

    # The caller's factors are checked like Y: the factor step's Gram
    # solves take them unchecked.
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("name", ["L", "R"])
    def test_nonfinite_factors_rejected(self, rng, name, bad):
        Y = rng.standard_normal((6, 5))
        f = spectral_init(Y, 2, 0.1).factors
        L, R = f.L.copy(), f.R.copy()
        (L if name == "L" else R)[0, 0] = bad
        state = SolverState(FactorPair(L, R), Y)
        with pytest.raises(InvalidInput, match=f"{name} contains NaN or Inf"):
            lrpca_step(state, Y, zeta=0.1, eta=0.5)

    def test_shape_mismatch_rejected(self, rng):
        state = spectral_init(rng.standard_normal((4, 4)), 2, 0.1)
        with pytest.raises(InvalidInput, match="factors give shape"):
            lrpca_step(state, rng.standard_normal((4, 5)), zeta=0.1, eta=0.5)


def scaledgd_step(state, Y, alpha_tilde, eta):
    """One iteration of the top-fraction baseline, as ``solve_scaledgd``
    makes it."""
    S = np.empty(Y.shape)
    p = _sparsify_pass(Y, state.factors.L, state.factors.R, alpha_tilde,
                       _Scratch(), S_out=S)
    return SolverState(_scaled_update(state.factors, p, eta)[0], S)


class TestScaledgdStep:
    def test_zero_fraction_pure_descent(self, rng):
        inst = gen_instance(20, 20, 2, 0.1, 3)
        state = spectral_init(inst.Y, 2, 0.5 * np.abs(inst.Y).max())
        new = scaledgd_step(state, inst.Y, alpha_tilde=0.0, eta=0.5)
        assert np.count_nonzero(new.S) == 0
        assert not np.allclose(new.factors.L, state.factors.L)

    def test_full_fraction_freezes_factors(self, rng):
        inst = gen_instance(20, 20, 2, 0.1, 3)
        state = spectral_init(inst.Y, 2, 0.5 * np.abs(inst.Y).max())
        new = scaledgd_step(state, inst.Y, alpha_tilde=1.0, eta=0.5)
        np.testing.assert_allclose(new.S, inst.Y - state.low_rank(), atol=1e-14)
        np.testing.assert_allclose(new.factors.L, state.factors.L, atol=1e-14)

    def test_2x2_hand_evaluation(self):
        L = np.array([[1.0], [0.0]])
        R = np.array([[1.0], [1.0]])
        Y = np.array([[2.0, 0.5], [1.0, 0.2]])
        state = SolverState(FactorPair(L, R), np.zeros((2, 2)))
        new = scaledgd_step(state, Y, alpha_tilde=0.5, eta=0.5)
        # X = [[1,1],[0,0]]; residual Y-X = [[1,-0.5],[1,0.2]].
        # Keep count 1 per row and column: row cuts (1, 1), column cuts
        # (1, 0.5) -> only (0,0) and (1,0) survive both tests.
        S_expect = np.array([[1.0, 0.0], [1.0, 0.0]])
        np.testing.assert_allclose(new.S, S_expect, atol=1e-15)
        # W = X + S - Y = [[0,0.5],[0,-0.2]]; R^T R = 2, L^T L = 1.
        # L' = L - 0.5 (W R)/2 = [[0.875],[0.05]]
        # R' = R - 0.5 (W^T L)/1 = [[1],[0.75]]
        np.testing.assert_allclose(new.factors.L, [[0.875], [0.05]], atol=1e-15)
        np.testing.assert_allclose(new.factors.R, [[1.0], [0.75]], atol=1e-15)


class TestSolve:
    def test_outlier_free_stops_at_init(self, rng):
        X = rank_r_instance(rng)
        Xh, Sh, trace = solve(X, 3, OracleSchedule(0.5),
                              StopRule("residual_rel", 1e-8, 50), truth=X)
        assert trace.iterations == 0
        assert trace.residuals[0] <= 1e-8

    @pytest.mark.parametrize("max_iters", [0, 50])
    def test_init_ended_solve_makes_one_outlier_pass(self, monkeypatch, rng,
                                                     max_iters):
        # The row-0 pass leaves S_0 in the returned buffer; a second pass at
        # the zero iterate rewrote S_0 into it.
        calls = []

        def counting_pass(*args, **kwargs):
            calls.append(kwargs.get("S_out"))
            return _soft_pass(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_soft_pass", counting_pass)
        X = rank_r_instance(rng)
        _, S, trace = solve(X, 3, OracleSchedule(0.5),
                            StopRule("residual_rel", 1e-8, max_iters), truth=X)
        assert trace.iterations == 0
        assert calls == [None]
        assert np.array_equal(S, soft_threshold(X, np.abs(X).max()))

    @pytest.mark.parametrize("mode", ["residual_rel", "iterate_change",
                                      "fixed_iters"])
    @pytest.mark.parametrize("max_iters", [1, 25])
    def test_solve_of_k_steps_makes_k_plus_one_passes(self, monkeypatch,
                                                      mode, max_iters):
        # The row-0 pass and one per step after the first, each thresholding
        # for the next step, then one end pass that measures the returned
        # iterate: outside iterate_change it also writes S_k, from the
        # previous iterate, in the same read of Y.
        calls = []

        def counting_pass(*args, **kwargs):
            calls.append(kwargs.get("S_from") is not None)
            return _soft_pass(*args, **kwargs)

        monkeypatch.setattr(solver_module, "_soft_pass", counting_pass)
        inst = gen_instance(300, 200, 3, 0.1, 3)
        _, _, trace = solve(inst.Y, 3, OracleSchedule(0.5),
                            StopRule(mode, 1e-6, max_iters), truth=inst.X_star)
        k = trace.iterations
        assert k >= 1
        assert len(calls) == k + 1
        assert calls == [False] * k + [mode != "iterate_change"]

    def test_unsupported_schedule_source_rejected(self, rng):
        Y = rng.standard_normal((10, 10))
        with pytest.raises(InvalidInput, match="unsupported schedule source"):
            solve(Y, 2, (0.1, 0.5))

    @pytest.mark.parametrize("r", [0, -1])
    def test_rank_below_one_rejected(self, rng, r):
        Y = rng.standard_normal((10, 10))
        with pytest.raises(InvalidInput, match="rank must be >= 1"):
            solve(Y, r, FixedSchedule(0.1, 0.5))

    def test_oracle_requires_truth(self, rng):
        Y = rng.standard_normal((10, 10))
        with pytest.raises(InvalidInput, match="requires the true low-rank"):
            solve(Y, 2, OracleSchedule(0.5), StopRule())

    def test_oracle_convergence_and_support(self):
        inst = gen_instance(200, 200, 5, 0.1, 11)
        Xh, Sh, trace = solve(inst.Y, 5, OracleSchedule(0.5),
                              StopRule("fixed_iters", max_iters=40),
                              truth=inst.X_star, seed=1)
        errs = np.array(trace.rel_errs)
        assert errs[-1] < 1e-5
        # Error is non-increasing after the early transient.
        for k in range(4, len(errs)):
            if errs[k - 1] < 1e-11:
                break
            assert errs[k] <= errs[k - 1] * (1 + 1e-10)
        outside = inst.S_star == 0
        state = spectral_init(inst.Y, 5, np.abs(inst.X_star).max(), seed=1)
        for k in range(1, 15):
            zeta = np.abs(inst.X_star - state.low_rank()).max()
            state = lrpca_step(state, inst.Y, zeta, 0.5)
            assert not ((state.S != 0) & outside).any()

    def test_trace_has_init_plus_iterations(self, rng):
        inst = gen_instance(30, 30, 2, 0.1, 4)
        _, _, trace = solve(inst.Y, 2, FixedSchedule(0.01, 0.5),
                            StopRule("fixed_iters", max_iters=7))
        assert len(trace) == 8
        assert trace.iterations == 7
        assert [row[0] for row in trace.rows()] == list(range(8))

    def test_fixed_iters_zero_only_init(self, rng):
        inst = gen_instance(20, 20, 2, 0.1, 4)
        _, _, trace = solve(inst.Y, 2, FixedSchedule(0.01, 0.5),
                            StopRule("fixed_iters", max_iters=0))
        assert len(trace) == 1

    def test_learned_schedule_runs_past_K(self, rng):
        inst = gen_instance(40, 40, 2, 0.05, 8)
        theta = ParamSchedule(zetas=(0.5 * np.abs(inst.Y).max(), 0.01),
                              etas=(0.6,), beta=1.0, phi=0.7)
        _, _, trace = solve(inst.Y, 2, theta,
                            StopRule("fixed_iters", max_iters=6))
        assert trace.iterations == 6
        assert trace.zetas[3] == pytest.approx(theta.phi ** 2 * theta.zetas[1])

    def test_iterate_change_stop(self, rng):
        inst = gen_instance(50, 50, 3, 0.05, 6)
        _, _, trace = solve(inst.Y, 3, OracleSchedule(0.5),
                            StopRule("iterate_change", 1e-6, 100),
                            truth=inst.X_star)
        assert 0 < trace.iterations < 100

    @pytest.mark.parametrize("eta", [0.25, 0.5, 8 / 9])
    def test_oracle_error_monotone_across_step_sizes(self, eta):
        # Oracle thresholds keep the error non-increasing after the early
        # transient for the whole theoretical step-size range.
        inst = gen_instance(200, 200, 5, 0.1, 17)
        _, _, trace = solve(inst.Y, 5, OracleSchedule(eta),
                            StopRule("fixed_iters", max_iters=30),
                            truth=inst.X_star, seed=2)
        errs = trace.rel_errs
        for k in range(4, len(errs)):
            if errs[k - 1] < 1e-11:
                break
            assert errs[k] <= errs[k - 1] * (1 + 1e-10)

    def test_rank_collapse_raises_singular_gram(self, rng):
        # S_0 = 0 leaves the rank-1 Y to a rank-3 init, whose two spare
        # factor columns are rounding noise.
        Y = np.outer(rng.standard_normal(10), rng.standard_normal(10))
        with pytest.raises(SingularGram, match="at iteration 1:"):
            solve(Y, 3, FixedSchedule(float(np.abs(Y).max()), 0.5),
                  StopRule("fixed_iters", max_iters=3))

    def test_zero_threshold_absorbs_everything(self, rng):
        X = rank_r_instance(rng, 12, 12, 2)
        # S_0 = Y leaves nothing for the factors; residual is exactly zero,
        # which ends the solve in every mode before a step from the zero
        # factors could meet a singular Gram.  Under the second schedule the
        # pass that thresholds for iteration 1 makes an S_1 other than S_0,
        # which iterate_change writes over S_0: the solve must still return
        # S_0.  ScaledGD keeping every entry (alpha_tilde = 1) has S_0 = Y
        # as well, and must return it through the same driver.
        half = 0.5 * float(np.abs(X).max())
        runs = [lambda stop, theta=theta: solve(X, 2, theta, stop)
                for theta in (FixedSchedule(0.0, 0.5),
                              ParamSchedule(zetas=(0.0, half), etas=(0.5,)))]
        runs.append(lambda stop: solve_scaledgd(X, 2, 1.0, 0.5, stop))
        for run in runs:
            for mode, m in itertools.product(
                    ("residual_rel", "iterate_change", "fixed_iters"), (0, 20)):
                Xh, Sh, trace = run(StopRule(mode, 1e-6, m))
                assert trace.iterations == 0
                assert trace.residuals == [0.0]
                assert trace.stop_reason == "converged"
                assert np.count_nonzero(Xh) == 0
                assert np.array_equal(Sh, X)
                assert np.count_nonzero(X - Xh - Sh) == 0

    def test_diverged_solve_raises(self):
        # A huge step throws the factors to about 1e150, where the residual
        # overflows: the solve must not report the iterate as converged.
        Y = gen_instance(60, 50, 2, 0.1, 1).Y
        theta = FixedSchedule(0.5 * float(np.abs(Y).max()), 1e150)
        with pytest.raises(ConvergenceFailure, match="at iteration 1:"):
            solve(Y, 2, theta, StopRule("residual_rel", 1e-6, 60))
        with pytest.raises(ConvergenceFailure, match="at iteration 1:"):
            solve_scaledgd(Y, 2, 0.1, 1e150, StopRule("residual_rel", 1e-6, 60))

    def test_k0_schedule_rejected_before_init(self, monkeypatch):
        Y = gen_instance(20, 20, 2, 0.1, 1).Y
        theta = ParamSchedule(zetas=(1.0,), etas=())
        X, S, trace = solve(Y, 2, theta, StopRule("residual_rel", 1e-6, 0))
        assert trace.iterations == 0

        def no_init(*args, **kwargs):
            raise AssertionError("solve reached the init")

        monkeypatch.setattr(solver_module, "spectral_init", no_init)
        with pytest.raises(InvalidInput, match="K=0"):
            solve(Y, 2, theta, StopRule("residual_rel", 1e-6, 5))

    def test_invalid_stop_mode(self):
        with pytest.raises(InvalidInput):
            StopRule("bogus", 1e-4, 10)

    # A cap of 2.5 ran 3 updates and reported 4 iterations under max_iters.
    @pytest.mark.parametrize("max_iters", [2.5, 3.0, -1, None, "3"])
    def test_max_iters_not_count_rejected(self, max_iters):
        with pytest.raises(InvalidInput,
                           match="max_iters must be >= 0 and an integer"):
            StopRule("fixed_iters", 0, max_iters)
        assert StopRule("fixed_iters", 0, np.int64(3)).max_iters == 3

    @pytest.mark.parametrize("tol", [-1e-6, float("nan")])
    def test_invalid_tolerance_rejected(self, tol):
        with pytest.raises(InvalidInput, match="tolerance"):
            StopRule("residual_rel", tol, 10)

    def test_fixed_schedule_is_one_layer_param_schedule(self):
        theta = FixedSchedule(zeta=0.3, eta=0.7)
        assert theta == ParamSchedule(zetas=(0.3, 0.3), etas=(0.7,))
        assert theta.zeta0 == 0.3
        assert [theta.at(k) for k in (1, 2, 50)] == [(0.3, 0.7)] * 3

    @pytest.mark.parametrize("zeta, eta", [
        (-0.1, 0.5), (0.1, 0.0), (0.1, -3.0), (float("nan"), 0.5),
        (0.1, float("nan")), (0.1, float("inf")),
    ])
    def test_invalid_fixed_pair_rejected_when_built(self, zeta, eta):
        with pytest.raises(ValueError):
            FixedSchedule(zeta, eta)

    @pytest.mark.parametrize("eta", [0.0, -0.5, float("nan"), float("inf")])
    def test_invalid_oracle_step_rejected_when_built(self, eta):
        with pytest.raises(ValueError, match="step size"):
            OracleSchedule(eta)

    @pytest.mark.parametrize("stop, reason", [
        (StopRule("residual_rel", 1e-6, 200), "converged"),
        (StopRule("residual_rel", 1e-6, 3), "max_iters"),
        (StopRule("iterate_change", 1e-6, 200), "converged"),
        (StopRule("iterate_change", 1e-6, 3), "max_iters"),
        # fixed_iters ends on the cap even once the residual is tiny.
        (StopRule("fixed_iters", 1e-6, 80), "max_iters"),
    ], ids=["residual_converged", "residual_cap", "change_converged",
            "change_cap", "fixed"])
    def test_stop_reason(self, stop, reason):
        inst = gen_instance(80, 80, 2, 0.05, 9)
        _, _, trace = solve(inst.Y, 2, OracleSchedule(0.5), stop,
                            truth=inst.X_star)
        assert trace.stop_reason == reason
        assert trace.iterations <= stop.max_iters
        if reason == "max_iters":
            assert trace.iterations == stop.max_iters
        if stop.mode == "fixed_iters":
            assert trace.residuals[-1] < stop.tolerance


# Shapes whose row count spans at least three row slabs of the solver's
# iteration pass, the last one partial: wide (few rows per slab) and tall
# with rank 1 (the video shape).
MULTI_SLAB = [(300, 2000, 5, 0.1), (4000, 60, 1, 0.05)]


def _dense_run(inst, schedule, stop, seed=1):
    """The solve of ``inst`` repeated by the dense reference loop."""
    if isinstance(schedule, OracleSchedule):
        zeta0 = float(np.abs(inst.X_star).max())

        def params(k, X):
            return float(np.abs(X - inst.X_star).max()), schedule.eta
    else:
        zeta0 = schedule.zeta0

        def params(k, X):
            return schedule.at(k)
    init = spectral_init(inst.Y, inst.r, zeta0, seed=seed)
    return dense_reference_solve(inst.Y, init.factors.L, init.factors.R,
                                 init.S, params, stop.mode, stop.tolerance,
                                 stop.max_iters, truth=inst.X_star)


class TestSlabStreamedIteration:
    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_shapes_span_several_slabs(self, n1, n2, r, alpha):
        rows = _block_rows(n1, n2)
        assert n1 >= 3 * rows and n1 % rows != 0

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    @pytest.mark.parametrize("stop", [
        StopRule("residual_rel", 1e-6, 100),
        StopRule("iterate_change", 1e-3, 100),
        StopRule("iterate_change", 1e-6, 100),
    ], ids=["residual_1e-6", "change_1e-3", "change_1e-6"])
    def test_oracle_matches_dense_reference(self, n1, n2, r, alpha, stop):
        inst = gen_instance(n1, n2, r, alpha, 3)
        X, S, trace = solve(inst.Y, r, OracleSchedule(0.5), stop,
                            truth=inst.X_star, seed=1)
        X_ref, S_ref, res_ref, err_ref = _dense_run(inst, OracleSchedule(0.5),
                                                    stop)
        assert trace.iterations == len(res_ref) - 1
        assert trace.stop_reason == "converged"
        # Residuals are fractions of ||Y||; the loop's agree with the dense
        # ones to about 1e-17 in those units (see SolveTrace), which a
        # relative bound at the smallest residuals here would undercut, so
        # they are compared in absolute terms.
        np.testing.assert_allclose(trace.residuals, res_ref, rtol=0, atol=1e-15)
        np.testing.assert_allclose(trace.rel_errs, err_ref, rtol=1e-10)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
        assert np.linalg.norm(S - S_ref) <= 1e-12 * np.linalg.norm(S_ref)

    @pytest.mark.parametrize("solver", ["lrpca", "scaledgd"])
    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    @pytest.mark.parametrize("stop", [
        StopRule("residual_rel", 1e-6, 100),
        StopRule("iterate_change", 1e-6, 100),
        StopRule("fixed_iters", max_iters=20),
    ], ids=["residual", "change", "fixed"])
    def test_last_trace_row_measures_returned_iterate(self, n1, n2, r, alpha,
                                                      stop, solver):
        # Outside iterate_change, whose buffer already holds the returned S,
        # the end pass writes it from the previous factors slab by slab and
        # measures the returned iterate against each slab as it goes.
        inst = gen_instance(n1, n2, r, alpha, 3)
        if solver == "lrpca":
            X, S, trace = solve(inst.Y, r, OracleSchedule(0.5), stop,
                                truth=inst.X_star, seed=1)
        else:
            X, S, trace = solve_scaledgd(
                inst.Y, r, 2 * alpha, 0.5,
                StopRule(stop.mode, stop.tolerance, 25), truth=inst.X_star,
                seed=1)
        assert trace.iterations > 1
        assert trace.residuals[-1] == pytest.approx(
            np.linalg.norm(inst.Y - X - S) / np.linalg.norm(inst.Y), rel=1e-12)
        rel_err = (np.linalg.norm(X - inst.X_star)
                   / np.linalg.norm(inst.X_star))
        assert trace.rel_errs[-1] == pytest.approx(rel_err, rel=1e-12)

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    @pytest.mark.parametrize("stop", [
        StopRule("residual_rel", 1e-6, 60),
        StopRule("iterate_change", 1e-6, 60),
        StopRule("fixed_iters", max_iters=20),
    ], ids=["residual", "change", "fixed"])
    @pytest.mark.parametrize("solver", ["lrpca", "scaledgd"])
    def test_every_trace_residual_matches_dense_reference(
            self, n1, n2, r, alpha, stop, solver):
        # Only rows 0 and last are measured against a stored S; the rows in
        # between come from the pass's thin products.
        inst = gen_instance(n1, n2, r, alpha, 3)
        if solver == "lrpca":
            X, S, trace = solve(inst.Y, r, OracleSchedule(0.5), stop,
                                truth=inst.X_star, seed=1)
            X_ref, S_ref, res_ref, err_ref = _dense_run(
                inst, OracleSchedule(0.5), stop)
            np.testing.assert_allclose(trace.rel_errs, err_ref, rtol=1e-10)
        else:
            a = 2 * alpha
            stop = StopRule(stop.mode, stop.tolerance, 25)
            X, S, trace = solve_scaledgd(inst.Y, r, a, 0.5, stop, seed=1)
            init = _factor_state(inst.Y, sort_sparsify(inst.Y, a), r, 1)
            X_ref, S_ref, res_ref, _ = dense_reference_solve(
                inst.Y, init.factors.L, init.factors.R, init.S,
                lambda k, X: (a, 0.5), stop.mode, stop.tolerance,
                stop.max_iters, outlier=sort_sparsify)
        assert trace.iterations == len(res_ref) - 1 > 1
        np.testing.assert_allclose(trace.residuals, res_ref, rtol=1e-10)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
        assert np.linalg.norm(S - S_ref) <= 1e-12 * np.linalg.norm(S_ref)

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_residual_stop_holds_one_S(self, n1, n2, r, alpha):
        # Besides its input Y, a residual-stop solve holds one S and the
        # returned X at a time, never a second S buffer.  The init holds one
        # buffer (S_0, which is Y - S_0 while the SVD reads it) plus its
        # sketch, whose n1 x (r + 10) temporaries are a fifth of Y each on
        # the tall shape; the solve may reach that peak but not pass it.
        inst = gen_instance(n1, n2, r, alpha, 3)
        z0 = float(np.abs(inst.X_star).max())
        theta = ParamSchedule(zetas=(z0, 0.3 * z0), etas=(0.5,), phi=0.7)
        stop = StopRule("residual_rel", 1e-5, 100)

        _, init_peak = traced_peak(lambda: spectral_init(inst.Y, r, z0, seed=1))
        (_, _, trace), peak = traced_peak(
            lambda: solve(inst.Y, r, theta, stop, seed=1))
        assert trace.iterations > 1
        assert peak < max(2.5 * inst.Y.nbytes,
                          init_peak + 0.05 * inst.Y.nbytes)

    # Shapes on which the slab scratch is at most about a quarter of Y.
    @pytest.mark.parametrize("n1, n2, r, alpha", [(600, 2000, 5, 0.1),
                                                  (12000, 60, 1, 0.05)])
    def test_iterate_change_holds_one_S(self, n1, n2, r, alpha):
        # An iterate_change solve holds one S, whose every pass writes
        # S_{k+1} over S_k slab by slab, and the slab scratch; the scratch
        # is freed before the returned X is formed.  Besides Y: the returned
        # X and S and a little more, never a second S.
        inst = gen_instance(n1, n2, r, alpha, 3)
        s0 = float(np.abs(inst.S_star).max())
        theta = ParamSchedule(zetas=(s0, 0.5 * s0), etas=(0.5,), phi=0.7)
        stop = StopRule("iterate_change", 1e-4, 100)
        (_, _, trace), peak = traced_peak(
            lambda: solve(inst.Y, r, theta, stop, seed=1))
        assert trace.iterations > 1
        assert peak < 2.1 * inst.Y.nbytes

    @pytest.mark.parametrize("max_iters", [0, 1, 25])
    @pytest.mark.parametrize("mode", ["residual_rel", "iterate_change",
                                      "fixed_iters"])
    def test_returns_the_init_S_buffer(self, monkeypatch, mode, max_iters):
        # Every stop mode holds the init's S_0 buffer to the end and returns
        # it, holding S_k; no solve allocates a second S.
        inits = []

        def recording_init(*args, **kwargs):
            inits.append(spectral_init(*args, **kwargs))
            return inits[-1]

        monkeypatch.setattr(solver_module, "spectral_init", recording_init)
        inst = gen_instance(300, 200, 3, 0.1, 4)
        z0 = float(np.abs(inst.X_star).max())
        theta = ParamSchedule(zetas=(z0, 0.3 * z0), etas=(0.5,), phi=0.7)
        _, S, trace = solve(inst.Y, 3, theta, StopRule(mode, 1e-5, max_iters))
        assert len(inits) == 1 and (trace.iterations > 0) == (max_iters > 0)
        assert np.shares_memory(S, inits[0].S)

    @pytest.mark.parametrize("scale", [1e-1, 1e-6, 1e-10])
    def test_low_rank_change_from_grams(self, rng, scale):
        L, R = rng.standard_normal((50, 3)), rng.standard_normal((40, 3))
        L2 = L + scale * rng.standard_normal(L.shape)
        R2 = R + scale * rng.standard_normal(R.shape)
        dense = np.linalg.norm((L2 - L) @ R2.T + L @ (R2 - R).T)
        # A pass with W = 0: the next residual is the change itself.
        p = _Pass(0.0, 0.0, WR=np.zeros(L.shape), WtL=np.zeros(R.shape),
                  WtWR=np.zeros(R.shape))
        GR = R.T @ R
        diff_sq, base_sq, resid_sq = _step_sums(
            p, FactorPair(L, R), FactorPair(L2, R2), 0.5, L.T @ L, GR,
            gram_solve(GR))
        assert np.sqrt(diff_sq / base_sq) == pytest.approx(
            dense / np.linalg.norm(L @ R.T), rel=1e-9)
        assert resid_sq == diff_sq

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_learned_schedule_matches_dense_reference(self, n1, n2, r, alpha):
        inst = gen_instance(n1, n2, r, alpha, 4)
        z0 = float(np.abs(inst.X_star).max())
        theta = ParamSchedule(zetas=(z0, 0.3 * z0), etas=(0.5,), beta=1.0,
                              phi=0.7)
        stop = StopRule("residual_rel", 1e-5, 100)
        X, S, trace = solve(inst.Y, r, theta, stop, truth=inst.X_star, seed=1)
        X_ref, S_ref, res_ref, _ = _dense_run(inst, theta, stop)
        assert trace.iterations == len(res_ref) - 1
        assert trace.residuals[-1] < stop.tolerance
        np.testing.assert_allclose(trace.residuals, res_ref, rtol=1e-10)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
        assert np.linalg.norm(S - S_ref) <= 1e-12 * np.linalg.norm(S_ref)


def _edge_inputs():
    """``(Y, r)`` for the edge shapes and degenerate inputs of ``solve``."""
    zero_row = gen_instance(30, 40, 2, 0.1, 5).Y
    zero_row[7] = 0.0
    zero_col = gen_instance(30, 40, 2, 0.1, 6).Y
    zero_col[:, 11] = 0.0
    return {
        "full_rank_12x12": (gen_instance(12, 12, 12, 0.1, 1).Y, 12),
        "full_rank_200x6": (gen_instance(200, 6, 6, 0.1, 2).Y, 6),
        "full_rank_6x200": (gen_instance(6, 200, 6, 0.1, 3).Y, 6),
        "single_row_1x50": (gen_instance(1, 50, 1, 0.1, 4).Y, 1),
        "all_zero": (np.zeros((20, 30)), 2),
        "constant": (np.full((20, 30), 0.7), 1),
        "zero_row": (zero_row, 2),
        "zero_column": (zero_col, 2),
        # Short side 22 = 2 (r + 10) gets the exact init SVD, 23 the sketch.
        "exact_init_22x22": (gen_instance(22, 22, 1, 0.1, 7).Y, 1),
        "sketch_init_23x23": (gen_instance(23, 23, 1, 0.1, 8).Y, 1),
    }


EDGE_INPUTS = _edge_inputs()


class TestEdgeShapes:
    @pytest.mark.parametrize("mode", ["residual_rel", "iterate_change",
                                      "fixed_iters"])
    @pytest.mark.parametrize("case", sorted(EDGE_INPUTS))
    def test_finite_output_and_deterministic(self, case, mode):
        Y, r = EDGE_INPUTS[case]
        theta = FixedSchedule(0.5 * float(np.abs(Y).max()), 0.5)
        stop = StopRule(mode, 1e-6, 30)
        if case == "all_zero":
            # The init (X = S = 0) leaves a zero residual, which ends the
            # solve in every mode before a step from the zero factors.
            X, S, trace = solve(Y, r, theta, stop, seed=3)
            assert not X.any() and not S.any()
            assert trace.iterations == 0
            assert trace.stop_reason == "converged"
            return
        runs = [solve(Y, r, theta, stop, seed=3) for _ in range(2)]
        X, S, trace = runs[0]
        assert X.shape == S.shape == Y.shape
        assert np.isfinite(X).all() and np.isfinite(S).all()
        assert trace.stop_reason in ("converged", "max_iters")
        X2, S2, trace2 = runs[1]
        assert np.array_equal(X, X2) and np.array_equal(S, S2)
        assert trace.residuals == trace2.residuals

    # A shape that would take the Gram route, with a Y that leaves the Gram
    # no gap to vouch for: all zero, or of rank below r.  The init falls
    # back to the sketch, so each ends as the sketch makes it end.
    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @pytest.mark.parametrize("mode", ["residual_rel", "iterate_change"])
    def test_all_zero_gram_shape(self, monkeypatch, wide, mode):
        Y = np.zeros((60, 2400) if wide else (2400, 60))
        calls = record_routes(monkeypatch)
        X, S, trace = solve(Y, 1, FixedSchedule(0.1, 0.5),
                            StopRule(mode, 1e-6, 30), seed=1)
        assert calls == [("gram", True), ("sketch", False)]
        assert not X.any() and not S.any()
        assert (trace.iterations, trace.stop_reason) == (0, "converged")
        with pytest.raises(SingularGram, match="numerical rank below 1"):
            spectral_init(Y, 1, 0.1, seed=1, tangent=True)

    @pytest.mark.parametrize("wide", [False, True], ids=["tall", "wide"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_rank_below_r_gram_shape(self, monkeypatch, rng, wide, r):
        Y = rng.standard_normal((2400, 1)) @ rng.standard_normal((1, 60))
        Y = Y.T.copy() if wide else Y
        calls = record_routes(monkeypatch)
        # Nothing thresholded: the init is the rank-1 Y, which ends a
        # residual solve at once and collapses the next Gram.
        X, S, trace = solve(Y, r, FixedSchedule(1e9, 0.5),
                            StopRule("residual_rel", 1e-6, 30), seed=1)
        assert calls == [("gram", True), ("sketch", False)]
        assert (trace.iterations, trace.stop_reason) == (0, "converged")
        assert np.linalg.norm(X - Y) <= 1e-13 * np.linalg.norm(Y)
        with pytest.raises(SingularGram, match="collapsed at iteration 1"):
            solve(Y, r, FixedSchedule(1e9, 0.5),
                  StopRule("iterate_change", 1e-3, 30), seed=1)
        with pytest.raises(SingularGram, match=f"numerical rank below {r}"):
            spectral_init(Y, r, 1e9, seed=1, tangent=True)


class TestSolveScaledgd:
    def test_converges_on_easy_instance(self):
        inst = gen_instance(100, 100, 3, 0.05, 13)
        Xh, Sh, trace = solve_scaledgd(inst.Y, 3, 0.1, 0.5,
                                       StopRule("fixed_iters", max_iters=60),
                                       truth=inst.X_star)
        # Small-scale sparsification keeps false positives, so the floor is
        # shallow here; the large-n behavior is covered by the acceptance run.
        assert trace.rel_errs[-1] < 1e-2
        assert trace.rel_errs[-1] < trace.rel_errs[0] / 20

    def test_invalid_fraction(self, rng):
        Y = rng.standard_normal((10, 10))
        with pytest.raises(InvalidInput, match=r"fraction must be in \[0, 1\]"):
            solve_scaledgd(Y, 2, 1.5, 0.5)

    # Each is a bad setting, found before the init: NaN and inf would
    # diverge at iteration 1 (ConvergenceFailure), 0 and -1 would run on.
    @pytest.mark.parametrize("eta", [float("nan"), float("inf"), 0.0, -1.0],
                             ids=["nan", "inf", "zero", "negative"])
    def test_bad_step_rejected_before_init(self, monkeypatch, eta):
        Y = gen_instance(40, 40, 2, 0.1, 1).Y

        def no_init(*args):
            raise AssertionError("the init ran")
        monkeypatch.setattr(solver_module, "_sparsify_unchecked", no_init)
        with pytest.raises(InvalidInput, match="step size must be finite and > 0"):
            solve_scaledgd(Y, 2, 0.2, eta, StopRule("fixed_iters", max_iters=5))


def _fresh_solvers(L, R):
    """The Gram solvers ``(solve_R, solve_L)`` of ``(L, R)``, factored anew."""
    return gram_solve(R.T @ R), gram_solve(L.T @ L)


class TestSoftBackward:
    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    @pytest.mark.parametrize("where", ["between", "zero", "above"])
    def test_matches_dense_vjp(self, n1, n2, r, alpha, where):
        # MULTI_SLAB spans several slabs with a partial last one, at r > 1
        # and at r = 1 (the broadcast outer-product path).  The threshold
        # clips some entries and not others, clips every one (zeta = 0,
        # which learned schedules reach), or clips none (zeta above
        # max |T|, where zeta_bar is exactly 0).
        inst = gen_instance(n1, n2, r, alpha, 5)
        f = spectral_init(inst.Y, r, float(np.abs(inst.Y).max()),
                          seed=1).factors
        L, R = f.L, f.R
        T = inst.Y - L @ R.T
        zeta = {"between": float(np.quantile(np.abs(T), 0.7)), "zero": 0.0,
                "above": 2.0 * float(np.abs(T).max())}[where]
        rng = np.random.default_rng(8)
        L_bar = rng.standard_normal(L.shape)
        R_bar = rng.standard_normal(R.shape)
        got = _soft_backward(inst.Y, L, R, zeta, 0.6, L_bar, R_bar, _Scratch(),
                             _fresh_solvers(L, R))
        ref = dense_layer_vjp(inst.Y, L, R, zeta, 0.6, L_bar, R_bar)
        for a, b in zip(got[:2], ref[:2]):
            assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)
        assert got[2] == pytest.approx(ref[2], rel=1e-11)
        assert got[3] == pytest.approx(ref[3], rel=1e-11)
        if where == "above":
            assert got[2] == 0.0 == ref[2]
        else:
            assert ref[2] != 0.0

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_reuses_forward_factorizations(self, monkeypatch, n1, n2, r,
                                           alpha):
        # The layer takes the Gram solvers its forward step made: it
        # factors no Gram, and its outputs are those of fresh solvers.
        inst = gen_instance(n1, n2, r, alpha, 5)
        f = spectral_init(inst.Y, r, float(np.abs(inst.Y).max()),
                          seed=1).factors
        zeta = float(np.quantile(np.abs(inst.Y - f.product()), 0.7))
        p = _soft_pass(inst.Y, f.L, f.R, zeta, _Scratch())
        solvers = _scaled_update(f, p, 0.6)[2]
        rng = np.random.default_rng(8)
        L_bar, R_bar = rng.standard_normal(f.L.shape), rng.standard_normal(f.R.shape)
        args = (inst.Y, f.L, f.R, zeta, 0.6, L_bar, R_bar, _Scratch())
        fresh = _fresh_solvers(f.L, f.R)
        calls, real = [], solver_module.gram_solve
        monkeypatch.setattr(solver_module, "gram_solve",
                            lambda G: calls.append(G) or real(G))
        got = _soft_backward(*args, solvers)
        assert calls == []
        ref = _soft_backward(*args, fresh)
        assert _bit_equal(got, ref)


def _slab_calls(inst, r, scratch=None):
    """Every slab kernel once on ``inst``, through ``scratch`` when given,
    else through a fresh set each; the buffers are filled with NaN first,
    so a read of a value left over from an earlier call would show."""
    def buffers():
        s = scratch if scratch is not None else _Scratch()
        for buf in s.slabs(*inst.Y.shape)[1]:
            buf.fill(np.nan)
        return s

    f = spectral_init(inst.Y, r, float(np.abs(inst.Y).max()), seed=1).factors
    zeta = float(np.quantile(np.abs(inst.Y - f.product()), 0.7))
    S_out = inst.S_star.copy()
    p = _soft_pass(inst.Y, f.L, f.R, zeta, buffers(), S=inst.S_star,
                   S_out=S_out, truth=inst.X_star, for_stop=True)
    new, _, solvers = _scaled_update(f, p, 0.6)
    rng = np.random.default_rng(8)
    L_bar, R_bar = rng.standard_normal(f.L.shape), rng.standard_normal(f.R.shape)
    back = _soft_backward(inst.Y, f.L, f.R, zeta, 0.6, L_bar, R_bar, buffers(),
                          solvers)
    last = _soft_pass(inst.Y, new.L, new.R, None, buffers(), S=S_out,
                      truth=inst.X_star)
    return [*p, S_out, *back, *last]


def _bit_equal(a, b):
    return len(a) == len(b) and all(
        (x is None and y is None) or np.array_equal(x, y) for x, y in zip(a, b))


class TestSlabScratch:
    """One solve or training run reuses one set of slab buffers; the
    results must not depend on it."""

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_reused_set_bit_equal_to_fresh(self, n1, n2, r, alpha):
        # MULTI_SLAB's shapes end in a partial slab, and each is the other
        # shape for the other case, so the set is remade for this one.
        inst = gen_instance(n1, n2, r, alpha, 6)
        other = [s for s in MULTI_SLAB if s[:2] != (n1, n2)][0]
        fresh = _slab_calls(inst, r)
        scratch = _Scratch()
        _slab_calls(gen_instance(*other, 7), other[2], scratch)
        assert scratch.slabs(n1, n2)[1][0].shape == (_block_rows(n1, n2), n2)
        assert _bit_equal(_slab_calls(inst, r, scratch), fresh)
        # Reused at the same shape, after the calls above left their values.
        assert _bit_equal(_slab_calls(inst, r, scratch), fresh)

    def test_set_remade_only_for_a_new_shape(self):
        scratch = _Scratch()
        step, bufs = scratch.slabs(300, 2000)
        assert step == _block_rows(300, 2000) and len(bufs) == 3
        assert scratch.slabs(300, 2000)[1] is bufs
        # Another row count with the same rows per slab keeps the set.
        assert scratch.slabs(400, 2000)[1] is bufs
        assert scratch.slabs(300, 1000)[1] is not bufs

    def test_concurrent_solves_match_serial(self):
        # Each solve owns its buffers, so solves on threads share nothing.
        # Three solves (of two shapes) on a 2-core machine keep a thread
        # waiting while the others run.
        cases = [(gen_instance(300, 2000, 5, 0.1, 11), 5),
                 (gen_instance(4000, 60, 1, 0.05, 12), 1),
                 (gen_instance(300, 2000, 5, 0.1, 13), 5)]

        def run(inst, r):
            theta = FixedSchedule(0.3 * float(np.abs(inst.Y).max()), 0.6)
            return solve(inst.Y, r, theta, StopRule("iterate_change", 1e-6, 30),
                         truth=inst.X_star, seed=2)

        serial = [run(*case) for case in cases]
        results = run_concurrently([lambda c=c: run(*c) for c in cases])
        for (X, S, trace), (X_s, S_s, trace_s) in zip(results, serial):
            assert np.array_equal(X, X_s) and np.array_equal(S, S_s)
            assert trace.residuals == trace_s.residuals
            assert trace.rel_errs == trace_s.rel_errs


def video_clip(height, width, n_frames):
    """A blob scene's frame matrix as :func:`read_pgm_sequence` would give
    it from 8-bit PGMs: quantized, float32, C-ordered."""
    seq, _ = moving_blob_scene(height=height, width=width, n_frames=n_frames,
                               blob=5, amplitude=0.85877, phase=(97, 64))
    q = np.round(np.clip(seq.matrix, 0.0, 1.0) * 255.0)
    return np.ascontiguousarray(q, dtype=np.float32) / np.float32(255.0)


def video_schedule():
    return ParamSchedule(zetas=tuple(0.425 * 0.65 ** k for k in range(11)),
                         etas=(0.65,) * 10, beta=1.0, phi=0.65)


def outcome(run):
    """``(error, result)`` of ``run()``: the type and message of the error
    it raised and None, or None and what it returned."""
    try:
        return None, run()
    except LrpcaError as exc:
        return f"{type(exc).__name__}: {exc}", None


class TestFloat32:
    """A float32 ``Y`` runs the slab passes in float32; everything n x r or
    smaller, and every sum, stays float64.  The rule of every entry point:
    outputs of ``Y``'s size keep its dtype, the rest is float64."""

    # The float64 twin solves the same float32 values in float64.  Both end
    # alike; their outputs differ by float32 rounding (measured 5e-8 on X).
    @pytest.mark.parametrize("case", ["clip", "oracle", "learned"])
    def test_matches_float64_solve_of_same_values(self, case):
        if case == "clip":
            Y, r, truth = video_clip(40, 60, 60), 1, None
            theta, stop = video_schedule(), StopRule("iterate_change", 1e-3, 100)
        else:
            inst = gen_instance(300, 200, 3, 0.1, 7)
            Y, r, truth = inst.Y.astype(np.float32), 3, inst.X_star
            theta = (OracleSchedule(0.5) if case == "oracle" else
                     ParamSchedule(zetas=tuple(0.3 * 0.7 ** k for k in range(6)),
                                   etas=(0.6,) * 5, beta=1.0, phi=0.7))
            stop = StopRule("residual_rel", 1e-5, 100)
        X, S, trace = solve(Y, r, theta, stop, truth=truth, seed=1)
        X64, S64, trace64 = solve(Y.astype(np.float64), r, theta, stop,
                                  truth=truth, seed=1)
        assert X.dtype == S.dtype == np.float32
        assert trace.stop_reason == trace64.stop_reason == "converged"
        assert trace.iterations == trace64.iterations > 1
        assert np.linalg.norm(X - X64) <= 1e-6 * np.linalg.norm(X64)
        assert np.linalg.norm(S - S64) <= 1e-6 * np.linalg.norm(Y)
        np.testing.assert_allclose(trace.residuals, trace64.residuals,
                                   rtol=1e-3, atol=1e-6)
        # Against a dense float64 recomputation the last residual is off by
        # float32 rounding, about 1e-7 of ||Y||_F (see SolveTrace).
        Yd = Y.astype(np.float64)
        dense = (np.linalg.norm(Yd - X.astype(np.float64) - S.astype(np.float64))
                 / np.linalg.norm(Yd))
        assert abs(trace.residuals[-1] - dense) <= 1e-6
        if truth is not None:
            assert trace.rel_errs[-1] == pytest.approx(trace64.rel_errs[-1],
                                                       rel=1e-3)

    def test_loop_holds_no_float64_video(self, monkeypatch):
        # After the init, whose SVD reads a float64 copy of A, an
        # iterate_change solve holds its float32 S, the slab scratch and
        # then the returned float32 X: about 2.2 times Y's bytes.  A float64
        # array of Y's size in the loop, or a float64 X cast down, would add
        # 2 more.
        Y = video_clip(120, 160, 60)
        real_init = solver_module.spectral_init

        def init_then_reset(*args):
            state = real_init(*args)
            tracemalloc.reset_peak()
            return state
        monkeypatch.setattr(solver_module, "spectral_init", init_then_reset)
        (X, S, trace), peak = traced_peak(
            lambda: solve(Y, 1, video_schedule(),
                          StopRule("iterate_change", 1e-3, 100)))
        assert trace.iterations > 1 and X.dtype == S.dtype == np.float32
        assert peak < 2.5 * Y.nbytes

    def test_entry_points_follow_the_rule(self):
        inst = gen_instance(60, 50, 2, 0.1, 3)
        Y = inst.Y.astype(np.float32)
        Y64 = Y.astype(np.float64)
        z = 0.5 * float(np.abs(Y64).max())
        assert soft_threshold(Y, z).dtype == np.float32
        np.testing.assert_allclose(soft_threshold(Y, z), soft_threshold(Y64, z),
                                   rtol=0, atol=1e-7)
        assert np.array_equal(sparsify_top_fraction(Y, 0.2),
                              sparsify_top_fraction(Y64, 0.2).astype(np.float32))
        assert sparsify_top_fraction(Y, 0.2).dtype == np.float32

        state, tangent = spectral_init(Y, 2, z, seed=1, tangent=True)
        plain = spectral_init(Y, 2, z, seed=1)
        assert state.S.dtype == np.float32
        for M in (state.factors.L, state.factors.R, tangent.L, tangent.R):
            assert M.dtype == np.float64
        assert np.array_equal(state.S, plain.S)
        assert np.array_equal(state.factors.L, plain.factors.L)

        step = lrpca_step(plain, Y, z, 0.5)
        assert step.S.dtype == np.float32
        assert step.factors.L.dtype == step.factors.R.dtype == np.float64
        step64 = lrpca_step(plain, Y64, z, 0.5)
        assert np.linalg.norm(step.factors.L - step64.factors.L) <= (
            1e-6 * np.linalg.norm(step64.factors.L))

        stop = StopRule("residual_rel", 1e-5, 100)
        X, S, trace = solve_scaledgd(Y, 2, 0.2, 0.5, stop, truth=inst.X_star)
        _, _, trace64 = solve_scaledgd(Y64, 2, 0.2, 0.5, stop, truth=inst.X_star)
        assert X.dtype == S.dtype == np.float32
        assert trace.iterations == trace64.iterations

    def test_linalg_stays_float64(self, rng):
        A = rng.standard_normal((40, 30)).astype(np.float32)
        A64 = A.astype(np.float64)
        f, f64 = truncated_svd(A, 3), truncated_svd(A64, 3)
        for got, want in zip((f.U, f.sigma, f.V), (f64.U, f64.sigma, f64.V)):
            assert got.dtype == np.float64 and np.array_equal(got, want)
        for kind in ("fro", "inf", "two_inf", "one_inf", "spectral"):
            assert matrix_norm(A, kind) == matrix_norm(A64, kind)
            assert isinstance(matrix_norm(A, kind), float)

    # The degenerate cases of TestEdgeShapes, in float32: each ends as its
    # float64 twin (the same values in float64) ends, by the same routes.
    # The rank-1 Y is an outer product of small integers over a power of
    # two, so it is exactly rank 1 in both dtypes.
    @pytest.mark.parametrize("mode", ["residual_rel", "iterate_change"])
    @pytest.mark.parametrize("case, r", [
        ("all_zero_20x30", 2), ("all_zero_2400x60", 1), ("all_zero_60x2400", 1),
        ("rank1_2400x60", 2), ("rank1_2400x60", 3), ("rank1_60x2400", 2)])
    def test_degenerate_ends_as_float64_twin(self, monkeypatch, rng, case,
                                             mode, r):
        kind, shape = case.rsplit("_", 1)
        n1, n2 = map(int, shape.split("x"))
        if kind == "all_zero":
            Y, zeta = np.zeros((n1, n2)), 0.1
        else:
            Y = np.outer(rng.integers(1, 60, max(n1, n2)),
                         rng.integers(-60, 60, min(n1, n2))) / 64.0
            Y, zeta = (Y.T.copy() if n1 < n2 else Y), 1e9
        stop = StopRule(mode, 1e-6 if mode == "residual_rel" else 1e-3, 30)
        runs = []
        for M in (Y, Y.astype(np.float32)):
            calls = record_routes(monkeypatch)
            err, out = outcome(lambda: solve(M, r, FixedSchedule(zeta, 0.5),
                                             stop, seed=1))
            end = err or (out[2].iterations, out[2].stop_reason)
            init = outcome(lambda: spectral_init(M, r, zeta, seed=1,
                                                 tangent=True))[0]
            runs.append((end, init, calls))
            monkeypatch.undo()
        assert runs[0] == runs[1]
        if kind == "all_zero":
            assert runs[0][0] == (0, "converged")

    def test_divergence_ends_in_convergence_failure(self):
        # A huge step throws the factors far out: the float64 twin's
        # residual stays finite (about 7.7e29) to the cap, while the float32
        # slabs overflow, which the passes do not warn about; the residual
        # is then not finite and the solve raises, naming the iteration.
        Y = gen_instance(60, 50, 2, 0.1, 1).Y
        theta = FixedSchedule(0.5 * float(np.abs(Y).max()), 1e30)
        stop = StopRule("residual_rel", 1e-6, 60)
        _, _, trace = solve(Y, 2, theta, stop)
        assert trace.stop_reason == "max_iters"
        assert trace.residuals[-1] == pytest.approx(7.7e29, rel=0.01)
        with pytest.raises(ConvergenceFailure, match=r"at iteration \d+:"):
            solve(Y.astype(np.float32), 2, theta, stop)
        # ScaledGD diverges in both dtypes.  The float32 sparsify pass
        # overflows into W R first; the factor update carries the NaN to
        # the residual, which names the iteration in both, as it does for
        # the float64 twin.
        for M in (Y, Y.astype(np.float32)):
            with pytest.raises(ConvergenceFailure,
                               match=r"is nan at iteration \d+:"):
                solve_scaledgd(M, 2, 0.1, 1e30, stop)


def test_traced_call_sites_are_called(monkeypatch):
    # The benchmark's tracer sees a layer only through the module attribute
    # its caller looks up at call time; a refactor that bypasses one of
    # these would zero that layer's traced metrics without failing.
    calls = {}

    def counting(name):
        fn = getattr(solver_module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return counted

    names = ("gram_solve", "soft_threshold", "spectral_init")
    for name in names:
        monkeypatch.setattr(solver_module, name, counting(name))
    seq, _ = moving_blob_scene(height=12, width=16, n_frames=12)
    frames = FrameSequence(seq.matrix.astype(np.float32), 12, 16)
    Y = gen_instance(40, 30, 2, 0.1, 1).Y
    theta = FixedSchedule(0.5 * float(np.abs(Y).max()), 0.5)
    k = 2
    stop = StopRule("fixed_iters", 0, k)
    # ScaledGD's init and outlier rule call neither soft_threshold nor
    # spectral_init.
    for run, seen in (
            (lambda: background_subtract(frames, 1, FixedSchedule(0.5, 0.5),
                                         stop), names),
            (lambda: solve(Y, 2, theta, stop), names),
            (lambda: solve_scaledgd(Y, 2, 0.1, 0.5, stop), ("gram_solve",))):
        calls.update(dict.fromkeys(names, 0))
        run()
        assert all(calls[name] > 0 for name in seen), calls
        # Each iteration factors R^T R and L^T L once each, the step's sums
        # included.
        assert calls["gram_solve"] == 2 * k, calls
    # So does each forward step of a training gradient, and its backward
    # layer reuses the step's factorizations: a stage-k gradient factors
    # 2 k Grams, not 4 k.
    theta = ParamSchedule(zetas=(theta.zeta0,) * (k + 1), etas=(0.5,) * k)
    calls["gram_solve"] = 0
    _stage_gradient(theta, gen_instance(40, 30, 2, 0.1, 1), k, _Scratch())
    assert calls["gram_solve"] == 2 * k
