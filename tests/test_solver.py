import numpy as np
import pytest

from lrpca import (ConvergenceFailure, FactorPair, FixedSchedule, InvalidInput,
                   OracleSchedule, ParamSchedule, SingularGram, SolverState, StopRule, gen_instance,
                   lrpca_step, residual_rel, solve, solve_scaledgd,
                   spectral_init, truncated_svd)
from lrpca import solver as solver_module
from lrpca.solver import (_block_rows, _factor_state, _low_rank_change,
                          _scaled_update, _Scratch, _soft_backward, _soft_last,
                          _soft_pass, _sparsify_pass)
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


class TestSpectralInit:
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

    # Wide and tall shapes whose short side exceeds 2 (r + 10), so the init
    # takes the range sketch, each at a loose and a tight threshold (the
    # tight one leaves outliers in Y - S_0 and narrows the spectral gap).
    @pytest.mark.parametrize("n1, n2, r, alpha", [(600, 2000, 5, 0.1),
                                                  (4000, 60, 1, 0.05)])
    @pytest.mark.parametrize("frac", [0.5, 0.1])
    def test_sketch_within_contract_of_exact_truncation(
            self, monkeypatch, n1, n2, r, alpha, frac):
        def accurate_svd(*args, **kwargs):
            raise AssertionError("init took the truncated_svd path")

        monkeypatch.setattr(solver_module, "truncated_svd", accurate_svd)
        inst = gen_instance(n1, n2, r, alpha, 5)
        state = spectral_init(inst.Y, r, frac * np.abs(inst.Y).max(), seed=3)
        U, s, Vt = np.linalg.svd(inst.Y - state.S, full_matrices=False)
        exact = (U[:, :r] * s[:r]) @ Vt[:r]
        bound = 10 * (s[r] / s[r - 1]) ** 7 + 1e-12
        err = np.linalg.norm(state.low_rank() - exact)
        assert err <= bound * np.linalg.norm(exact)

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
    return SolverState(_scaled_update(state.factors, p, eta), S)


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


class TestResidualRel:
    def test_exact_low_rank(self, rng):
        Y = rng.standard_normal((5, 5))
        assert residual_rel(Y, Y, np.zeros_like(Y)) == 0.0

    def test_all_zero_estimate(self, rng):
        Y = rng.standard_normal((5, 5))
        assert residual_rel(Y, np.zeros_like(Y), np.zeros_like(Y)) == pytest.approx(1.0)

    def test_exact_split(self, rng):
        Y = rng.standard_normal((5, 5))
        X = rng.standard_normal((5, 5))
        assert residual_rel(Y, X, Y - X) == 0.0

    def test_zero_observation_rejected(self):
        Z = np.zeros((3, 3))
        with pytest.raises(InvalidInput):
            residual_rel(Z, Z, Z)


class TestSolve:
    def test_outlier_free_stops_at_init(self, rng):
        X = rank_r_instance(rng)
        Xh, Sh, trace = solve(X, 3, OracleSchedule(0.5),
                              StopRule("residual_rel", 1e-8, 50), truth=X)
        assert trace.iterations == 0
        assert trace.residuals[0] <= 1e-8

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
        assert trace.iters == list(range(8))

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
        # factors could meet a singular Gram.
        for mode in ("residual_rel", "iterate_change", "fixed_iters"):
            Xh, Sh, trace = solve(X, 2, FixedSchedule(0.0, 0.5),
                                  StopRule(mode, 1e-6, 20))
            assert trace.iterations == 0
            assert trace.residuals == [0.0]
            assert trace.stop_reason == "converged"
            assert np.count_nonzero(Xh) == 0
            assert np.array_equal(Sh, X)

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
        np.testing.assert_allclose(trace.residuals, res_ref, rtol=1e-10)
        np.testing.assert_allclose(trace.rel_errs, err_ref, rtol=1e-10)
        assert np.linalg.norm(X - X_ref) <= 1e-12 * np.linalg.norm(X_ref)
        assert np.linalg.norm(S - S_ref) <= 1e-12 * np.linalg.norm(S_ref)

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    @pytest.mark.parametrize("stop", [
        StopRule("residual_rel", 1e-6, 100),
        StopRule("iterate_change", 1e-6, 100),
        StopRule("fixed_iters", max_iters=20),
    ], ids=["residual", "change", "fixed"])
    def test_last_trace_row_measures_returned_iterate(self, n1, n2, r, alpha,
                                                      stop):
        inst = gen_instance(n1, n2, r, alpha, 3)
        X, S, trace = solve(inst.Y, r, OracleSchedule(0.5), stop,
                            truth=inst.X_star, seed=1)
        assert trace.residuals[-1] == pytest.approx(
            residual_rel(inst.Y, X, S), rel=1e-12)
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
            _, _, trace = solve(inst.Y, r, OracleSchedule(0.5), stop,
                                truth=inst.X_star, seed=1)
            _, _, res_ref, err_ref = _dense_run(inst, OracleSchedule(0.5),
                                                stop)
            np.testing.assert_allclose(trace.rel_errs, err_ref, rtol=1e-10)
        else:
            a = 2 * alpha
            stop = StopRule(stop.mode, stop.tolerance, 25)
            _, _, trace = solve_scaledgd(inst.Y, r, a, 0.5, stop, seed=1)
            init = _factor_state(inst.Y, sort_sparsify(inst.Y, a), r, 1)
            _, _, res_ref, _ = dense_reference_solve(
                inst.Y, init.factors.L, init.factors.R, init.S,
                lambda k, X: (a, 0.5), stop.mode, stop.tolerance,
                stop.max_iters, outlier=sort_sparsify)
        assert trace.iterations == len(res_ref) - 1 > 1
        np.testing.assert_allclose(trace.residuals, res_ref, rtol=1e-10)

    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_residual_stop_holds_one_S(self, n1, n2, r, alpha):
        # Besides its input Y, a residual-stop solve holds one S and the
        # returned X at a time, never a second S buffer.  The init holds S_0
        # and Y - S_0 plus its sketch, whose n1 x (r + 10) temporaries are
        # a fifth of Y each on the tall shape; the solve may reach that
        # peak but not pass it.
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
    def test_iterate_change_frees_spare_S(self, n1, n2, r, alpha):
        # An iterate_change solve holds S_k and S_{k+1} and the slab scratch
        # while it iterates, and frees the spare S before it forms the
        # returned X: besides Y, two n1 x n2 buffers at a time, never three.
        inst = gen_instance(n1, n2, r, alpha, 3)
        s0 = float(np.abs(inst.S_star).max())
        theta = ParamSchedule(zetas=(s0, 0.5 * s0), etas=(0.5,), phi=0.7)
        stop = StopRule("iterate_change", 1e-4, 100)
        _, init_peak = traced_peak(lambda: spectral_init(inst.Y, r, s0, seed=1))
        (_, _, trace), peak = traced_peak(
            lambda: solve(inst.Y, r, theta, stop, seed=1))
        assert trace.iterations > 1
        assert peak < max(2.5 * inst.Y.nbytes,
                          init_peak + 0.05 * inst.Y.nbytes)

    @pytest.mark.parametrize("scale", [1e-1, 1e-6, 1e-10])
    def test_low_rank_change_from_grams(self, rng, scale):
        L, R = rng.standard_normal((50, 3)), rng.standard_normal((40, 3))
        L2 = L + scale * rng.standard_normal(L.shape)
        R2 = R + scale * rng.standard_normal(R.shape)
        dense = np.linalg.norm((L2 - L) @ R2.T + L @ (R2 - R).T)
        diff_sq, base_sq = _low_rank_change(FactorPair(L, R),
                                            FactorPair(L2, R2))
        assert np.sqrt(diff_sq / base_sq) == pytest.approx(
            dense / np.linalg.norm(L @ R.T), rel=1e-9)

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


class TestSoftBackward:
    @pytest.mark.parametrize("n1, n2, r, alpha", MULTI_SLAB)
    def test_matches_dense_vjp(self, n1, n2, r, alpha):
        # MULTI_SLAB spans several slabs with a partial last one, at r > 1
        # and at r = 1 (the broadcast outer-product path).
        inst = gen_instance(n1, n2, r, alpha, 5)
        f = spectral_init(inst.Y, r, float(np.abs(inst.Y).max()),
                          seed=1).factors
        L, R = f.L, f.R
        T = inst.Y - L @ R.T
        zeta = float(np.quantile(np.abs(T), 0.7))  # both sides of the clip
        rng = np.random.default_rng(8)
        L_bar = rng.standard_normal(L.shape)
        R_bar = rng.standard_normal(R.shape)
        got = _soft_backward(inst.Y, L, R, zeta, 0.6, L_bar, R_bar, _Scratch())
        ref = dense_layer_vjp(inst.Y, L, R, zeta, 0.6, L_bar, R_bar)
        for a, b in zip(got[:2], ref[:2]):
            assert np.linalg.norm(a - b) <= 1e-11 * np.linalg.norm(b)
        assert got[2] == pytest.approx(ref[2], rel=1e-11)
        assert got[3] == pytest.approx(ref[3], rel=1e-11)
        assert ref[2] != 0.0


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
    S_out = np.empty(inst.Y.shape)
    p = _soft_pass(inst.Y, f.L, f.R, zeta, buffers(), S=inst.S_star,
                   S_out=S_out, truth=inst.X_star, prev=inst.S_star,
                   resid_next=True)
    new = _scaled_update(f, p, 0.6)
    rng = np.random.default_rng(8)
    L_bar, R_bar = rng.standard_normal(f.L.shape), rng.standard_normal(f.R.shape)
    back = _soft_backward(inst.Y, f.L, f.R, zeta, 0.6, L_bar, R_bar, buffers())
    S_last, last = _soft_last(inst.Y, f, new, zeta, buffers(), truth=inst.X_star)
    return [*p, S_out, *back, S_last, *last]


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
