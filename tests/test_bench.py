import numpy as np
import pytest

from lrpca import (FixedSchedule, InvalidInput, OracleSchedule, StopRule, bench,
                   gen_instance, solve)
from lrpca.bench import (BenchReport, REPORT_COLUMNS, SolverSpec,
                         convergence_bench, generalization_bench, lrpca_spec,
                         recoverability_sweep, runtime_scaling_bench,
                         scaledgd_spec, write_report, write_trace)
from lrpca.schedule import ParamSchedule
from lrpca.solver import SolveTrace


def toy_schedule(peak):
    return ParamSchedule(zetas=tuple(peak * 0.6 ** k for k in range(4)),
                         etas=(0.65,) * 3, beta=1.0, phi=0.6)


class TestConvergenceBench:
    def test_runs_all_specs_on_same_instance(self):
        inst = gen_instance(60, 60, 3, 0.1, 2)
        specs = [lrpca_spec(OracleSchedule(0.5)), scaledgd_spec(0.2)]
        report, traces = convergence_bench(specs, inst,
                                           StopRule("fixed_iters", max_iters=5))
        assert {row["solver"] for row in report.rows} == {"lrpca", "scaledgd"}
        assert set(traces) == {"lrpca", "scaledgd"}
        assert all(len(t) == 6 for t in traces.values())

    def test_empty_spec_list_rejected(self):
        inst = gen_instance(20, 20, 2, 0.1, 2)
        with pytest.raises(InvalidInput):
            convergence_bench([], inst, StopRule())

    def test_zero_iter_stop_traces_only_init(self):
        inst = gen_instance(20, 20, 2, 0.1, 2)
        _, traces = convergence_bench([lrpca_spec(OracleSchedule(0.5))], inst,
                                      StopRule("fixed_iters", max_iters=0))
        assert len(traces["lrpca"]) == 1


class TestRecoverabilitySweep:
    def test_alpha_zero_always_succeeds(self):
        report = recoverability_sweep(
            [0.0], 3, lambda a: [lrpca_spec(OracleSchedule(0.5))],
            success_tol=1e-3, n=40, r=2, base_seed=10, max_iters=10)
        assert report.success_count() == 3

    def test_common_seeds_across_alphas(self):
        report = recoverability_sweep(
            [0.0, 0.05], 2, lambda a: [lrpca_spec(OracleSchedule(0.5))],
            success_tol=1e-3, n=30, r=2, base_seed=7, max_iters=10)
        seeds = sorted({row["seed"] for row in report.rows})
        assert seeds == [7, 8]

    def test_solver_failure_counts_as_miss(self):
        # A step of 1e150 diverges at once, and the solve raises.
        report = recoverability_sweep(
            [0.2], 2, lambda a: [scaledgd_spec(0.1, eta=1e150)],
            success_tol=1e-3, n=30, r=2, base_seed=3, max_iters=5)
        assert report.success_count() == 0
        assert all(row["iters"] == -1 for row in report.rows)

    # A caller's mistake is no miss: a bad step size ran every row as one.
    @pytest.mark.parametrize("eta", [-1.0, float("nan")])
    def test_bad_step_size_raises(self, eta):
        with pytest.raises(InvalidInput, match="step size must be finite"):
            recoverability_sweep([0.2], 2, lambda a: [scaledgd_spec(0.1, eta)],
                                 success_tol=1e-3, n=30, r=2, base_seed=3,
                                 max_iters=5)

    # No final error is below a NaN tolerance, so every trial was a miss.
    @pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-3, True])
    def test_bad_success_tol_rejected_before_any_solve(self, tol):
        def unused(inst, stop):
            raise AssertionError("solved with a bad success_tol")

        with pytest.raises(InvalidInput, match="success_tol must be finite"):
            recoverability_sweep([0.2], 1,
                                 lambda a: [SolverSpec("unused", unused)],
                                 success_tol=tol, n=20, r=2)

    # A count of 1.5 passed the old `< 1` test and failed in range().
    @pytest.mark.parametrize("trials", [0, 1.5])
    def test_needs_trials(self, trials):
        with pytest.raises(InvalidInput,
                           match="trials_per_alpha must be >= 1"):
            recoverability_sweep([0.1], trials,
                                 lambda a: [scaledgd_spec(0.2)], 1e-3,
                                 n=20, r=2)

    def test_one_instance_per_trial_shared_by_solvers(self, monkeypatch):
        seeds = []

        def counting_gen(*args):
            seeds.append(args[-1])
            return gen_instance(*args)

        monkeypatch.setattr(bench, "gen_instance", counting_gen)
        specs = [lrpca_spec(OracleSchedule(0.5)), scaledgd_spec(0.2)]
        report = recoverability_sweep([0.0, 0.1], 2, lambda a: specs,
                                      success_tol=1e-3, n=20, r=2,
                                      base_seed=5, max_iters=3)
        assert seeds == [5, 6, 5, 6]
        assert [(row["alpha"], row["seed"], row["solver"])
                for row in report.rows] == [
            (alpha, seed, name) for alpha in (0.0, 0.1) for seed in (5, 6)
            for name in ("lrpca", "scaledgd")]

    def test_empty_spec_list_rejected_before_any_solve(self):
        def run(inst, stop):
            raise AssertionError("solved before the spec lists were checked")

        factory = {0.0: [SolverSpec("never", run)], 0.1: []}.get
        with pytest.raises(InvalidInput):
            recoverability_sweep([0.0, 0.1], 1, factory, 1e-3, n=20, r=2)

    def test_success_monotone_in_alpha_soft_property(self, capsys):
        # Success counts should not increase with the outlier level on
        # common seeds.  This is statistical, so violations are reported
        # rather than failed.
        alphas = [0.0, 0.15, 0.3, 0.45, 0.6]
        report = recoverability_sweep(
            alphas, 3, lambda a: [lrpca_spec(OracleSchedule(0.5))],
            success_tol=1e-3, n=150, r=3, base_seed=60, max_iters=60)
        counts = []
        for alpha in alphas:
            counts.append(sum(r["success"] for r in report.rows
                              if r["alpha"] == alpha))
        for lo, hi, a_lo, a_hi in zip(counts[1:], counts[:-1],
                                      alphas[1:], alphas[:-1]):
            if lo > hi:
                print(f"soft-property violation: {lo}/3 at alpha={a_lo} vs "
                      f"{hi}/3 at alpha={a_hi}")
        assert counts[0] == 3  # the clean level itself must be reliable


class TestRuntimeScaling:
    def test_requires_enough_iters(self):
        with pytest.raises(InvalidInput):
            runtime_scaling_bench([50], [2], 0)
        with pytest.raises(InvalidInput):
            runtime_scaling_bench([50], [2], 5)

    def test_produces_one_row_per_pair(self):
        rows = runtime_scaling_bench([40, 60], [2, 3], 10, base_seed=1)
        assert [(r["n"], r["r"]) for r in rows] == [(40, 2), (40, 3),
                                                    (60, 2), (60, 3)]
        assert all(r["median_iter_ms"] > 0 for r in rows)


class TestGeneralizationBench:
    def test_identity_target_matches_direct(self):
        theta = toy_schedule(0.02)
        report = generalization_bench(theta, (50, 2), [(50, 2)], tol=1e-3,
                                      trials=2, base_seed=30, max_iters=60)
        assert isinstance(report, BenchReport)
        assert [row["seed"] for row in report.rows] == [30, 31]
        for row in report.rows:
            inst = gen_instance(50, 50, 2, 0.1, row["seed"])
            _, _, trace = solve(inst.Y, 2, theta,
                                StopRule("residual_rel", 1e-3, 60),
                                truth=inst.X_star, seed=inst.seed)
            assert row["iters"] == trace.iterations >= 1
            assert row["final_rel_err"] == trace.rel_errs[-1]
            assert row["success"] == int(trace.stop_reason == "converged")

    @pytest.mark.parametrize("trials", [0, 1.5])
    def test_needs_trials(self, trials):
        with pytest.raises(InvalidInput, match="trials must be >= 1"):
            generalization_bench(toy_schedule(0.02), (40, 2), [(40, 2)],
                                 tol=1e-3, trials=trials)

    def test_rows_ordered_by_target_then_trial(self):
        report = generalization_bench(toy_schedule(0.02), (40, 2),
                                      [(50, 2), (40, 3)], tol=1e-3, trials=2,
                                      base_seed=5, max_iters=20)
        assert [(row["n"], row["r"], row["seed"]) for row in report.rows] == [
            (50, 2, 5), (50, 2, 6), (40, 3, 5), (40, 3, 6)]
        assert {row["solver"] for row in report.rows} == {"lrpca-rescaled"}


class TestReportCsv:
    def test_schema_and_determinism(self, tmp_path):
        report = BenchReport([
            {"solver": "lrpca", "seed": 1, "alpha": 0.1, "n": 10, "r": 2,
             "iters": 5, "final_rel_err": 1e-7, "wall_ms": 12.345, "success": 1},
        ])
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(report, p1)
        write_report(report, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == ",".join(REPORT_COLUMNS)
        assert lines[1].split(",")[0] == "lrpca"

    def test_golden_bytes(self, tmp_path):
        # 17 significant digits for alpha and the error, 3 decimals for the
        # time, LF endings; inf marks a failed solve, nan an unknown error.
        report = BenchReport([
            {"solver": "lrpca", "seed": 7, "alpha": 0.1, "n": 500, "r": 5,
             "iters": 12, "final_rel_err": 1e-4 / 3, "wall_ms": 12.3456,
             "success": 1},
            {"solver": "scaledgd", "seed": 7, "alpha": 0.1, "n": 500, "r": 5,
             "iters": -1, "final_rel_err": float("inf"), "wall_ms": 0.0,
             "success": 0},
            {"solver": "lrpca", "seed": 8, "alpha": 0.1 + 0.2, "n": 40, "r": 2,
             "iters": 3, "final_rel_err": float("nan"), "wall_ms": 0.0005,
             "success": 0},
        ])
        path = tmp_path / "report.csv"
        write_report(report, path)
        assert path.read_bytes() == (
            b"solver,seed,alpha,n,r,iters,final_rel_err,wall_ms,success\n"
            b"lrpca,7,0.10000000000000001,500,5,12,3.3333333333333335e-05,"
            b"12.346,1\n"
            b"scaledgd,7,0.10000000000000001,500,5,-1,inf,0.000,0\n"
            b"lrpca,8,0.30000000000000004,40,2,3,nan,0.001,0\n")

    def test_trace_golden_bytes(self, tmp_path):
        trace = SolveTrace()
        trace.append(0, 0.5, float("nan"), 1 / 3, 0.25, 1.23449)
        trace.append(1, 0.5 * 0.65, 0.65, 1e-5 / 3, 2e-3 / 3, 0.5)
        trace.append(2, 0.1 + 0.2, 0.7, 0.0, float("nan"), 1000.0)
        path = tmp_path / "trace.csv"
        write_trace(trace, path)
        assert path.read_bytes() == (
            b"iter,zeta,eta,residual_rel,rel_err,wall_ms\n"
            b"0,0.5,nan,0.33333333333333331,0.25,1.234\n"
            b"1,0.32500000000000001,0.65000000000000002,"
            b"3.3333333333333337e-06,0.00066666666666666664,0.500\n"
            b"2,0.30000000000000004,0.69999999999999996,0,nan,1000.000\n")

    def test_trace_csv_header(self, tmp_path):
        inst = gen_instance(20, 20, 2, 0.1, 2)
        _, _, trace = solve(inst.Y, 2, FixedSchedule(0.01, 0.5),
                            StopRule("fixed_iters", max_iters=3))
        path = tmp_path / "t.csv"
        write_trace(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iter,zeta,eta,residual_rel,rel_err,wall_ms"
        assert len(lines) == 5
