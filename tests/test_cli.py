import inspect
import os
import re
from pathlib import Path

import numpy as np
import pytest

from lrpca import (FixedSchedule, InstanceSource, OracleSchedule, ParamSchedule,
                   StopRule, TrainConfig, background_subtract, gen_instance,
                   read_matrix, read_schedule, train_schedule, write_matrix,
                   write_pgm, write_schedule)
from lrpca import bench as bench_mod
from lrpca.cli import build_parser, main, parse_config
from lrpca.video import moving_blob_scene


def run(args):
    return main([str(a) for a in args])


def read_lines(path):
    return path.read_text().splitlines()


def strip_wall(path):
    lines = read_lines(path)
    head = lines[0].split(",")
    keep = [i for i, c in enumerate(head) if not c.startswith("wall")]
    return ["|".join(ln.split(",")[i] for i in keep) for ln in lines]


class TestGen:
    def test_writes_instance_files(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--n", 30, "--r", 2, "--alpha", "0.1",
                    "--seed", 1, "--out", out]) == 0
        for name in ("Y.lrpm", "X_star.lrpm", "S_star.lrpm", "manifest.txt"):
            assert (out / name).exists()
        Y = read_matrix(out / "Y.lrpm")
        X = read_matrix(out / "X_star.lrpm")
        S = read_matrix(out / "S_star.lrpm")
        assert np.array_equal(Y, X + S)

    def test_deterministic_across_runs(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(["gen", "--n", 25, "--r", 2, "--alpha", "0.2", "--seed", 9, "--out", a])
        run(["gen", "--n", 25, "--r", 2, "--alpha", "0.2", "--seed", 9, "--out", b])
        assert (a / "Y.lrpm").read_bytes() == (b / "Y.lrpm").read_bytes()

    def test_files_are_instance_of_seed(self, tmp_path):
        out = tmp_path / "g"
        assert run(["gen", "--n", 20, "--n2", 24, "--r", 3, "--alpha", "0.15",
                    "--seed", 11, "--out", out]) == 0
        inst = gen_instance(20, 24, 3, 0.15, 11)
        for name in ("Y", "X_star", "S_star"):
            assert np.array_equal(read_matrix(out / f"{name}.lrpm"),
                                  getattr(inst, name))

    def test_bad_alpha_usage_error(self, tmp_path):
        assert run(["gen", "--n", 10, "--r", 2, "--alpha", "1.5",
                    "--seed", 0, "--out", tmp_path / "x"]) == 2

    def test_seed_ignores_environment(self, tmp_path, monkeypatch):
        # The seed follows flag > config > default like every setting.
        monkeypatch.setenv("LRPCA_SEED", "77")
        out = tmp_path / "env"
        assert run(["gen", "--n", 10, "--r", 2, "--alpha", "0.1",
                    "--out", out]) == 0
        manifest = parse_config(out / "manifest.txt")
        assert manifest["seed"] == "0"

    def test_seed_precedence_flag_config(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("seed = 5\nalpha = 0.2\n")
        base = ["gen", "--n", 10, "--r", 2, "--config", cfg]
        for extra, seed, alpha in (([], "5", "0.2"),
                                   (["--seed", 9, "--alpha", "0.3"], "9", "0.3")):
            out = tmp_path / f"p{seed}"
            assert run(base + extra + ["--out", out]) == 0
            manifest = parse_config(out / "manifest.txt")
            assert (manifest["seed"], manifest["alpha"]) == (seed, alpha)

    def test_missing_config_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m"
        assert run(["gen", "--n", 10, "--r", 2, "--alpha", "0.1", "--config",
                    tmp_path / "absent.txt", "--out", out]) == 2
        assert "config file not found" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_keys_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "c.txt"
        cfg.write_text("alpha = 0.1\nalpah = 0.3\njobs = 2\n")
        out = tmp_path / "u"
        assert run(["gen", "--n", 10, "--r", 2, "--config", cfg,
                    "--out", out]) == 2
        assert "alpah, jobs" in capsys.readouterr().err
        assert not out.exists()


class TestSolveCommand:
    @pytest.fixture
    def instance_dir(self, tmp_path):
        out = tmp_path / "inst"
        run(["gen", "--n", 40, "--r", 2, "--alpha", "0.1", "--seed", 3, "--out", out])
        return out

    def test_oracle_solve(self, instance_dir, tmp_path):
        out = tmp_path / "s"
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--oracle", "--truth", instance_dir / "X_star.lrpm",
                    "--stop-mode", "fixed_iters", "--max-iters", 10,
                    "--out", out])
        assert code == 0
        trace = read_lines(out / "trace.csv")
        assert trace[0] == "iter,zeta,eta,residual_rel,rel_err,wall_ms"
        assert len(trace) == 12  # header + init + 10 iterations
        rel_errs = [float(ln.split(",")[4]) for ln in trace[1:]]
        assert rel_errs[-1] < rel_errs[0]

    def test_summary_line_says_how_the_solve_ended(self, instance_dir,
                                                   tmp_path, capsys):
        # A solve that hits the cap must not read like one that converged.
        base = ["solve", "--y", instance_dir / "Y.lrpm", "--r", 2, "--oracle",
                "--truth", instance_dir / "X_star.lrpm"]
        for extra, reason in ((["--tol", "0.1"], "converged"),
                              (["--max-iters", 2], "max_iters")):
            out = tmp_path / reason
            assert run(base + extra + ["--out", out]) == 0
            iters = len(read_lines(out / "trace.csv")) - 2
            line = capsys.readouterr().out.strip()
            assert line.startswith(f"solve: {iters} iterations ({reason}), "
                                   "final residual ")

    def test_oracle_without_truth_is_usage_error(self, instance_dir, tmp_path,
                                                 capsys):
        # The oracle thresholds need the truth: a setting that cannot be run.
        out = tmp_path / "s2"
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--oracle", "--out", out])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "requires the true low-rank matrix" in err[0]
        assert not out.exists()

    def test_missing_schedule_usage_error(self, instance_dir, tmp_path):
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--schedule", tmp_path / "missing.csv",
                    "--out", tmp_path / "s3"])
        assert code == 2

    def test_fixed_zero_threshold_degenerate(self, tmp_path):
        # Outlier-free input with zeta = 0: S absorbs Y at initialization and
        # the residual is identically zero with X_hat = 0.
        out0 = tmp_path / "clean"
        run(["gen", "--n", 20, "--r", 2, "--alpha", "0.0", "--seed", 5,
             "--out", out0])
        out = tmp_path / "s4"
        code = run(["solve", "--y", out0 / "Y.lrpm", "--r", 2,
                    "--fixed", "0.0", "0.5", "--out", out])
        assert code == 0
        trace = read_lines(out / "trace.csv")
        assert len(trace) == 2  # header + init only
        assert float(trace[1].split(",")[3]) == 0.0
        assert np.count_nonzero(read_matrix(out / "X_hat.lrpm")) == 0

    def test_k0_schedule_solver_error(self, instance_dir, tmp_path, capsys):
        # K = 0 stores only zeta_0, so the schedule has nothing for a step:
        # InvalidInput, a schedule that cannot be run, exits 2.
        sched = tmp_path / "k0.csv"
        write_schedule(ParamSchedule(zetas=(1.0,), etas=()), sched)
        out = tmp_path / "k0"
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--schedule", sched, "--out", out])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "K=0" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_conflicting_sources_usage_error(self, instance_dir, tmp_path):
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--oracle", "--truth", instance_dir / "X_star.lrpm",
                    "--fixed", "0.1", "0.5", "--out", tmp_path / "s5"])
        assert code == 2

    def test_no_schedule_source_usage_error(self, instance_dir, tmp_path,
                                            capsys):
        out = tmp_path / "none"
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--truth", instance_dir / "X_star.lrpm", "--out", out])
        assert code == 2
        assert "exactly one" in capsys.readouterr().err
        assert not out.exists()

    def test_text_matrix_is_format_error(self, tmp_path, capsys):
        # .lrpm is the only matrix format; a CSV file fails on its magic.
        y = tmp_path / "Y.csv"
        y.write_text("1,2\n3,4\n")
        out = tmp_path / "csv"
        code = run(["solve", "--y", y, "--r", 1, "--fixed", "0.1", "0.5",
                    "--out", out])
        assert code == 1
        assert "bad magic" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("source", [
        ["--fixed", "0.1", "-3"], ["--fixed", "-0.1", "0.5"],
        ["--fixed", "nan", "0.5"], ["--oracle", "--eta", "0"],
    ], ids=["fixed_eta", "fixed_zeta", "fixed_nan", "oracle_eta"])
    def test_invalid_schedule_values_usage_error(self, instance_dir, tmp_path,
                                                 source):
        out = tmp_path / "bad"
        code = run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                    "--truth", instance_dir / "X_star.lrpm", *source,
                    "--out", out])
        assert code == 2
        assert not out.exists()

    def test_config_choice_checked_like_flag(self, instance_dir, tmp_path,
                                             capsys):
        base = ["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
                "--fixed", "0.1", "0.5", "--out", tmp_path / "c"]
        with pytest.raises(SystemExit) as info:
            run(base + ["--stop-mode", "bogus"])
        assert info.value.code == 2
        cfg = tmp_path / "c.txt"
        cfg.write_text("stop_mode = bogus\n")
        capsys.readouterr()
        assert run(base + ["--config", cfg]) == 2
        err = capsys.readouterr().err
        assert "stop_mode" in err
        assert "residual_rel, iterate_change, fixed_iters" in err

    def test_manifest_reproduces_outputs(self, instance_dir, tmp_path):
        out = tmp_path / "s6"
        run(["solve", "--y", instance_dir / "Y.lrpm", "--r", 2,
             "--oracle", "--truth", instance_dir / "X_star.lrpm",
             "--stop-mode", "fixed_iters", "--max-iters", 5, "--out", out])
        out2 = tmp_path / "s7"
        code = run(["solve", "--config", out / "manifest.txt", "--out", out2])
        assert code == 0
        assert (out / "X_hat.lrpm").read_bytes() == (out2 / "X_hat.lrpm").read_bytes()
        assert (out / "S_hat.lrpm").read_bytes() == (out2 / "S_hat.lrpm").read_bytes()


class TestTrainCommand:
    def test_tiny_training_run(self, tmp_path):
        out = tmp_path / "t"
        code = run(["train", "--n", 30, "--r", 2, "--alpha", "0.1",
                    "--K", 1, "--K-bar", 2, "--sgd-steps-per-stage", 2,
                    "--grid-min", "0.5", "--grid-max", "1.0",
                    "--grid-step", "0.5", "--grid-instances", 2,
                    "--seed", 3, "--out", out])
        assert code == 0
        theta = read_schedule(out / "schedule.csv")
        assert theta.K == 1
        log = read_lines(out / "training_log.csv")
        assert log[0] == "stage,step,loss,grad_norm"
        assert len(log) == 1 + 2 * 2
        rows = [ln.split(",") for ln in log[1:]]
        assert [row[:2] for row in rows] == [["0", "0"], ["0", "1"],
                                             ["1", "0"], ["1", "1"]]
        # loss and grad_norm: finite, >= 0, written with 17 digits.  The
        # gradient is 0 where zeta_0 thresholds no entry at stage 0, as at
        # stage 0, step 1 here.
        for row in rows:
            assert len(row) == 4
            for field in row[2:]:
                value = float(field)
                assert 0 <= value < float("inf")
                assert f"{value:.17g}" == field

    def test_schedule_row_cardinality(self, tmp_path):
        out = tmp_path / "t2"
        run(["train", "--n", 25, "--r", 2, "--alpha", "0.1",
             "--K", 2, "--K-bar", 3, "--sgd-steps-per-stage", 1,
             "--grid-min", "1.0", "--grid-max", "1.0", "--grid-step", "0.5",
             "--grid-instances", 1, "--seed", 1, "--out", out])
        kinds = [ln.split(",")[0] for ln in read_lines(out / "schedule.csv")[1:]]
        assert kinds.count("zeta") == 3
        assert kinds.count("eta") == 2
        assert kinds.count("beta") == 1
        assert kinds.count("phi") == 1

    def test_kbar_below_k_usage_error(self, tmp_path):
        code = run(["train", "--n", 20, "--r", 2, "--K", 3, "--K-bar", 2,
                    "--out", tmp_path / "t3"])
        assert code == 2

    @pytest.mark.parametrize("grid", [
        ["--grid-min", "0"], ["--grid-min", "1.0", "--grid-max", "0.5"],
        ["--grid-step", "0"], ["--grid-max", "inf"],
    ], ids=["min_zero", "min_above_max", "step_zero", "max_inf"])
    def test_bad_grid_usage_error_before_training(self, tmp_path, grid):
        out = tmp_path / "g"
        code = run(["train", "--n", 20, "--r", 2, "--K", 1, "--K-bar", 2,
                    *grid, "--out", out])
        assert code == 2
        assert not (out / "training_log.csv").exists()

    def test_same_pipeline_and_defaults_as_library(self, tmp_path):
        # No --sgd-steps-per-stage: the CLI takes TrainConfig's default and
        # runs train_schedule, so it learns the library's schedule.
        out = tmp_path / "lib"
        assert run(["train", "--n", 25, "--r", 2, "--alpha", "0.1",
                    "--K", 1, "--K-bar", 2, "--grid-min", "0.5",
                    "--grid-max", "1.0", "--grid-step", "0.5",
                    "--grid-instances", 2, "--seed", 8, "--out", out]) == 0
        cfg = TrainConfig(K=1, K_bar=2, grid=(0.5, 1.0, 0.5))
        theta = train_schedule(InstanceSource(25, 25, 2, 0.1, base_seed=8),
                               cfg, grid_instances=2)
        assert read_schedule(out / "schedule.csv") == theta
        steps = TrainConfig.sgd_steps_per_stage
        assert len(read_lines(out / "training_log.csv")) == 1 + 2 * steps
        assert f"sgd_steps_per_stage = {steps}" in read_lines(
            out / "manifest.txt")

    def test_removed_flags_rejected(self, tmp_path):
        gen = ["gen", "--n", 20, "--r", 2, "--alpha", "0.1"]
        train = ["train", "--n", 20, "--r", 2]
        bench = ["bench", "--kind", "recoverability"]
        for args, flag in ((gen, "--n1"), (train, "--fd-epsilon"),
                           (train, "--jobs"), (bench, "--jobs"),
                           (bench, "--scaledgd-alpha-tilde"),
                           (bench, "--base-n"), (bench, "--base-r")):
            with pytest.raises(SystemExit) as info:
                run(args + [flag, "1", "--out", tmp_path / "t4"])
            assert info.value.code == 2

    def test_deterministic_schedule(self, tmp_path):
        args = ["train", "--n", 25, "--r", 2, "--alpha", "0.1", "--K", 1,
                "--K-bar", 1, "--sgd-steps-per-stage", 2, "--grid-min", "1.0",
                "--grid-max", "1.0", "--grid-step", "1.0",
                "--grid-instances", 1, "--seed", 8]
        a, b = tmp_path / "a", tmp_path / "b"
        run(args + ["--out", a])
        run(args + ["--out", b])
        assert (a / "schedule.csv").read_bytes() == (b / "schedule.csv").read_bytes()


# The instance family is built, and its rank and alpha checked, before the
# output directory exists.
@pytest.mark.parametrize("args", [
    ["gen", "--n", 20, "--r", 30, "--alpha", "0.1"],
    ["train", "--n", 20, "--r", 30],
    ["train", "--n", 20, "--r", 2, "--alpha", "1.5"],
], ids=["gen_rank", "train_rank", "train_alpha"])
def test_bad_instance_family_usage_error_before_output(tmp_path, args):
    out = tmp_path / "o"
    assert run(args + ["--out", out]) == 2
    assert not out.exists()


class TestBenchCommand:
    def test_convergence_kind(self, tmp_path):
        out = tmp_path / "b"
        code = run(["bench", "--kind", "convergence", "--out", out,
                    "--seed", 2, "--config", self._cfg(tmp_path, """
n = 50
r = 2
alpha = 0.1
stop_mode = fixed_iters
max_iters = 5
""")])
        assert code == 0
        lines = read_lines(out / "report.csv")
        assert lines[0] == "solver,seed,alpha,n,r,iters,final_rel_err,wall_ms,success"
        assert (out / "trace_lrpca-oracle.csv").exists()
        assert (out / "trace_scaledgd.csv").exists()

    def test_convergence_kind_with_learned_schedule(self, tmp_path):
        sched = tmp_path / "sched.csv"
        write_schedule(
            ParamSchedule(zetas=tuple(0.03 * 0.6 ** k for k in range(4)),
                          etas=(0.65,) * 3, beta=1.0, phi=0.6), sched)
        out = tmp_path / "b"
        assert run(["bench", "--kind", "convergence", "--schedule", sched,
                    "--n", 40, "--r", 2, "--stop-mode", "fixed_iters",
                    "--max-iters", 5, "--seed", 2, "--out", out]) == 0
        rows = [line.split(",") for line in read_lines(out / "report.csv")[1:]]
        assert [row[0] for row in rows] == ["lrpca", "scaledgd"]
        assert len(read_lines(out / "trace_lrpca.csv")) == 1 + 1 + 5
        assert not (out / "trace_lrpca-oracle.csv").exists()

    @pytest.mark.parametrize("kind", ["nope", "runtime"])
    def test_unknown_kind(self, tmp_path, kind):
        # argparse rejects the choice itself, exiting with the usage code.
        with pytest.raises(SystemExit) as info:
            run(["bench", "--kind", kind, "--out", tmp_path / "x"])
        assert info.value.code == 2
        assert not (tmp_path / "x").exists()

    # No kind reads n_list, r_list or iters, which an older convergence
    # manifest and runtime config carry: each exits 2 naming all three.
    @pytest.mark.parametrize("text", [
        "command = bench\nseed = 0\nkind = convergence\nschedule = \n"
        "eta = 0.5\nn = 30\nr = 2\nalpha = 0.1\nstop_mode = residual_rel\n"
        "tol = 0.0001\nmax_iters = 3\nscaledgd_alpha_tilde = 0.2\n"
        "scaledgd_eta = 0.5\nalphas = \ntrials = \nsuccess_tol = 0.001\n"
        "n_list = \nr_list = \niters = 10\nbase_n = \nbase_r = \ntargets = \n",
        "kind = runtime\nn_list = 40,60\nr_list = 2\niters = 10\n",
    ], ids=["manifest", "runtime_config"])
    def test_old_runtime_settings_rejected(self, tmp_path, capsys, text):
        out = tmp_path / "old"
        capsys.readouterr()
        assert run(["bench", "--config", self._cfg(tmp_path, text),
                    "--out", out]) == 2
        err = capsys.readouterr().err
        assert "unknown config keys" in err
        assert "iters, n_list, r_list" in err
        assert not out.exists()

    # gen's rows are --n and generalization's base size is --n/--r: a
    # config or an older manifest that sets n1, base_n or base_r exits 2
    # and names the key.
    @pytest.mark.parametrize("command, key", [
        ("gen", "n1"), ("bench", "base_n"), ("bench", "base_r")])
    def test_removed_size_keys_rejected(self, tmp_path, capsys, command, key):
        out = tmp_path / "old"
        cfg = self._cfg(tmp_path, f"{key} = 20\n")
        capsys.readouterr()
        assert run([command, "--config", cfg, "--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: unknown config keys in {cfg}: {key}"]
        assert not out.exists()

    def test_generalization_kind(self, tmp_path):
        sched = tmp_path / "sched.csv"
        write_schedule(
            ParamSchedule(zetas=tuple(0.03 * 0.6 ** k for k in range(4)),
                          etas=(0.65,) * 3, beta=1.0, phi=0.6), sched)
        out = tmp_path / "gen"
        code = run(["bench", "--kind", "generalization", "--seed", 2,
                    "--schedule", sched, "--out", out,
                    "--config", self._cfg(tmp_path, """
n = 50
r = 2
targets = 100:2,50:4
tol = 1e-3
trials = 2
max_iters = 80
""")])
        assert code == 0
        lines = read_lines(out / "report.csv")
        assert len(lines) == 1 + 2 * 2  # header + trials x targets

    def test_recoverability_deterministic_modulo_wall(self, tmp_path):
        cfg = self._cfg(tmp_path, """
alphas = 0.0,0.1
trials = 2
n = 30
r = 2
max_iters = 8
""")
        a, b = tmp_path / "ra", tmp_path / "rb"
        run(["bench", "--kind", "recoverability", "--seed", 4, "--out", a,
             "--config", cfg])
        run(["bench", "--kind", "recoverability", "--seed", 4, "--out", b,
             "--config", cfg])
        assert strip_wall(a / "report.csv") == strip_wall(b / "report.csv")

    @staticmethod
    def _cfg(tmp_path, text):
        path = tmp_path / f"cfg{abs(hash(text)) % 1000}.txt"
        path.write_text(text)
        return path


class TestBgsubCommand:
    def test_static_scene(self, tmp_path):
        frames = tmp_path / "frames"
        frames.mkdir()
        frame = np.linspace(0.3, 0.7, 16).reshape(4, 4)
        for i in range(6):
            write_pgm(frame, frames / f"f{i:03d}.pgm")
        sched = tmp_path / "sched.csv"
        write_schedule(ParamSchedule(zetas=(1.0, 0.5, 0.25), etas=(0.7, 0.7),
                                     beta=1.0, phi=0.5), sched)
        out = tmp_path / "bg"
        code = run(["bgsub", "--frames", frames, "--r", 1,
                    "--schedule", sched, "--out", out])
        assert code == 0
        fg0 = (out / "fg_00000.pgm").read_bytes()
        # Foreground of a static scene quantizes to all-zero pixels.
        assert set(fg0[fg0.index(b"255\n") + 4:]) == {0}
        assert (out / "bg_00005.pgm").exists()
        assert (out / "trace.csv").exists()

    @pytest.mark.parametrize("max_iters, reason", [(100, "converged"),
                                                   (1, "max_iters")])
    def test_summary_line_says_how_the_solve_ended(self, tmp_path, capsys,
                                                   max_iters, reason):
        seq, _ = moving_blob_scene(height=8, width=10, n_frames=6)
        frames = tmp_path / "frames"
        frames.mkdir()
        for i, frame in enumerate(seq.frames):
            write_pgm(frame, frames / f"f{i:02d}.pgm")
        sched = tmp_path / "sched.csv"
        write_schedule(ParamSchedule(zetas=(0.5, 0.3, 0.2), etas=(0.7, 0.7),
                                     beta=1.0, phi=0.6), sched)
        out = tmp_path / "bg"
        assert run(["bgsub", "--frames", frames, "--r", 1, "--schedule", sched,
                    "--max-iters", max_iters, "--out", out]) == 0
        iters = len(read_lines(out / "trace.csv")) - 2
        assert capsys.readouterr().out == (
            f"bgsub: processed 6 frames in {iters} iterations ({reason}); "
            f"outputs in {out}\n")

    def test_empty_directory_usage_error(self, tmp_path):
        frames = tmp_path / "nothing"
        frames.mkdir()
        assert run(["bgsub", "--frames", frames, "--r", 1,
                    "--schedule", tmp_path / "none.csv",
                    "--out", tmp_path / "o"]) == 2

    def test_negative_frame_size_is_format_error(self, tmp_path, capsys):
        # A size below 1 is a bad file (exit 1), not a traceback.
        frames = tmp_path / "frames"
        frames.mkdir()
        (frames / "f.pgm").write_bytes(b"P5\n-2 -2\n255\n" + bytes(4))
        sched = tmp_path / "sched.csv"
        write_schedule(FixedSchedule(0.1, 0.5), sched)
        out = tmp_path / "o"
        assert run(["bgsub", "--frames", frames, "--r", 1,
                    "--schedule", sched, "--out", out]) == 1
        assert "unsupported frame size -2x-2" in capsys.readouterr().err
        assert not out.exists()

    def test_moving_blob_end_to_end(self, tmp_path):
        seq, masks = moving_blob_scene(height=16, width=20, n_frames=20)
        frames = tmp_path / "frames"
        frames.mkdir()
        for i, f in enumerate(seq.frames):
            write_pgm(f, frames / f"f{i:04d}.pgm")
        sched = tmp_path / "sched.csv"
        write_schedule(
            ParamSchedule(zetas=tuple(0.5 * 0.65 ** k for k in range(6)),
                          etas=(0.7,) * 5, beta=1.0, phi=0.65), sched)
        out = tmp_path / "bg"
        code = run(["bgsub", "--frames", frames, "--r", 2, "--schedule", sched,
                    "--out", out])
        assert code == 0
        assert len(list(out.glob("fg_*.pgm"))) == 20


# One small run per subcommand (and bench kind): its arguments and the text
# of a config file read with them.  Bench settings go through the config,
# the way the bench docs configure them.
MANIFEST_RUNS = {
    "gen": (["gen", "--n", 20, "--n2", 15, "--r", 2, "--alpha", "0.1",
             "--seed", 3], ""),
    "train": (["train", "--n", 20, "--r", 2, "--seed", 2],
              "K = 1\nK_bar = 2\nsgd_steps_per_stage = 1\ngrid_min = 0.5\n"
              "grid_max = 1.0\ngrid_step = 0.5\ngrid_instances = 1\n"),
    "solve": (["solve", "--y", "{inst}/Y.lrpm", "--r", 2, "--oracle",
               "--truth", "{inst}/X_star.lrpm", "--max-iters", 6], ""),
    "solve-fixed": (["solve", "--y", "{inst}/Y.lrpm", "--r", 2,
                     "--fixed", "0.05", "0.5", "--tol", "1e-3"], ""),
    "bgsub": (["bgsub", "--frames", "{frames}", "--r", 1,
               "--schedule", "{sched}", "--max-iters", 5], ""),
    "bench-convergence": (["bench", "--kind", "convergence", "--seed", 2],
                          "n = 30\nr = 2\nstop_mode = fixed_iters\n"
                          "max_iters = 4\n"),
    "bench-recoverability": (["bench", "--kind", "recoverability", "--seed", 4],
                             "alphas = 0.0,0.1\ntrials = 1\nn = 20\nr = 2\n"
                             "max_iters = 4\n"),
    "bench-generalization": (["bench", "--kind", "generalization",
                              "--schedule", "{sched}", "--seed", 2],
                             "n = 20\nr = 1\ntargets = 30:1,20:2\n"
                             "tol = 1e-2\ntrials = 1\nmax_iters = 20\n"),
}


@pytest.mark.parametrize("name", sorted(MANIFEST_RUNS))
def test_rerun_from_own_manifest(tmp_path, name):
    """``--config manifest.txt`` reproduces every output of the run that
    wrote it (wall-clock columns aside) and writes the same manifest."""
    inst, frames, sched = tmp_path / "inst", tmp_path / "frames", tmp_path / "s.csv"
    run(["gen", "--n", 20, "--r", 2, "--alpha", "0.1", "--seed", 3, "--out", inst])
    frames.mkdir()
    for i, frame in enumerate(moving_blob_scene(height=8, width=10,
                                                n_frames=6)[0].frames):
        write_pgm(frame, frames / f"f{i:02d}.pgm")
    write_schedule(ParamSchedule(zetas=(0.5, 0.3, 0.2), etas=(0.7, 0.7),
                                 beta=1.0, phi=0.6), sched)
    args, config = MANIFEST_RUNS[name]
    args = [str(a).format(inst=inst, frames=frames, sched=sched) for a in args]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(config)
    first, second = tmp_path / "first", tmp_path / "second"
    assert run(args + ["--config", cfg, "--out", first]) == 0
    assert run([args[0], "--config", first / "manifest.txt",
                "--out", second]) == 0

    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for fname in names:
        a, b = first / fname, second / fname
        if fname == "manifest.txt":
            drop_out = [ln for ln in read_lines(a) if not ln.startswith("out =")]
            assert drop_out == [ln for ln in read_lines(b)
                                if not ln.startswith("out =")]
        elif fname.endswith(".csv"):
            assert strip_wall(a) == strip_wall(b), fname
        else:
            assert a.read_bytes() == b.read_bytes(), fname


# Settings or inputs that cannot be run: each exits 2 with one error line
# and creates no --out, whichever step finds the fault.
BAD_SETTINGS = {
    "solve_max_iters": ["solve", "--y", "{y}", "--r", 2, "--fixed", "0.1",
                        "0.5", "--max-iters", -1],
    "solve_tol": ["solve", "--y", "{y}", "--r", 2, "--fixed", "0.1", "0.5",
                  "--stop-mode", "fixed_iters", "--tol", -1],
    "solve_rank": ["solve", "--y", "{y}", "--r", 30, "--fixed", "0.1", "0.5"],
    # Y is 20 x 20, which gets the exact init SVD, and 60 x 60 the sketch.
    "solve_seed": ["solve", "--y", "{y}", "--r", 2, "--fixed", "0.1", "0.5",
                   "--seed", -1],
    "solve_seed_sketch": ["solve", "--y", "{y60}", "--r", 2, "--fixed", "0.1",
                          "0.5", "--seed", -1],
    # No residual passes a NaN tolerance, so the solve could never converge.
    "solve_tol_nan": ["solve", "--y", "{y}", "--r", 2, "--fixed", "0.1", "0.5",
                      "--tol", "nan"],
    "gen_seed": ["gen", "--n", 10, "--r", 2, "--alpha", "0.1", "--seed", -1],
    "train_seed": ["train", "--n", 20, "--r", 2, "--K", 1, "--K-bar", 2,
                   "--seed", -1],
    "bench_convergence_seed": ["bench", "--kind", "convergence", "--n", 30,
                               "--r", 2, "--seed", -1],
    "bench_recoverability_seed": ["bench", "--kind", "recoverability",
                                  "--alphas", "0.1", "--trials", 1, "--n", 30,
                                  "--r", 2, "--seed", -1],
    # A step against the gradient, or none, would exit 0 with a schedule.
    "train_learning_rate": ["train", "--n", 20, "--r", 2, "--K", 1,
                            "--K-bar", 2, "--learning-rate", -5],
    "train_learning_rate_nan": ["train", "--n", 20, "--r", 2, "--K", 1,
                                "--K-bar", 2, "--learning-rate", "nan"],
    # A ScaledGD step of 0 would run on without a fault to report.
    "bench_scaledgd_eta": ["bench", "--kind", "convergence", "--n", 30,
                           "--r", 2, "--scaledgd-eta", 0],
    "bench_convergence_max_iters": ["bench", "--kind", "convergence", "--n", 30,
                                    "--r", 2, "--max-iters", -3],
    "bench_recoverability_trials": ["bench", "--kind", "recoverability",
                                    "--alphas", "0.1", "--trials", 0],
    # Each ran every ScaledGD solve as a miss, or every solve as one, and
    # exited 0.
    "bench_recoverability_scaledgd_eta": [
        "bench", "--kind", "recoverability", "--alphas", "0.1", "--trials", 1,
        "--n", 30, "--r", 2, "--scaledgd-eta", -1],
    "bench_recoverability_scaledgd_eta_nan": [
        "bench", "--kind", "recoverability", "--alphas", "0.1", "--trials", 1,
        "--n", 30, "--r", 2, "--scaledgd-eta", "nan"],
    "bench_recoverability_success_tol": [
        "bench", "--kind", "recoverability", "--alphas", "0.1", "--trials", 1,
        "--n", 30, "--r", 2, "--success-tol", "nan"],
    "bench_generalization_missing": ["bench", "--kind", "generalization",
                                     "--schedule", "{missing}", "--n", 40,
                                     "--r", 2, "--targets", "40:2"],
    "bench_generalization_base_n": ["bench", "--kind", "generalization",
                                    "--schedule", "{sched}", "--n", 0,
                                    "--r", 2, "--targets", "40:2"],
    "bench_generalization_trials": ["bench", "--kind", "generalization",
                                    "--schedule", "{sched}", "--n", 40,
                                    "--r", 2, "--targets", "40:2",
                                    "--trials", 0],
    "bgsub_max_iters": ["bgsub", "--frames", "{frames}", "--r", 1,
                        "--schedule", "{sched}", "--max-iters", -1],
    "bgsub_rank": ["bgsub", "--frames", "{frames}", "--r", 9,
                   "--schedule", "{sched}"],
    "bgsub_seed": ["bgsub", "--frames", "{frames}", "--r", 1,
                   "--schedule", "{sched}", "--seed", -1],
    "train_grid_instances": ["train", "--n", 30, "--r", 2, "--K", 1,
                             "--K-bar", 2, "--sgd-steps-per-stage", 1,
                             "--grid-instances", 0],
    "train_sgd_steps": ["train", "--n", 30, "--r", 2, "--K", 1, "--K-bar", 2,
                        "--sgd-steps-per-stage", -1],
    # A grid with about 9e8 values per axis, whose pairs the tail search
    # would evaluate.
    "train_grid_step": ["train", "--n", 20, "--r", 2, "--K", 1, "--K-bar", 2,
                        "--grid-step", "1e-9"],
    "config_missing": ["gen", "--config", "{missing}", "--n", 10, "--r", 2,
                       "--alpha", "0.1"],
    "gen_size_missing": ["gen", "--n2", 10, "--r", 2, "--alpha", "0.1"],
    "solve_y_missing": ["solve", "--r", 2, "--fixed", "0.1", "0.5"],
    "bgsub_frames_missing": ["bgsub", "--frames", "{missing}", "--r", 1,
                             "--schedule", "{sched}"],
}


@pytest.mark.parametrize("name", sorted(BAD_SETTINGS))
def test_bad_setting_exits_2_before_output(tmp_path, capsys, name):
    y, frames, sched = tmp_path / "Y.lrpm", tmp_path / "frames", tmp_path / "s.csv"
    y60 = tmp_path / "Y60.lrpm"
    write_matrix(gen_instance(20, 20, 2, 0.1, 1).Y, y)
    write_matrix(gen_instance(60, 60, 2, 0.1, 1).Y, y60)
    frames.mkdir()
    for i, frame in enumerate(moving_blob_scene(height=8, width=10,
                                                n_frames=8)[0].frames):
        write_pgm(frame, frames / f"f{i:02d}.pgm")
    write_schedule(FixedSchedule(0.1, 0.5), sched)
    args = [str(a).format(y=y, y60=y60, frames=frames, sched=sched,
                          missing=tmp_path / "missing.csv")
            for a in BAD_SETTINGS[name]]
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(args + ["--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: "), err
    assert not out.exists()


# A byte that is not UTF-8 printed a UnicodeDecodeError traceback (exit 1).
@pytest.mark.parametrize("text, message", [
    (b"n 20\n", "expected 'key = value'"),
    (b"oracle = yes\n", "oracle must be True or False, got 'yes'"),
    (b"n = 20\n# caf\xe9\n", "config file is not UTF-8 text"),
], ids=["no_equals", "switch_value", "not_utf8"])
def test_bad_config_line_exits_2_before_output(tmp_path, capsys, text, message):
    cfg = tmp_path / "c.txt"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["solve", "--config", cfg, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and message in err[0], err
    assert not out.exists()


# An --out naming a file, or a path below one, failed in os.makedirs with
# a traceback (exit 1), after the whole run.
@pytest.mark.parametrize("args", [
    ["gen", "--n", 10, "--r", 2, "--alpha", "0.1"],
    ["train", "--n", 20, "--r", 2, "--K", 1, "--K-bar", 2,
     "--sgd-steps-per-stage", 1, "--grid-instances", 1],
], ids=["gen", "train"])
def test_out_naming_a_file_exits_2_and_keeps_it(tmp_path, capsys, args):
    afile = tmp_path / "afile"
    afile.write_bytes(b"keep")
    for out in (afile, afile / "sub", afile / "sub" / "dir"):
        capsys.readouterr()
        assert run(args + ["--out", out]) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --out {out}: {afile} exists and is not a directory"]
        assert afile.read_bytes() == b"keep"
        assert list(tmp_path.iterdir()) == [afile]


def test_config_key_set_twice_exits_2_before_output(tmp_path, capsys):
    # The second value used to win silently.
    cfg = tmp_path / "c.txt"
    cfg.write_text("n = 20\nalpha = 0.1\n# comment\nalpha = 0.3\n")
    out = tmp_path / "out"
    capsys.readouterr()
    assert run(["gen", "--config", cfg, "--r", 2, "--out", out]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: {cfg}:4: alpha is set again (first on line 2)"]
    assert not out.exists()


@pytest.mark.parametrize("targets", ["40:2,60", "40:2:1"])
def test_malformed_target_pair_usage_error(tmp_path, capsys, targets):
    # argparse rejects the value itself, exiting with the usage code.
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as info:
        run(["bench", "--kind", "generalization", "--targets", targets,
             "--out", out])
    assert info.value.code == 2
    assert "--targets: invalid pair_list value" in capsys.readouterr().err
    assert not out.exists()


def test_generalization_rows_report_each_trial(tmp_path):
    # A schedule that cannot reach tol 1e-8 in 5 iterations: each trial
    # stops at max_iters, so it is no success, with its error and time.
    sched = tmp_path / "fixed.csv"
    write_schedule(FixedSchedule(0.1, 0.5), sched)
    out = tmp_path / "gen"
    assert run(["bench", "--kind", "generalization", "--schedule", sched,
                "--n", 40, "--r", 2, "--targets", "40:2",
                "--trials", 2, "--tol", "1e-8", "--max-iters", 5,
                "--seed", 3, "--out", out]) == 0
    lines = read_lines(out / "report.csv")
    head = lines[0].split(",")
    rows = [dict(zip(head, ln.split(","))) for ln in lines[1:]]
    assert [row["seed"] for row in rows] == ["3", "4"]
    for row in rows:
        assert (row["iters"], row["success"]) == ("5", "0")
        assert 0 < float(row["final_rel_err"]) < float("inf")
        assert float(row["wall_ms"]) > 0


def test_parser_defaults_come_from_the_library():
    _, commands = build_parser()

    def defaults(command, *keys):
        return tuple(commands[command].get_default(key) for key in keys)

    def stop_settings(rule):
        return rule.mode, rule.tolerance, rule.max_iters

    stop = ("stop_mode", "tol", "max_iters")
    bgsub = inspect.signature(background_subtract).parameters["stop"].default
    assert defaults("solve", *stop) == stop_settings(StopRule())
    # bench fills max_iters by kind.
    assert defaults("bench", *stop) == stop_settings(StopRule())[:2] + (None,)
    assert defaults("bgsub", *stop) == stop_settings(bgsub)
    assert defaults("solve", "eta") == defaults("bench", "eta") == \
        (OracleSchedule().eta,)
    assert defaults("bench", "scaledgd_eta") == (
        param_default(bench_mod.scaledgd_spec, "eta"),)


def param_default(func, name):
    return inspect.signature(func).parameters[name].default


# Per bench kind: settings, and the library defaults that fill what they
# leave unset.
BENCH_FILLS = {
    "convergence": (["--n", 20, "--r", 2],
                    {"max_iters": StopRule().max_iters}),
    "recoverability": (
        ["--alphas", "0.1", "--trials", 1, "--n", 20, "--r", 2],
        {"max_iters": param_default(bench_mod.recoverability_sweep,
                                    "max_iters")}),
    "generalization": (
        ["--schedule", "{sched}", "--n", 20, "--r", 2, "--targets", "20:2",
         "--tol", "1e-2"],
        {key: param_default(bench_mod.generalization_bench, key)
         for key in ("max_iters", "trials")}),
}


@pytest.mark.parametrize("kind", sorted(BENCH_FILLS))
def test_bench_fills_come_from_the_library(tmp_path, kind):
    # The manifest records the value each unset setting ran with.
    sched = tmp_path / "s.csv"
    write_schedule(FixedSchedule(0.1, 0.5), sched)
    extra, expected = BENCH_FILLS[kind]
    out = tmp_path / kind
    assert run(["bench", "--kind", kind, "--out", out]
               + [str(a).format(sched=sched) for a in extra]) == 0
    manifest = parse_config(out / "manifest.txt")
    assert {key: manifest[key] for key in expected} == \
        {key: str(value) for key, value in expected.items()}


def test_readme_names_only_declared_flags():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    named = set(re.findall(r"(?<![\w-])--[A-Za-z][\w-]*", section))
    _, commands = build_parser()
    declared = {flag for p in commands.values() for action in p._actions
                for flag in action.option_strings}
    assert named and not named - declared
