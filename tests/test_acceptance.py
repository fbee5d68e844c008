"""Acceptance suite.

Each test implements one release criterion at its stated tolerance and
prints a single PASS line with the measured numbers (run pytest with -s to
see them; the pytest verdict itself mirrors the criterion).
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import lrpca
from lrpca import (StopRule, banded_sparse_matrix, background_subtract,
                   gen_instance, lrpca_step, matrix_norm, read_pgm_sequence,
                   rescale_schedule, solve, solve_scaledgd, spectral_init,
                   sparsify_top_fraction, soft_threshold, truncated_svd,
                   write_pgm)
from lrpca.bench import (lrpca_spec, recoverability_sweep,
                         runtime_scaling_bench, scaledgd_spec)
from conftest import make_scene_instance
from oracles import brute_force_sparsify, jacobi_rank_r


# One verdict line per criterion; collected here and echoed in the terminal
# summary by the conftest hook (so they survive output capture), and printed
# directly for -s runs.
REPORT_LINES = []


def report(criterion, detail):
    line = f"ACCEPTANCE {criterion}: PASS — {detail}"
    REPORT_LINES.append(line)
    print(line)


def test_criterion_01_sparsify_matches_brute_force_oracle():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    checked = 0
    while checked < 500:
        M = rng.standard_normal((8, 8))
        if len(np.unique(np.abs(M))) != 64:
            continue
        alpha = rng.choice([0.125, 0.25, 0.375, 0.5, 0.625, 0.75])
        assert np.array_equal(sparsify_top_fraction(M, alpha),
                              brute_force_sparsify(M, alpha))
        checked += 1
    wall = time.perf_counter() - t0
    assert wall < 1.0
    report("C1", f"500 exact matches vs full-sort oracle in {wall:.2f}s")


def test_criterion_02_threshold_support_containment_suite():
    rng = np.random.default_rng(2002)
    t0 = time.perf_counter()
    for _ in range(1000):
        n1, n2 = rng.integers(4, 16, size=2)
        X_star = rng.standard_normal((n1, n2))
        X_k = X_star + rng.uniform(0.05, 0.6) * rng.standard_normal((n1, n2))
        S_star = np.zeros((n1, n2))
        mask = rng.random((n1, n2)) < rng.uniform(0.05, 0.3)
        S_star[mask] = 4.0 * rng.standard_normal(int(mask.sum()))
        zeta = np.abs(X_star - X_k).max()
        S = soft_threshold(X_star + S_star - X_k, zeta)
        assert ((S != 0) & (S_star == 0)).sum() == 0
        assert np.abs(S - S_star).max() <= 2 * zeta + 1e-12
    wall = time.perf_counter() - t0
    assert wall < 10.0
    report("C2", f"1000 trials: containment exact, inf-bound <= 2*zeta, {wall:.1f}s")


def test_criterion_03_sparse_matrix_norm_bounds():
    n = 200
    count = 0
    for alpha in (0.05, 0.1, 0.2):
        for seed in range(67):
            S = banded_sparse_matrix(n, alpha, seed=seed)
            inf = matrix_norm(S, "inf")
            an = alpha * n
            assert matrix_norm(S, "spectral") <= an * inf * (1 + 1e-9)
            assert matrix_norm(S, "two_inf") <= np.sqrt(an) * inf * (1 + 1e-12)
            assert matrix_norm(S, "one_inf") <= an * inf * (1 + 1e-12)
            count += 1
    report("C3", f"{count} sparse matrices, all three norm bounds hold")


def test_criterion_04_truncated_svd_vs_jacobi_oracle():
    rng = np.random.default_rng(4004)
    worst = 0.0
    for trial in range(50):
        M = rng.standard_normal((30, 30))
        for r in (1, 3, 5):
            f = truncated_svd(M, r)
            ref = jacobi_rank_r(M, r)
            rel = np.linalg.norm(f.product() - ref) / np.linalg.norm(ref)
            assert rel <= 1e-9
            worst = max(worst, rel)
    report("C4", f"50 matrices x r in {{1,3,5}}: worst rel diff {worst:.2e} <= 1e-9")


def test_criterion_05_oracle_mode_convergence():
    t0 = time.perf_counter()
    inst = gen_instance(500, 500, 5, 0.1, seed=1)
    state = spectral_init(inst.Y, 5, np.abs(inst.X_star).max(), seed=1)
    nx = np.linalg.norm(inst.X_star)
    true_support = inst.S_star != 0
    errs = [np.linalg.norm(state.low_rank() - inst.X_star) / nx]
    hit = None
    for k in range(1, 61):
        zeta = np.abs(inst.X_star - state.low_rank()).max()
        state = lrpca_step(state, inst.Y, zeta, 0.5)
        assert not ((state.S != 0) & ~true_support).any(), \
            f"false-positive outlier at iteration {k}"
        errs.append(np.linalg.norm(state.low_rank() - inst.X_star) / nx)
        if errs[-1] < 1e-6:
            hit = k
            break
    assert hit is not None, f"error after 60 iterations: {errs[-1]:.2e}"
    ratios = [errs[k] / errs[k - 1] for k in range(4, hit + 1)]
    assert max(ratios) <= 0.9
    wall = time.perf_counter() - t0
    assert wall < 30.0
    report("C5", f"rel err < 1e-6 at iteration {hit} (<= 60), max contraction "
                 f"ratio {max(ratios):.3f} <= 0.9, support clean, {wall:.1f}s")


def test_criterion_06_training_pipeline_beats_baseline(trained_base):
    theta = trained_base["theta"]
    assert trained_base["wall_s"] < 1800, "training exceeded 30 minutes"
    stop = StopRule("residual_rel", 1e-4, 200)
    iters_lrpca, iters_sgd = [], []
    for i in range(20):
        inst = gen_instance(500, 500, 5, 0.1, 9000 + i)
        _, _, tr = solve(inst.Y, 5, theta, stop=stop, seed=inst.seed)
        assert tr.residuals[-1] < 1e-4, "trained solver missed the tolerance"
        iters_lrpca.append(tr.iterations)
        _, _, ts = solve_scaledgd(inst.Y, 5, 0.2, 0.5, stop=stop, seed=inst.seed)
        assert ts.residuals[-1] < 1e-4, "baseline missed the tolerance"
        iters_sgd.append(ts.iterations)
    mean_l, mean_s = np.mean(iters_lrpca), np.mean(iters_sgd)
    assert mean_l <= 0.8 * mean_s
    assert max(iters_lrpca) <= 15  # within K_bar iterations on every instance
    report("C6", f"trained {mean_l:.1f} iters vs baseline {mean_s:.1f} "
                 f"(ratio {mean_l / mean_s:.2f} <= 0.8); "
                 f"training took {trained_base['wall_s']:.0f}s < 1800s")


def test_criterion_07_recoverability_trend(trained_high_alpha):
    theta = trained_high_alpha["theta"]
    lrpca_report = recoverability_sweep(
        [0.45], 10, lambda a: [lrpca_spec(theta)], success_tol=1e-3,
        n=500, r=5, base_seed=900, max_iters=150)
    lrpca_successes = lrpca_report.success_count()
    sgd_report = recoverability_sweep(
        [0.5], 10, lambda a: [scaledgd_spec(min(2 * a, 1.0), 0.5)],
        success_tol=1e-3, n=500, r=5, base_seed=900, max_iters=150)
    sgd_successes = sgd_report.success_count()
    assert lrpca_successes >= 8
    assert sgd_successes <= 2
    report("C7", f"trained solver {lrpca_successes}/10 at alpha=0.45 (>= 8); "
                 f"baseline {sgd_successes}/10 at alpha=0.5 (<= 2)")


def test_criterion_08_runtime_scaling():
    t0 = time.perf_counter()
    rows_2000 = runtime_scaling_bench([2000], [5, 10, 20], iters=10, base_seed=50)
    times = {(row["n"], row["r"]): row["median_iter_ms"] for row in rows_2000}
    r_ratio = times[(2000, 10)] / times[(2000, 5)]
    r_ratio_20 = times[(2000, 20)] / times[(2000, 5)]
    # The host's speed drifts in phases of seconds to minutes, so the
    # n-doubling ratio is the median over pairs of n = 2000 and n = 4000
    # solves timed back to back, alternating which size runs first.
    n_ratios = []
    for rep in range(5):
        sizes = (2000, 4000) if rep % 2 == 0 else (4000, 2000)
        pair = {n: runtime_scaling_bench([n], [5], iters=10,
                                         base_seed=50)[0]["median_iter_ms"]
                for n in sizes}
        n_ratios.append(pair[4000] / pair[2000])
    n_ratio = float(np.median(n_ratios))
    wall = time.perf_counter() - t0
    assert r_ratio <= 2.5
    assert r_ratio_20 <= 5.0  # at-most-linear growth in the rank
    assert n_ratio <= 5.5
    assert wall < 120.0
    report("C8", f"r10/r5 = {r_ratio:.2f} <= 2.5, r20/r5 = {r_ratio_20:.2f} "
                 f"<= 5, n-doubling {n_ratio:.2f} (median of 5 pairs) <= 5.5, "
                 f"{wall:.0f}s")


def test_criterion_09_generalization(trained_base, trained_target_large_n,
                                     trained_target_high_rank):
    base = trained_base["theta"]

    def mean_iters(theta, n, r, seeds):
        counts = []
        for s in seeds:
            inst = gen_instance(n, n, r, 0.1, s)
            _, _, tr = solve(inst.Y, r, theta,
                             stop=StopRule("residual_rel", 1e-4, 200),
                             seed=inst.seed)
            assert tr.residuals[-1] < 1e-4
            counts.append(tr.iterations)
        return float(np.mean(counts))

    seeds_n = [12000 + i for i in range(5)]
    rescaled_n = mean_iters(rescale_schedule(base, 500, 5, 1500, 5),
                            1500, 5, seeds_n)
    target_n = mean_iters(trained_target_large_n["theta"], 1500, 5, seeds_n)
    assert rescaled_n <= target_n + 2

    seeds_r = [13000 + i for i in range(5)]
    rescaled_r = mean_iters(rescale_schedule(base, 500, 5, 500, 15),
                            500, 15, seeds_r)
    target_r = mean_iters(trained_target_high_rank["theta"], 500, 15, seeds_r)
    assert rescaled_r <= target_r + 3
    report("C9", f"(1500,5): rescaled {rescaled_n:.1f} vs target {target_n:.1f} "
                 f"(slack +2); (500,15): rescaled {rescaled_r:.1f} vs target "
                 f"{target_r:.1f} (slack +3)")


def _detection(fg, masks):
    """Precision and recall of the foreground above 0.1 against the masks."""
    tp = fp = fn = 0
    for frame, mask in zip(fg.frames, masks):
        detected = frame > 0.1
        tp += int((detected & mask).sum())
        fp += int((detected & ~mask).sum())
        fn += int((~detected & mask).sum())
    return tp / max(tp + fp, 1), tp / max(tp + fn, 1)


def test_criterion_10_background_subtraction(trained_video_schedule):
    theta = trained_video_schedule["theta"]
    # Held-out scene: a phase/amplitude combination not in the training set.
    inst, seq, masks = make_scene_instance(phase=(4, 8), amplitude=0.78,
                                           seed=99)
    stop = StopRule("iterate_change", 1e-3, 100)
    bg, fg, trace = background_subtract(seq, 2, theta, stop=stop)
    precision, recall = _detection(fg, masks)
    assert precision >= 0.9
    assert recall >= 0.9
    assert trace.residuals[-1] < 1e-3
    report("C10", f"precision {precision:.3f}, recall {recall:.3f} (>= 0.9), "
                  f"residual {trace.residuals[-1]:.1e} < 1e-3")


def test_criterion_10_background_subtraction_from_pgm(trained_video_schedule,
                                                      tmp_path):
    # C10's held-out scene as 8-bit PGM frames, read back: the float32 path
    # that lrpca bgsub takes, at C10's bounds.
    theta = trained_video_schedule["theta"]
    _, seq, masks = make_scene_instance(phase=(4, 8), amplitude=0.78, seed=99)
    for t, frame in enumerate(seq.frames):
        write_pgm(frame, tmp_path / f"{t:05d}.pgm")
    read = read_pgm_sequence(tmp_path)
    assert read.matrix.dtype == np.float32
    stop = StopRule("iterate_change", 1e-3, 100)
    bg, fg, trace = background_subtract(read, 2, theta, stop=stop)
    precision, recall = _detection(fg, masks)
    assert precision >= 0.9
    assert recall >= 0.9
    assert trace.residuals[-1] < 1e-3
    report("C10 (float32, from PGM)",
           f"precision {precision:.3f}, recall {recall:.3f} (>= 0.9), "
           f"residual {trace.residuals[-1]:.1e} < 1e-3")


def _run_cli(args, cwd):
    # The child must import the same lrpca as this process, whatever cwd is:
    # a relative PYTHONPATH (e.g. "src") would resolve against cwd instead.
    src_dir = str(Path(lrpca.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "lrpca.cli"] + [str(a) for a in args]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True)


def _cli_failure(res):
    return f"{' '.join(res.args)}\n{res.stderr}"


def _strip_wall(path):
    lines = path.read_text().splitlines()
    head = lines[0].split(",")
    keep = [i for i, c in enumerate(head) if not c.startswith("wall")]
    return ["|".join(ln.split(",")[i] for i in keep) for ln in lines]


def test_criterion_11_cli_determinism(tmp_path):
    # gen: byte-identical instance files.
    for d in ("g1", "g2"):
        res = _run_cli(["gen", "--n", 80, "--r", 3, "--alpha", "0.1",
                        "--seed", 5, "--out", tmp_path / d], tmp_path)
        assert res.returncode == 0, _cli_failure(res)
    for name in ("Y.lrpm", "X_star.lrpm", "S_star.lrpm"):
        assert (tmp_path / "g1" / name).read_bytes() == \
            (tmp_path / "g2" / name).read_bytes()

    # train: byte-identical schedule files (small configuration).
    train_args = ["train", "--n", 60, "--r", 2, "--alpha", "0.1", "--K", 2,
                  "--K-bar", 4, "--sgd-steps-per-stage", 3,
                  "--grid-min", "0.5", "--grid-max", "1.0", "--grid-step", "0.5",
                  "--grid-instances", 3, "--seed", 11]
    for d in ("t1", "t2"):
        res = _run_cli(train_args + ["--out", tmp_path / d], tmp_path)
        assert res.returncode == 0, _cli_failure(res)
    assert (tmp_path / "t1" / "schedule.csv").read_bytes() == \
        (tmp_path / "t2" / "schedule.csv").read_bytes()
    assert (tmp_path / "t1" / "training_log.csv").read_bytes() == \
        (tmp_path / "t2" / "training_log.csv").read_bytes()

    # solve: byte-identical matrices; trace identical modulo wall clock.
    for d in ("s1", "s2"):
        res = _run_cli(["solve", "--y", tmp_path / "g1" / "Y.lrpm", "--r", 3,
                        "--schedule", tmp_path / "t1" / "schedule.csv",
                        "--stop-mode", "fixed_iters", "--max-iters", 8,
                        "--seed", 5, "--out", tmp_path / d], tmp_path)
        assert res.returncode == 0, _cli_failure(res)
    for name in ("X_hat.lrpm", "S_hat.lrpm"):
        assert (tmp_path / "s1" / name).read_bytes() == \
            (tmp_path / "s2" / name).read_bytes()
    assert _strip_wall(tmp_path / "s1" / "trace.csv") == \
        _strip_wall(tmp_path / "s2" / "trace.csv")

    # bench: report identical modulo wall clock.
    cfg = tmp_path / "bench.cfg"
    cfg.write_text("alphas = 0.0,0.1\ntrials = 2\nn = 40\nr = 2\nmax_iters = 6\n")
    for d in ("b1", "b2"):
        res = _run_cli(["bench", "--kind", "recoverability", "--seed", 4,
                        "--config", cfg, "--out", tmp_path / d], tmp_path)
        assert res.returncode == 0, _cli_failure(res)
    assert _strip_wall(tmp_path / "b1" / "report.csv") == \
        _strip_wall(tmp_path / "b2" / "report.csv")
    report("C11", "gen/train/solve/bench reproduce byte-identical payloads "
                  "(wall-clock columns excluded)")
