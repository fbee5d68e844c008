"""The three benchmark workloads.

Each workload makes its inputs from the run seed in ``setup``, runs one
task per ``task`` call on the input numbered ``key`` and checks that task's
output in ``check``, which returns the measures the metrics are built from
or raises ``CheckFailed``.
Tasks reach the program through module attributes (``solver.solve``,
``video.background_subtract``, ...) so that a tracer that patches those
attributes sees every call.
"""

import os
from dataclasses import dataclass

import numpy as np

from lrpca import schedule, solver, synth, training, video
from lrpca.schedule import ParamSchedule
from lrpca.solver import FixedSchedule, StopRule

HERE = os.path.dirname(os.path.abspath(__file__))
SCHEDULES = os.path.join(HERE, "schedules")


class CheckFailed(Exception):
    """A task returned, but its output failed the benchmark's check."""


def derive(seed, *keys):
    """A 32-bit seed for one input, fixed by the run seed and ``keys``."""
    return int(np.random.SeedSequence([int(seed), *keys]).generate_state(1)[0])


def warm_up(n1, n2, r, seed):
    """Short solve of a synthetic instance of the task's shape, so that
    one-time costs (BLAS threads, first LAPACK calls) stay out of tasks."""
    inst = synth.gen_instance(n1, n2, r, 0.1, seed)
    theta = FixedSchedule(zeta=0.5 * float(np.abs(inst.Y).max()), eta=0.5)
    solver.solve(inst.Y, r, theta, stop=StopRule("fixed_iters", 0.0, 2),
                 seed=seed)


def rel_err(X, X_star):
    return float(np.linalg.norm(X - X_star) / np.linalg.norm(X_star))


def check_solve(X, S, trace, X_star, tol):
    """A synthetic solve must stop below ``tol``; rel_err above 1000 tol
    flags a gross error (the residual stop does not bound rel_err tightly)."""
    if not (np.isfinite(X).all() and np.isfinite(S).all()):
        raise CheckFailed("non-finite output")
    if not trace.residuals[-1] < tol:
        raise CheckFailed(f"residual {trace.residuals[-1]:.3g} >= {tol:g} "
                          f"after {trace.iterations} iterations")
    err = rel_err(X, X_star)
    if not err <= 1000 * tol:
        raise CheckFailed(f"rel_err {err:.3g} > {1000 * tol:g}")
    return err


@dataclass
class Synthetic:
    """One generated instance, without the sparse part the checks skip."""

    Y: np.ndarray
    X_star: np.ndarray
    seed: int


def synthetic(n, r, alpha, seed):
    inst = synth.gen_instance(n, n, r, alpha, seed)
    return Synthetic(inst.Y, inst.X_star, inst.seed)


class SolveN2000:
    """One ``solve`` from Y to (X, S), init included, on a square n=2000
    instance; a few seeded instances per run, input ``key`` uses instance
    ``key`` modulo their number."""

    name = "solve-n2000"
    n, r, alpha = 2000, 5, 0.1
    instances = 3
    stop = StopRule("residual_rel", 1e-6, 200)
    flop_shape = (n, n, r)
    # Self time as a share of task time, (low, high), stated before measuring.
    predicted_shares = {
        "solver.solve": (0.50, 1.00),  # outlier pass, factor products, stop
        "linalg.truncated_svd": (0.04, 0.15),  # the init SVD, about 9%
        "linalg.gram_solve": (0.00, 0.02),
        "operators.soft_threshold": (0.00, 0.03),
        "schedule.at": (0.00, 0.01),
        "synth.gen_instance": (0.00, 0.00),  # set-up only
    }

    def setup(self, seed, workdir):
        theta = schedule.read_schedule(os.path.join(SCHEDULES, "solve-n2000.csv"))
        insts = [synthetic(self.n, self.r, self.alpha, derive(seed, 1, j))
                 for j in range(self.instances)]
        warm_up(self.n, self.n, self.r, derive(seed, 0))
        return theta, insts

    def task(self, state, key):
        theta, insts = state
        inst = insts[key % len(insts)]
        return solver.solve(inst.Y, self.r, theta, stop=self.stop, seed=inst.seed)

    def check(self, state, key, out):
        _, insts = state
        X, S, trace = out
        err = check_solve(X, S, trace, insts[key % len(insts)].X_star,
                          self.stop.tolerance)
        return {"iters": [trace.iterations], "task_iters": trace.iterations,
                "rel_err": err}


class TrainN200:
    """One two-phase training run (``train_schedule``: layer-wise SGD, then
    the tail grid) on a fresh n=200 instance stream, with a budget cut from
    the acceptance recipe.  The check applies the learned schedule to
    held-out instances made in set-up."""

    name = "train-n200"
    n, r, alpha = 200, 5, 0.1
    # 2 SGD steps per stage and 4 grid instances keep a task near 3 s, so
    # a run holds enough tasks for a steady median.
    config = training.TrainConfig(K=10, K_bar=15, sgd_steps_per_stage=2,
                                  grid=(0.2, 1.0, 0.2))
    grid_instances = 4
    held_out = 4
    stop = StopRule("residual_rel", 1e-6, 200)
    flop_shape = (n, n, r)
    predicted_shares = {
        "linalg.gram_solve": (0.30, 0.60),  # r x r solves, about 45%
        "linalg.truncated_svd": (0.05, 0.25),  # zeta_0 probes redo the SVD
        "operators.soft_threshold": (0.00, 0.03),
        "schedule.at": (0.00, 0.02),
        "solver.solve": (0.00, 0.00),  # training steps bypass solve
    }

    def setup(self, seed, workdir):
        held = [synthetic(self.n, self.r, self.alpha, derive(seed, 2, j))
                for j in range(self.held_out)]
        warm_up(self.n, self.n, self.r, derive(seed, 0))
        return seed, held

    def task(self, state, key):
        seed, _ = state
        source = synth.InstanceSource(self.n, self.n, self.r, self.alpha,
                                      base_seed=derive(seed, 3, key))
        return training.train_schedule(source, self.config,
                                       grid_instances=self.grid_instances)

    def check(self, state, key, theta):
        _, held = state
        if not isinstance(theta, ParamSchedule) or theta.K != self.config.K:
            raise CheckFailed(f"not a K={self.config.K} schedule: {theta!r}")
        params = theta.zetas + theta.etas + (theta.beta, theta.phi)
        if not np.isfinite(params).all():
            raise CheckFailed("non-finite schedule parameter")
        iters, errs = [], []
        for inst in held:
            X, S, trace = solver.solve(inst.Y, self.r, theta, stop=self.stop,
                                       seed=inst.seed)
            errs.append(check_solve(X, S, trace, inst.X_star,
                                    self.stop.tolerance))
            iters.append(trace.iterations)
        return {"iters": iters, "task_iters": 0, "rel_err": max(errs)}


class BgsubQqvga:
    """The documented video pipeline: ``read_pgm_sequence`` ->
    ``background_subtract`` -> ``write_pgm`` of every background and
    foreground frame, on a seeded 60-frame 120x160 moving-blob clip that
    set-up wrote as 8-bit PGM.  Input ``key`` uses clip ``key`` modulo the
    number of clips.

    ``bgsub-qqvga`` runs at rank 2, as ``lrpca bgsub --r 2`` is documented;
    there the init SVD of many clips raises ``ConvergenceFailure``.
    ``bgsub-qqvga-r1`` runs the same clips at rank 1, the rank of a static
    background across frames.
    """

    height, width, frames, blob = 120, 160, 60, 5
    clips = 24
    stop = StopRule("iterate_change", 1e-3, 100)
    detect = 0.1  # foreground detection threshold, as in the C10 criterion
    min_f1 = 0.9
    max_bg_err = 0.05

    def __init__(self, name, r, predicted_shares):
        self.name = name
        self.r = r
        self.flop_shape = (self.height * self.width, self.frames, r)
        self.predicted_shares = predicted_shares

    def clip(self, seed, j):
        """Frames, blob masks and clean background of clip ``j``."""
        rng = np.random.default_rng(derive(seed, 4, j))
        phase = (int(rng.integers(0, self.height - self.blob)),
                 int(rng.integers(0, self.width - self.blob)))
        seq, masks = video.moving_blob_scene(
            self.height, self.width, self.frames, blob=self.blob,
            amplitude=float(rng.uniform(0.75, 0.9)), phase=phase)
        stack = np.stack(seq.frames)
        masks = np.stack(masks)
        # Each pixel's background is its value in the first frame the blob
        # leaves it uncovered; quantized as the PGM round trip does.
        first_clear = np.argmin(masks, axis=0)[None]
        clean = np.take_along_axis(stack, first_clear, axis=0)[0]
        clean = np.round(np.clip(clean, 0.0, 1.0) * 255.0) / 255.0
        return seq, masks, clean

    def setup(self, seed, workdir):
        theta = schedule.read_schedule(os.path.join(SCHEDULES, "bgsub-qqvga.csv"))
        clips = []
        for j in range(self.clips):
            seq, masks, clean = self.clip(seed, j)
            path = os.path.join(workdir, f"clip_{j:02d}")
            os.makedirs(path, exist_ok=True)
            for t, frame in enumerate(seq.frames):
                video.write_pgm(frame, os.path.join(path, f"{t:05d}.pgm"))
            clips.append((path, masks, clean))
        out_dir = os.path.join(workdir, "out")
        os.makedirs(out_dir, exist_ok=True)
        warm_up(self.height * self.width, self.frames, self.r, derive(seed, 0))
        return theta, clips, out_dir

    def task(self, state, key):
        theta, clips, out_dir = state
        path = clips[key % len(clips)][0]
        seq = video.read_pgm_sequence(path)
        bg, fg, trace = video.background_subtract(seq, self.r, theta,
                                                  stop=self.stop)
        for t, frame in enumerate(bg.frames):
            video.write_pgm(frame, os.path.join(out_dir, f"bg_{t:05d}.pgm"))
        for t, frame in enumerate(fg.frames):
            video.write_pgm(frame, os.path.join(out_dir, f"fg_{t:05d}.pgm"))
        return bg, fg, trace

    def check(self, state, key, out):
        _, clips, out_dir = state
        _, masks, clean = clips[key % len(clips)]
        bg, fg, trace = out
        B = np.stack(bg.frames)
        F = np.stack(fg.frames)
        if not (np.isfinite(B).all() and np.isfinite(F).all()):
            raise CheckFailed("non-finite output")
        last = video.read_pgm(os.path.join(out_dir, f"fg_{self.frames - 1:05d}.pgm"))
        if not np.array_equal(last, np.round(F[-1] * 255.0) / 255.0):
            raise CheckFailed("written foreground frame differs from output")
        err = rel_err(B, np.broadcast_to(clean, B.shape))
        detected = F > self.detect
        tp = int((detected & masks).sum())
        f1 = 2 * tp / max(2 * tp + int((detected & ~masks).sum())
                          + int((~detected & masks).sum()), 1)
        if not err <= self.max_bg_err:
            raise CheckFailed(f"background rel_err {err:.3g} > {self.max_bg_err}")
        if not f1 >= self.min_f1:
            raise CheckFailed(f"foreground F1 {f1:.3f} < {self.min_f1}")
        return {"iters": [trace.iterations], "task_iters": trace.iterations,
                "rel_err": err, "f1": f1}


WORKLOADS = {w.name: w for w in (
    SolveN2000(),
    TrainN200(),
    BgsubQqvga("bgsub-qqvga-r1", 1, {
        "linalg.truncated_svd": (0.30, 0.90),  # wide gap: fewer SVD passes
        "linalg.gram_solve": (0.00, 0.02),
        "operators.soft_threshold": (0.00, 0.03),
        "schedule.at": (0.00, 0.01),
    }),
    BgsubQqvga("bgsub-qqvga", 2, {
        "linalg.truncated_svd": (0.50, 1.00),  # tall init SVD dominates
        "linalg.gram_solve": (0.00, 0.02),
        "operators.soft_threshold": (0.00, 0.03),
        "schedule.at": (0.00, 0.01),
    }),
)}


def trace_targets():
    """``(owner, attribute, span name)`` for every layer boundary traced.

    Each owner is the module (or class) the caller looks the name up in at
    call time, so the patch is seen by the program's own call sites.
    """
    return [
        (solver, "truncated_svd", "linalg.truncated_svd"),
        (solver, "gram_solve", "linalg.gram_solve"),
        (solver, "soft_threshold", "operators.soft_threshold"),
        (solver, "spectral_init", "solver.spectral_init"),
        (solver, "solve", "solver.solve"),
        (video, "solve", "solver.solve"),
        (training, "spectral_init", "training.spectral_init"),
        (training, "train_schedule", "training.train_schedule"),
        (training, "layerwise_train", "training.layerwise_train"),
        (training, "grid_search_tail", "training.grid_search_tail"),
        (synth, "gen_instance", "synth.gen_instance"),
        (video, "read_pgm_sequence", "video.read_pgm_sequence"),
        (video, "background_subtract", "video.background_subtract"),
        (video, "write_pgm", "video.write_pgm"),
        (ParamSchedule, "at", "schedule.at"),
    ]
