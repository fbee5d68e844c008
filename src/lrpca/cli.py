"""Command-line interface.

Subcommands: ``gen`` (synthetic instances), ``train`` (two-phase parameter
learning), ``solve`` (decompose a matrix), ``bench`` (benchmark harnesses),
``bgsub`` (background subtraction on PGM frame sequences).

Configuration files are flat ``key = value`` text with ``#`` comments;
command-line flags override file values.  Every run writes a ``manifest.txt``
echoing the fully resolved configuration, and re-running a subcommand with
``--config manifest.txt`` reproduces the outputs (modulo wall-clock columns).
The environment variable ``LRPCA_SEED`` provides the seed when neither flag
nor config sets one.

Exit codes: 0 success, 1 runtime/solver failure, 2 usage or config error.
"""

import argparse
import os
import sys

from . import bench as bench_mod
from .errors import LrpcaError
from .matrixio import read_matrix, write_matrix
from .schedule import read_schedule, write_schedule
from .solver import FixedSchedule, OracleSchedule, StopRule, solve
from .synth import InstanceSource, gen_instance
from .training import TrainConfig, train_schedule
from .video import background_subtract, read_pgm_sequence, write_pgm

__all__ = ["main"]


class UsageError(Exception):
    pass


def parse_config(path):
    """Flat ``key = value`` file; '#' starts a comment."""
    if not os.path.isfile(path):
        raise UsageError(f"config file not found: {path}")
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def write_manifest(path, resolved):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for key, value in resolved.items():
            fh.write(f"{key} = {value}\n")


class Settings:
    """Layered settings: flags override config values override defaults."""

    def __init__(self, args, extra_defaults=None):
        self.flags = vars(args)
        self.config = parse_config(args.config) if getattr(args, "config", None) else {}
        self.defaults = dict(extra_defaults or {})
        self.resolved = {}

    def get(self, key, default=None, cast=str):
        flag = self.flags.get(key.replace("-", "_"))
        if flag is not None:
            value = flag
        elif self.config.get(key, "") != "":
            value = self.config[key]
        elif key in self.defaults:
            value = self.defaults[key]
        else:
            value = default
        if value is None:
            self.resolved[key] = ""
            return None
        try:
            value = cast(value) if not isinstance(value, bool) else value
        except (TypeError, ValueError) as exc:
            raise UsageError(f"bad value for {key!r}: {value!r}") from exc
        self.resolved[key] = value
        return value

    def seed(self, default=0):
        flag = self.flags.get("seed")
        try:
            if flag is not None:
                value = int(flag)
            elif self.config.get("seed", "") != "":
                value = int(self.config["seed"])
            elif os.environ.get("LRPCA_SEED"):
                value = int(os.environ["LRPCA_SEED"])
            else:
                value = default
        except ValueError as exc:
            raise UsageError(f"bad seed value: {exc}") from exc
        self.resolved["seed"] = value
        return value

    def require(self, key, cast=str):
        value = self.get(key, cast=cast)
        if value is None:
            raise UsageError(f"missing required setting {key!r}")
        return value


def _outdir(settings):
    out = settings.require("out")
    os.makedirs(out, exist_ok=True)
    return out


def _finish(settings, out, command):
    manifest = {"command": command}
    manifest.update(settings.resolved)
    write_manifest(os.path.join(out, "manifest.txt"), manifest)


def cmd_gen(args):
    s = Settings(args)
    n = s.get("n", cast=int)
    n1 = s.get("n1", default=n, cast=int)
    n2 = s.get("n2", default=n, cast=int)
    if n1 is None or n2 is None:
        raise UsageError("need --n or both --n1/--n2")
    r = s.require("r", cast=int)
    alpha = s.require("alpha", cast=float)
    if not 0.0 <= alpha <= 1.0:
        raise UsageError(f"alpha must be in [0, 1], got {alpha}")
    seed = s.seed()
    out = _outdir(s)
    inst = gen_instance(n1, n2, r, alpha, seed)
    write_matrix(inst.Y, os.path.join(out, "Y.lrpm"))
    write_matrix(inst.X_star, os.path.join(out, "X_star.lrpm"))
    write_matrix(inst.S_star, os.path.join(out, "S_star.lrpm"))
    _finish(s, out, "gen")
    print(f"gen: wrote {n1}x{n2} instance (r={r}, alpha={alpha}) to {out}")
    return 0


def cmd_train(args):
    s = Settings(args)
    n = s.get("n", default=500, cast=int)
    n2 = s.get("n2", default=n, cast=int)
    r = s.get("r", default=5, cast=int)
    alpha = s.get("alpha", default=0.1, cast=float)
    d = TrainConfig()
    K = s.get("K", default=d.K, cast=int)
    K_bar = s.get("K_bar", default=d.K_bar, cast=int)
    if K_bar < K:
        raise UsageError(f"K_bar ({K_bar}) must be >= K ({K})")
    steps = s.get("sgd_steps_per_stage", default=d.sgd_steps_per_stage,
                  cast=int)
    lr = s.get("learning_rate", default=d.learning_rate, cast=float)
    grid_min = s.get("grid_min", default=d.grid[0], cast=float)
    grid_max = s.get("grid_max", default=d.grid[1], cast=float)
    grid_step = s.get("grid_step", default=d.grid[2], cast=float)
    grid_instances = s.get("grid_instances", default=20, cast=int)
    seed = s.seed()
    out = _outdir(s)

    cfg = TrainConfig(K=K, K_bar=K_bar, sgd_steps_per_stage=steps,
                      learning_rate=lr, grid=(grid_min, grid_max, grid_step))
    source = InstanceSource(n, n2, r, alpha, base_seed=seed)
    log_rows = []
    theta = train_schedule(
        source, cfg, grid_instances,
        callback=lambda stage, step, loss: log_rows.append((stage, step, loss)))

    write_schedule(theta, os.path.join(out, "schedule.csv"))
    with open(os.path.join(out, "training_log.csv"), "w",
              encoding="utf-8", newline="\n") as fh:
        fh.write("stage,step,loss\n")
        for stage, step, loss in log_rows:
            fh.write(f"{stage},{step},{loss:.17g}\n")
    _finish(s, out, "train")
    print(f"train: wrote schedule (K={K}, K_bar={K_bar}, beta={theta.beta}, "
          f"phi={theta.phi}) to {out}")
    return 0


def _stop_from(s):
    mode = s.get("stop_mode", default="residual_rel")
    tol = s.get("tol", default=1e-4, cast=float)
    max_iters = s.get("max_iters", default=100, cast=int)
    return StopRule(mode=mode, tolerance=tol, max_iters=max_iters)


def cmd_solve(args):
    s = Settings(args)
    y_path = s.require("y")
    if not os.path.isfile(y_path):
        raise UsageError(f"matrix file not found: {y_path}")
    r = s.require("r", cast=int)
    seed = s.seed()
    stop = _stop_from(s)
    out = _outdir(s)

    schedule_path = s.get("schedule")
    oracle = bool(s.get("oracle", default=False, cast=lambda v: str(v) == "True"))
    fixed = s.flags.get("fixed")
    if fixed is None and "fixed" in s.config:
        fixed = s.config["fixed"].split()
    if fixed is not None:
        s.resolved["fixed"] = f"{fixed[0]} {fixed[1]}"
    truth_path = s.get("truth")

    sources = sum(x is not None and x is not False
                  for x in (schedule_path, oracle or None, fixed))
    if sources != 1:
        raise UsageError("choose exactly one of --schedule, --oracle, --fixed")
    if schedule_path is not None:
        if not os.path.isfile(schedule_path):
            raise UsageError(f"schedule file not found: {schedule_path}")
        schedule = read_schedule(schedule_path)
    elif fixed is not None:
        schedule = FixedSchedule(zeta=float(fixed[0]), eta=float(fixed[1]))
    else:
        eta = s.get("eta", default=0.5, cast=float)
        schedule = OracleSchedule(eta=eta)

    truth = None
    if truth_path is not None:
        if not os.path.isfile(truth_path):
            raise UsageError(f"truth file not found: {truth_path}")
        truth = read_matrix(truth_path)

    Y = read_matrix(y_path)
    X, S, trace = solve(Y, r, schedule, stop=stop, truth=truth, seed=seed)
    write_matrix(X, os.path.join(out, "X_hat.lrpm"))
    write_matrix(S, os.path.join(out, "S_hat.lrpm"))
    bench_mod.write_trace(trace, os.path.join(out, "trace.csv"))
    _finish(s, out, "solve")
    print(f"solve: {trace.iterations} iterations, final residual "
          f"{trace.residuals[-1]:.3e}; outputs in {out}")
    return 0


def _load_lrpca_spec(s, name="lrpca"):
    schedule_path = s.get("schedule")
    if schedule_path is not None:
        if not os.path.isfile(schedule_path):
            raise UsageError(f"schedule file not found: {schedule_path}")
        return bench_mod.lrpca_spec(read_schedule(schedule_path), name=name)
    eta = s.get("eta", default=0.5, cast=float)
    return bench_mod.lrpca_spec(OracleSchedule(eta=eta), name=name + "-oracle")


def cmd_bench(args):
    s = Settings(args)
    kind = s.require("kind")
    out = _outdir(s)
    seed = s.seed()

    if kind == "convergence":
        n = s.get("n", default=500, cast=int)
        r = s.get("r", default=5, cast=int)
        alpha = s.get("alpha", default=0.1, cast=float)
        at = s.get("scaledgd_alpha_tilde", default=min(2 * alpha, 1.0), cast=float)
        eta = s.get("scaledgd_eta", default=0.5, cast=float)
        stop = _stop_from(s)
        inst = gen_instance(n, n, r, alpha, seed)
        specs = [_load_lrpca_spec(s), bench_mod.scaledgd_spec(at, eta)]
        report, traces = bench_mod.convergence_bench(specs, inst, stop)
        for spec_name, trace in traces.items():
            bench_mod.write_trace(trace, os.path.join(out, f"trace_{spec_name}.csv"))
    elif kind == "recoverability":
        alphas = s.require("alphas", cast=lambda v: [float(x) for x in str(v).split(",")])
        trials = s.get("trials", default=10, cast=int)
        n = s.get("n", default=500, cast=int)
        r = s.get("r", default=5, cast=int)
        success_tol = s.get("success_tol", default=1e-3, cast=float)
        max_iters = s.get("max_iters", default=150, cast=int)
        eta = s.get("scaledgd_eta", default=0.5, cast=float)
        lrpca = _load_lrpca_spec(s)

        def factory(alpha):
            return [lrpca,
                    bench_mod.scaledgd_spec(min(2 * alpha, 1.0), eta)]

        report = bench_mod.recoverability_sweep(
            alphas, trials, factory, success_tol, n=n, r=r,
            base_seed=seed, max_iters=max_iters)
    elif kind == "runtime":
        n_list = s.require("n_list", cast=lambda v: [int(x) for x in str(v).split(",")])
        r_list = s.require("r_list", cast=lambda v: [int(x) for x in str(v).split(",")])
        iters = s.get("iters", default=10, cast=int)
        alpha = s.get("alpha", default=0.1, cast=float)
        rows = bench_mod.runtime_scaling_bench(n_list, r_list, iters,
                                               alpha=alpha, base_seed=seed)
        report = bench_mod.BenchReport([
            {"solver": "lrpca", "seed": seed, "alpha": alpha, "n": row["n"],
             "r": row["r"], "iters": iters, "final_rel_err": float("nan"),
             "wall_ms": row["median_iter_ms"], "success": 1}
            for row in rows])
    elif kind == "generalization":
        schedule_path = s.require("schedule")
        if not os.path.isfile(schedule_path):
            raise UsageError(f"schedule file not found: {schedule_path}")
        theta = read_schedule(schedule_path)
        base_n = s.require("base_n", cast=int)
        base_r = s.require("base_r", cast=int)
        targets = s.require(
            "targets",
            cast=lambda v: [tuple(int(x) for x in item.split(":"))
                            for item in str(v).split(",")])
        tol = s.get("tol", default=1e-4, cast=float)
        trials = s.get("trials", default=5, cast=int)
        alpha = s.get("alpha", default=0.1, cast=float)
        max_iters = s.get("max_iters", default=200, cast=int)
        rows = bench_mod.generalization_bench(
            theta, (base_n, base_r), targets, tol, trials=trials,
            alpha=alpha, base_seed=seed, max_iters=max_iters)
        report = bench_mod.BenchReport([
            {"solver": "lrpca-rescaled", "seed": seed + t, "alpha": alpha,
             "n": row["n"], "r": row["r"], "iters": count,
             "final_rel_err": float("nan"), "wall_ms": 0.0, "success": 1}
            for row in rows for t, count in enumerate(row["counts"])])
    else:
        raise UsageError(f"unknown bench kind {kind!r}")

    bench_mod.write_report(report, os.path.join(out, "report.csv"))
    _finish(s, out, "bench")
    print(f"bench[{kind}]: wrote report.csv with {len(report.rows)} rows to {out}")
    return 0


def cmd_bgsub(args):
    s = Settings(args)
    frames_dir = s.require("frames")
    if not os.path.isdir(frames_dir):
        raise UsageError(f"frames directory not found: {frames_dir}")
    if not any(name.lower().endswith(".pgm") for name in os.listdir(frames_dir)):
        raise UsageError(f"no PGM frames in {frames_dir}")
    r = s.require("r", cast=int)
    schedule_path = s.require("schedule")
    if not os.path.isfile(schedule_path):
        raise UsageError(f"schedule file not found: {schedule_path}")
    seed = s.seed()
    s.defaults.update({"stop_mode": "iterate_change", "tol": 1e-3})
    stop = _stop_from(s)
    out = _outdir(s)

    seq = read_pgm_sequence(frames_dir)
    theta = read_schedule(schedule_path)
    bg, fg, trace = background_subtract(seq, r, theta, stop=stop, seed=seed)
    for i, frame in enumerate(bg.frames):
        write_pgm(frame, os.path.join(out, f"bg_{i:05d}.pgm"))
    for i, frame in enumerate(fg.frames):
        write_pgm(frame, os.path.join(out, f"fg_{i:05d}.pgm"))
    bench_mod.write_trace(trace, os.path.join(out, "trace.csv"))
    _finish(s, out, "bgsub")
    print(f"bgsub: processed {len(seq)} frames in {trace.iterations} iterations; "
          f"outputs in {out}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lrpca",
        description="Low-rank + sparse decomposition with learned schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int)

    p = sub.add_parser("gen", help="generate a synthetic instance")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n1", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=float)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="learn an iteration schedule")
    common(p)
    p.add_argument("--n", type=int)
    p.add_argument("--n2", type=int)
    p.add_argument("--r", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--K", type=int)
    p.add_argument("--K-bar", dest="K_bar", type=int)
    p.add_argument("--sgd-steps-per-stage", dest="sgd_steps_per_stage", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--grid-min", dest="grid_min", type=float)
    p.add_argument("--grid-max", dest="grid_max", type=float)
    p.add_argument("--grid-step", dest="grid_step", type=float)
    p.add_argument("--grid-instances", dest="grid_instances", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("solve", help="decompose a matrix")
    common(p)
    p.add_argument("--y", help="observed matrix (binary format)")
    p.add_argument("--r", type=int)
    p.add_argument("--schedule", help="schedule CSV from train")
    p.add_argument("--oracle", action="store_true", default=None,
                   help="ground-truth thresholds (requires --truth)")
    p.add_argument("--truth", help="true low-rank matrix")
    p.add_argument("--fixed", nargs=2, metavar=("ZETA", "ETA"),
                   help="constant threshold and step size")
    p.add_argument("--eta", type=float)
    p.add_argument("--stop-mode", dest="stop_mode",
                   choices=["residual_rel", "iterate_change", "fixed_iters"])
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("bench", help="run a benchmark harness")
    common(p)
    p.add_argument("--kind", choices=["convergence", "recoverability",
                                      "runtime", "generalization"])
    p.add_argument("--schedule")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("bgsub", help="background subtraction on PGM frames")
    common(p)
    p.add_argument("--frames", help="directory of P5 PGM frames")
    p.add_argument("--r", type=int)
    p.add_argument("--schedule")
    p.add_argument("--stop-mode", dest="stop_mode",
                   choices=["residual_rel", "iterate_change", "fixed_iters"])
    p.add_argument("--tol", type=float)
    p.add_argument("--max-iters", dest="max_iters", type=int)
    p.set_defaults(func=cmd_bgsub)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LrpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
