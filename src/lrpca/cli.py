"""Command-line interface.

Subcommands: ``gen`` (synthetic instances), ``train`` (two-phase parameter
learning), ``solve`` (decompose a matrix), ``bench`` (benchmark harnesses),
``bgsub`` (background subtraction on PGM frame sequences).

Each setting is declared once, as a flag of its subcommand's parser with
its type and default; the flag ``--some-key`` is also the config key
``some_key``.  Config files are flat ``key = value`` text with ``#``
comments.  Precedence: flag > config > default, for every setting.  A
config key that names no setting of the subcommand is a usage error
(``command``, which manifests carry, is allowed).  Every run writes a
``manifest.txt`` listing every setting of the subcommand in the syntax
``--config`` reads, so ``--config manifest.txt`` reproduces the outputs
(modulo wall-clock columns).

One name per quantity: ``gen`` and ``train`` take an instance's rows as
``--n`` and its columns as ``--n2`` (default ``--n``), and ``bench --kind
generalization`` reads its base schedule's size from ``--n`` and ``--r``.
A default the library also has is read from it: the stop rules from
``StopRule()`` and ``background_subtract``'s ``stop``, ``--eta`` from
``OracleSchedule``, the training knobs from ``TrainConfig``,
``--scaledgd-eta`` from ``bench.scaledgd_spec`` and the bench kinds'
iteration caps and trial counts from their harnesses.

Exit codes: 0 success, 1 runtime/solver failure, 2 for any
:class:`~lrpca.errors.InvalidInput`: a usage or config error, or a setting
or input that cannot be run (a negative seed, ``--oracle`` without
``--truth``).  ``--out`` is created with the first output,
so a run that exits 2 leaves none.
"""

import argparse
import inspect
import os
import sys

from . import bench as bench_mod
from .errors import InvalidInput, LrpcaError
from .matrixio import read_matrix, write_matrix
from .schedule import read_schedule, write_schedule
from .solver import _STOP_MODES, FixedSchedule, OracleSchedule, StopRule, solve
from .synth import InstanceSource, gen_instance
from .training import _GRID_INSTANCES, TrainConfig, train_schedule
from .video import _BGSUB_STOP, background_subtract, read_pgm_sequence, write_pgm

__all__ = ["main"]


def parse_config(path):
    """Flat UTF-8 ``key = value`` file; '#' starts a comment."""
    out, first = {}, {}
    with open(_existing(path, "config"), "r", encoding="utf-8") as fh:
        try:
            lines = fh.readlines()
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"{path}: config file is not UTF-8 text") from exc
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInput(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in first:
            raise InvalidInput(f"{path}:{lineno}: {key} is set again "
                               f"(first on line {first[key]})")
        first[key], out[key] = lineno, value
    return out


def _layer_config(sub, path):
    """Make the config file's non-empty values the defaults of subparser
    ``sub``: argparse casts a string default through the flag's ``type``
    when the flag is absent, so flags still win and bad values exit 2."""
    values = parse_config(path)
    actions = {a.dest: a for a in sub._actions if a.dest not in ("help", "config")}
    unknown = sorted(set(values) - set(actions) - {"command"})
    if unknown:
        raise InvalidInput(f"unknown config keys in {path}: {', '.join(unknown)}")
    defaults = {}
    for key, text in values.items():
        action = actions.get(key)
        if action is None or text == "":
            continue
        if action.nargs == 0:  # a switch; manifests write True or False
            if text not in ("True", "False"):
                raise InvalidInput(f"{key} must be True or False, got {text!r}")
            text = text == "True"
        elif action.nargs is not None:  # several values, as on the command line
            flag_args = [action.option_strings[0], *text.split()]
            text = getattr(sub.parse_args(flag_args), key)
        elif action.choices is not None and text not in action.choices:
            # argparse checks choices only for values given as flags.
            raise InvalidInput(f"{key} must be one of "
                               f"{', '.join(action.choices)}, got {text!r}")
        defaults[key] = text
    sub.set_defaults(**defaults)


def _write_manifest(args):
    """Every setting of the run, in the syntax ``--config`` reads."""
    with open(_path(args, "manifest.txt"), "w", encoding="utf-8",
              newline="\n") as fh:
        for key, value in vars(args).items():
            if key in ("config", "func"):
                continue
            if isinstance(value, list):  # argparse's list of one flag's values
                value = " ".join(map(str, value))
            elif isinstance(value, tuple):  # comma-separated; targets are n:r
                value = ",".join(":".join(map(str, v)) if isinstance(v, tuple)
                                 else str(v) for v in value)
            fh.write(f"{key} = {'' if value is None else value}\n")


def float_list(text):
    return tuple(map(float, text.split(",")))


def pair_list(text):
    pairs = tuple(tuple(map(int, item.split(":"))) for item in text.split(","))
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"expected n:r pairs, got {text!r}")
    return pairs


def _require(args, *keys):
    for key in keys:
        if getattr(args, key) is None:
            raise InvalidInput(f"missing required setting {key!r}")


def _fill(args, **defaults):
    """Set the settings ``args`` leaves unset to defaults that depend on others."""
    for key, value in defaults.items():
        if getattr(args, key) is None:
            setattr(args, key, value)


def _defaults(func, *names):
    """The defaults of ``func``'s parameters ``names``, by name."""
    return {name: inspect.signature(func).parameters[name].default for name in names}


def _existing(path, what):
    if not os.path.isfile(path):
        raise InvalidInput(f"{what} file not found: {path}")
    return path


def _check_out(out):
    """``out``, or else its nearest existing ancestor, must be a directory,
    so that the first output can create it."""
    path = out
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise InvalidInput(f"--out {out}: {path} exists and is not a directory")


def _path(args, name):
    """Output file ``name`` in ``--out``, which the first output creates."""
    os.makedirs(args.out, exist_ok=True)
    return os.path.join(args.out, name)


def _stop(args):
    return StopRule(mode=args.stop_mode, tolerance=args.tol, max_iters=args.max_iters)


def cmd_gen(args):
    _require(args, "n", "r", "alpha")
    _fill(args, n2=args.n)
    inst = gen_instance(args.n, args.n2, args.r, args.alpha, args.seed)
    for name in ("Y", "X_star", "S_star"):
        write_matrix(getattr(inst, name), _path(args, f"{name}.lrpm"))
    print(f"gen: wrote {args.n}x{args.n2} instance (r={args.r}, "
          f"alpha={args.alpha}) to {args.out}")


def cmd_train(args):
    _fill(args, n2=args.n)
    cfg = TrainConfig(K=args.K, K_bar=args.K_bar,
                      sgd_steps_per_stage=args.sgd_steps_per_stage,
                      learning_rate=args.learning_rate,
                      grid=(args.grid_min, args.grid_max, args.grid_step))
    source = InstanceSource(args.n, args.n2, args.r, args.alpha, args.seed)
    log = []  # opened at the first SGD step, once train_schedule checked its settings

    def record(*row):  # (stage, step, loss, grad_norm)
        if not log:
            log.append(open(_path(args, "training_log.csv"), "w",
                            encoding="utf-8", newline="\n"))
            log[0].write("stage,step,loss,grad_norm\n")
        if row:
            log[0].write("{},{},{:.17g},{:.17g}\n".format(*row))

    try:
        theta = train_schedule(source, cfg, args.grid_instances, callback=record)
        record()  # a run without SGD steps still writes the header
    finally:
        for fh in log:
            fh.close()
    write_schedule(theta, _path(args, "schedule.csv"))
    print(f"train: wrote schedule (K={args.K}, K_bar={args.K_bar}, "
          f"beta={theta.beta}, phi={theta.phi}) to {args.out}")


def cmd_solve(args):
    _require(args, "y", "r")
    Y = read_matrix(_existing(args.y, "matrix"))
    if (args.schedule is not None) + args.oracle + (args.fixed is not None) != 1:
        raise InvalidInput("choose exactly one of --schedule, --oracle, --fixed")
    if args.schedule is not None:
        schedule = read_schedule(_existing(args.schedule, "schedule"))
    elif args.fixed is not None:
        schedule = FixedSchedule(*args.fixed)
    else:
        schedule = OracleSchedule(args.eta)
    truth = None if args.truth is None else read_matrix(_existing(args.truth, "truth"))
    X, S, trace = solve(Y, args.r, schedule, stop=_stop(args), truth=truth,
                        seed=args.seed)
    write_matrix(X, _path(args, "X_hat.lrpm"))
    write_matrix(S, _path(args, "S_hat.lrpm"))
    bench_mod.write_trace(trace, _path(args, "trace.csv"))
    print(f"solve: {trace.iterations} iterations ({trace.stop_reason}), final "
          f"residual {trace.residuals[-1]:.3e}; outputs in {args.out}")


def _lrpca_spec(args):
    if args.schedule is not None:
        theta = read_schedule(_existing(args.schedule, "schedule"))
        return bench_mod.lrpca_spec(theta)
    return bench_mod.lrpca_spec(OracleSchedule(args.eta), "lrpca-oracle")


def cmd_bench(args):
    _require(args, "kind")
    seed, kind = args.seed, args.kind

    if kind == "convergence":
        _fill(args, max_iters=StopRule().max_iters)
        inst = gen_instance(args.n, args.n, args.r, args.alpha, seed)
        specs = [_lrpca_spec(args),
                 bench_mod.scaledgd_spec(min(2 * args.alpha, 1.0),
                                         args.scaledgd_eta)]
        report, traces = bench_mod.convergence_bench(specs, inst, _stop(args))
        for spec_name, trace in traces.items():
            bench_mod.write_trace(trace, _path(args, f"trace_{spec_name}.csv"))
    elif kind == "recoverability":
        _require(args, "alphas")
        _fill(args, trials=10, **_defaults(bench_mod.recoverability_sweep, "max_iters"))
        lrpca = _lrpca_spec(args)

        def factory(alpha):
            return [lrpca,
                    bench_mod.scaledgd_spec(min(2 * alpha, 1.0), args.scaledgd_eta)]

        report = bench_mod.recoverability_sweep(
            args.alphas, args.trials, factory, args.success_tol,
            n=args.n, r=args.r, base_seed=seed, max_iters=args.max_iters)
    elif kind == "generalization":
        _require(args, "schedule", "targets")
        _fill(args, **_defaults(bench_mod.generalization_bench, "max_iters", "trials"))
        theta = read_schedule(_existing(args.schedule, "schedule"))
        report = bench_mod.generalization_bench(
            theta, (args.n, args.r), args.targets, args.tol,
            trials=args.trials, alpha=args.alpha, base_seed=seed,
            max_iters=args.max_iters)

    bench_mod.write_report(report, _path(args, "report.csv"))
    print(f"bench[{kind}]: wrote report.csv with {len(report.rows)} rows "
          f"to {args.out}")


def cmd_bgsub(args):
    _require(args, "frames", "r", "schedule")
    theta = read_schedule(_existing(args.schedule, "schedule"))
    seq = read_pgm_sequence(args.frames)
    bg, fg, trace = background_subtract(seq, args.r, theta, stop=_stop(args),
                                        seed=args.seed)
    for i, frame in enumerate(bg.frames):
        write_pgm(frame, _path(args, f"bg_{i:05d}.pgm"))
    for i, frame in enumerate(fg.frames):
        write_pgm(frame, _path(args, f"fg_{i:05d}.pgm"))
    bench_mod.write_trace(trace, _path(args, "trace.csv"))
    print(f"bgsub: processed {len(seq)} frames in {trace.iterations} iterations "
          f"({trace.stop_reason}); outputs in {args.out}")


def build_parser():
    """The ``lrpca`` parser and its subparsers by command name."""
    parser = argparse.ArgumentParser(
        prog="lrpca",
        description="Low-rank + sparse decomposition with learned schedules")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, summary):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(func=func)
        p.add_argument("--config", help="flat key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        return p

    def instance(p, n=None, r=None, alpha=None, n2=True):
        p.add_argument("--n", type=int, default=n)
        if n2:
            p.add_argument("--n2", type=int)
        p.add_argument("--r", type=int, default=r)
        p.add_argument("--alpha", type=float, default=alpha)

    def stop_rule(p, rule, fill_max_iters=False):
        p.add_argument("--stop-mode", default=rule.mode, choices=_STOP_MODES)
        p.add_argument("--tol", type=float, default=rule.tolerance)
        p.add_argument("--max-iters", type=int,
                       default=None if fill_max_iters else rule.max_iters)

    base = (500, 5, 0.1)  # the (n, r, alpha) that train and bench default to

    p = command("gen", cmd_gen, "generate a synthetic instance")
    instance(p)

    p = command("train", cmd_train, "learn an iteration schedule")
    instance(p, *base)
    p.add_argument("--K", type=int, default=TrainConfig.K)
    p.add_argument("--K-bar", type=int, default=TrainConfig.K_bar)
    p.add_argument("--sgd-steps-per-stage", type=int,
                   default=TrainConfig.sgd_steps_per_stage)
    p.add_argument("--learning-rate", type=float, default=TrainConfig.learning_rate)
    p.add_argument("--grid-min", type=float, default=TrainConfig.grid[0])
    p.add_argument("--grid-max", type=float, default=TrainConfig.grid[1])
    p.add_argument("--grid-step", type=float, default=TrainConfig.grid[2])
    p.add_argument("--grid-instances", type=int, default=_GRID_INSTANCES)

    p = command("solve", cmd_solve, "decompose a matrix")
    p.add_argument("--y", help="observed matrix (binary format)")
    p.add_argument("--r", type=int)
    p.add_argument("--schedule", help="schedule CSV from train")
    p.add_argument("--oracle", action="store_true",
                   help="ground-truth thresholds (requires --truth)")
    p.add_argument("--truth", help="true low-rank matrix")
    p.add_argument("--fixed", nargs=2, type=float, metavar=("ZETA", "ETA"),
                   help="constant threshold and step size")
    p.add_argument("--eta", type=float, default=OracleSchedule.eta)
    stop_rule(p, StopRule())

    # Each kind reads some of these; max_iters and trials get kind-dependent
    # defaults in cmd_bench.
    p = command("bench", cmd_bench, "run a benchmark harness")
    p.add_argument("--kind", choices=["convergence", "recoverability",
                                      "generalization"])
    p.add_argument("--schedule")
    p.add_argument("--eta", type=float, default=OracleSchedule.eta)
    instance(p, *base, n2=False)  # bench solves square instances
    stop_rule(p, StopRule(), fill_max_iters=True)
    p.add_argument("--scaledgd-eta", type=float,
                   default=_defaults(bench_mod.scaledgd_spec, "eta")["eta"])
    p.add_argument("--alphas", type=float_list, help="comma-separated alphas")
    p.add_argument("--trials", type=int)
    p.add_argument("--success-tol", type=float, default=1e-3)
    p.add_argument("--targets", type=pair_list, help="comma-separated n:r pairs")

    p = command("bgsub", cmd_bgsub, "background subtraction on PGM frames")
    p.add_argument("--frames", help="directory of P5 PGM frames")
    p.add_argument("--r", type=int)
    p.add_argument("--schedule")
    stop_rule(p, _BGSUB_STOP)

    return parser, sub.choices


def main(argv=None):
    parser, commands = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            _layer_config(commands[args.command], args.config)
            args = parser.parse_args(argv)
        _require(args, "out")
        _check_out(args.out)
        args.func(args)
    except LrpcaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, InvalidInput) else 1
    _write_manifest(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
