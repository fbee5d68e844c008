"""Benchmark harnesses: convergence, recoverability, runtime scaling, and
schedule generalization.

The convergence, recoverability and generalization harnesses are
deterministic given their seed (apart from wall-clock columns) and return
a :class:`BenchReport` of rows with the fixed schema
``solver,seed,alpha,n,r,iters,final_rel_err,wall_ms,success``;
:func:`runtime_scaling_bench` returns per-iteration times.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, LrpcaError
from .schedule import rescale_schedule
from .solver import FixedSchedule, StopRule, solve, solve_scaledgd
from .synth import gen_instance
from .validation import check_count, check_positive

__all__ = ["SolverSpec", "BenchReport", "lrpca_spec", "scaledgd_spec",
           "convergence_bench", "recoverability_sweep",
           "runtime_scaling_bench", "generalization_bench",
           "write_report", "write_trace"]

TRACE_COLUMNS = ("iter", "zeta", "eta", "residual_rel", "rel_err", "wall_ms")

REPORT_COLUMNS = ("solver", "seed", "alpha", "n", "r", "iters",
                  "final_rel_err", "wall_ms", "success")


@dataclass(frozen=True)
class SolverSpec:
    """A named solver: ``run(instance, stop) -> (X, S, trace)``."""

    name: str
    run: callable


def lrpca_spec(schedule, name="lrpca"):
    """Spec for the thresholding solver with any schedule source."""
    def run(inst, stop):
        return solve(inst.Y, inst.r, schedule, stop=stop,
                     truth=inst.X_star, seed=inst.seed)
    return SolverSpec(name, run)


def scaledgd_spec(alpha_tilde, eta=0.5):
    """Spec for the sparsification baseline."""
    def run(inst, stop):
        return solve_scaledgd(inst.Y, inst.r, alpha_tilde, eta, stop=stop,
                              truth=inst.X_star, seed=inst.seed)
    return SolverSpec("scaledgd", run)


@dataclass
class BenchReport:
    rows: list

    def success_count(self):
        return sum(r["success"] for r in self.rows)


def _row(name, inst, trace, success):
    return {
        "solver": name,
        "seed": inst.seed,
        "alpha": inst.alpha,
        "n": max(inst.shape),
        "r": inst.r,
        "iters": trace.iterations if trace is not None else -1,
        "final_rel_err": (trace.rel_errs[-1] if trace is not None
                          else float("inf")),
        "wall_ms": (float(sum(trace.wall_ms)) if trace is not None else 0.0),
        "success": int(success),
    }


def convergence_bench(solver_specs, instance, stop):
    """Run every solver on the same instance; returns (report, traces)."""
    if not solver_specs:
        raise InvalidInput("need at least one solver spec")
    rows, traces = [], {}
    for spec in solver_specs:
        X, S, trace = spec.run(instance, stop)
        ok = trace.residuals[-1] < stop.tolerance if stop.mode == "residual_rel" \
            else math.isfinite(trace.rel_errs[-1])
        rows.append(_row(spec.name, instance, trace, ok))
        traces[spec.name] = trace
    return BenchReport(rows), traces


def recoverability_sweep(alphas, trials_per_alpha, spec_factory, success_tol,
                         n=500, r=5, base_seed=900, max_iters=150):
    """Success counts per (alpha, solver).

    ``spec_factory(alpha)`` supplies the solver list for each outlier level
    (the baseline's keep-fraction depends on alpha).  Trial t at every alpha
    reuses seed ``base_seed + t``, so sweeps share instances across levels.
    Success means the final relative error against the true low-rank part
    is below ``success_tol``; solver failures count as misses, but a
    caller's mistake (:class:`~lrpca.errors.InvalidInput`) raises.  Rows
    are ordered by (alpha, trial, solver).
    """
    check_count(trials_per_alpha, "trials_per_alpha")
    check_positive(success_tol, "success_tol")
    stop = StopRule(mode="fixed_iters", max_iters=max_iters)
    specs_by_alpha = [(alpha, spec_factory(alpha)) for alpha in alphas]
    if not all(specs for _, specs in specs_by_alpha):
        raise InvalidInput("spec factory returned no solvers")

    rows = []
    for alpha, specs in specs_by_alpha:
        for t in range(trials_per_alpha):
            inst = gen_instance(n, n, r, alpha, base_seed + t)
            for spec in specs:
                try:
                    X, S, trace = spec.run(inst, stop)
                except InvalidInput:
                    raise
                except LrpcaError:
                    rows.append(_row(spec.name, inst, None, False))
                    continue
                rows.append(_row(spec.name, inst, trace,
                                 trace.rel_errs[-1] < success_tol))
    return BenchReport(rows)


def runtime_scaling_bench(n_list, r_list, iters, alpha=0.1, base_seed=50):
    """Median per-iteration wall time (ms, initialization excluded) for every
    (n, r) pair.  Returns a list of dicts with keys n, r, median_iter_ms."""
    check_count(iters, "iters", 10)  # enough to amortize timing noise
    out = []
    for n in n_list:
        for r in r_list:
            inst = gen_instance(n, n, r, alpha, base_seed)
            zeta = 0.5 * float(np.abs(inst.Y).max())
            schedule = FixedSchedule(zeta=zeta, eta=0.5)
            # Untimed warm-up so page faults and BLAS thread spin-up do not
            # land in the first measured iterations.
            solve(inst.Y, r, schedule,
                  stop=StopRule(mode="fixed_iters", max_iters=2), seed=inst.seed)
            stop = StopRule(mode="fixed_iters", max_iters=iters)
            _, _, trace = solve(inst.Y, r, schedule, stop=stop, seed=inst.seed)
            out.append({"n": n, "r": r,
                        "median_iter_ms": float(np.median(trace.wall_ms[1:]))})
    return out


def generalization_bench(theta_base, base_dims, target_dims_list, tol,
                         trials=5, alpha=0.1, base_seed=700, max_iters=200):
    """The rescaled base schedule on fresh instances of each target size.

    One row per (target, trial), in that order, each solve stopping at the
    residual tolerance or ``max_iters``; success means the solve converged.
    """
    check_count(trials, "trials")
    n_base, r_base = base_dims
    rows = []
    for n_t, r_t in target_dims_list:
        theta = rescale_schedule(theta_base, n_base, r_base, n_t, r_t)
        for t in range(trials):
            inst = gen_instance(n_t, n_t, r_t, alpha, base_seed + t)
            stop = StopRule(mode="residual_rel", tolerance=tol,
                            max_iters=max_iters)
            _, _, trace = solve(inst.Y, r_t, theta, stop=stop,
                                truth=inst.X_star, seed=inst.seed)
            rows.append(_row("lrpca-rescaled", inst, trace,
                             trace.stop_reason == "converged"))
    return BenchReport(rows)


def write_report(report, path):
    """Emit the fixed 9-column CSV."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(REPORT_COLUMNS) + "\n")
        for row in report.rows:
            fh.write(",".join(_format_field(c, row[c])
                              for c in REPORT_COLUMNS) + "\n")


def _format_field(column, value):
    if column == "wall_ms":
        return f"{value:.3f}"
    if column in ("alpha", "final_rel_err"):
        return f"{value:.17g}"
    return str(value)


def write_trace(trace, path):
    """Emit one solve trace as CSV (row 0 is the initialization)."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for k, zeta, eta, res, rel, wall in trace.rows():
            fh.write(f"{k},{zeta:.17g},{eta:.17g},{res:.17g},{rel:.17g},"
                     f"{wall:.3f}\n")
