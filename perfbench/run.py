"""lrpca benchmark: one workload per run, timed end to end or traced.

Usage, from the repository root:

    python3 perfbench/run.py --workload solve-n2000 --seed 1 --seconds 25 --trace 0

A run sets up its inputs from ``--seed``, then runs tasks back to back
until ``--seconds`` have passed, checking every output, and sets up again
every few seconds (the median of all set-ups is ``setup_s``).  A failed
task (exception, non-finite output or a failed check) is counted, never
retried.  With ``--trace 0`` the run also measures the peak memory of one
more task and prints the end-to-end metrics; with ``--trace 1`` the second
task of each pair on one input runs with the layer boundaries patched to
record spans, and the run prints the per-layer metrics, each layer's
share of task time beside its prediction, and the tracing overhead, and
writes the spans under ``.perfbench_out/``.
``--workload all`` runs every workload in turn in one process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when a task returned an output that failed its check; a task that
raised counts in ``failed`` only.
"""

import argparse
import csv
import ctypes
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc

import numpy as np

from tracing import Tracer, aggregate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# Set-up runs again after the first task that ends this many seconds after
# the last set-up; setup_s is the median of all set-ups in the run.
SETUP_EVERY = 3.0
WORKLOAD_NAMES = ["solve-n2000", "train-n200", "bgsub-qqvga-r1", "bgsub-qqvga"]

# (name, unit) of the metrics a run prints in its JSON line; BENCHMARK.json
# lists the same names with the same units.
END_TO_END = [
    ("task_s.p50", "s"),
    ("iters.mean", "count"),
    ("peak_mb", "MB"),
    ("setup_s", "s"),
]
# Also printed in the report, but not in the JSON line: wall_s is fixed by
# --seconds, fail_frac is 0 on the workloads BENCHMARK.json lists,
# rel_err.max spreads over decades between seeds and fg_f1.min exists on the
# bgsub workloads only.
REPORT_ONLY = [
    ("wall_s", "s"),
    ("fail_frac", "ratio"),
    ("rel_err.max", "ratio"),
    ("fg_f1.min", "ratio"),
]

# Layers whose calls, time and failures are reported per traced task.
LAYER_FIELDS = [
    ("linalg.truncated_svd", ("calls", "s", "failed")),
    ("linalg.gram_solve", ("calls", "s", "failed")),
    ("operators.soft_threshold", ("calls", "s")),
    ("solver.spectral_init", ("calls", "s")),
    ("training.spectral_init", ("calls",)),
    ("solver.solve", ("calls", "self_s")),
    ("schedule.at", ("calls", "s")),
    ("training.layerwise_train", ("s", "self_s")),
    ("training.grid_search_tail", ("s",)),
    ("synth.gen_instance", ("calls", "s")),
    ("video.read_pgm_sequence", ("s",)),
    ("video.background_subtract", ("self_s",)),
    ("video.write_pgm", ("calls", "s")),
]
FIELD_UNITS = {"calls": "count/task", "failed": "count/task",
               "s": "s/task", "self_s": "s/task"}
PER_LAYER = [(f"{layer}.{f}", FIELD_UNITS[f])
             for layer, fields in LAYER_FIELDS for f in fields] + [
    ("solver.iters", "count/task"),
    ("solver.iter_ms", "ms"),
    ("solver.gflops", "GFLOP/s"),
    ("trace.task_s.p50", "s"),
    ("trace.overhead", "%"),
]


def run_info(seed):
    """Seed, machine, BLAS, numpy and source identity of this run."""
    blas, threads = "unknown", None
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({ln.split()[-1] for ln in fh
                           if "openblas" in ln.lower() and ".so" in ln})
        libs = [ctypes.CDLL(path) for path in libs[:1]]
    except OSError:
        libs = []
    for lib in libs:
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("", "")):
            get_config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            if get_config is not None and get_threads is not None:
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                blas = get_config().decode().strip()
                threads = int(get_threads())
                break
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return {"seed": seed, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "blas": blas, "blas_threads": threads,
            "numpy": np.__version__, "python": platform.python_version(),
            "commit": git_commit(), "src_sha256": digest.hexdigest()[:16]}


def git_commit():
    """HEAD of the checkout's git repository, or None outside one."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def run_tasks(wl, setup, seconds, tracer=None, targets=()):
    """Set up, then run tasks until ``seconds`` have passed.

    Returns one record per task, the set-up times and the last set-up
    state.  Set-up runs once before the tasks and again, timed, whenever
    ``SETUP_EVERY`` seconds have passed since the last one, so that its
    repeats sample the whole run and not one moment of it.  Tasks come in
    pairs on the same input (task ``i`` uses input ``i // 2``); with a
    tracer the second task of each pair runs traced, so traced and
    untraced tasks see the same inputs.  A task that raises, or whose check
    fails, is recorded as failed and the loop goes on.
    """
    from workloads import CheckFailed  # needs src/ on sys.path
    setup_times = []

    def set_up():
        start = time.perf_counter()
        new_state = setup()
        setup_times.append(time.perf_counter() - start)
        return new_state

    state = set_up()
    records = []
    deadline = time.perf_counter() + seconds
    next_setup = time.perf_counter() + SETUP_EVERY
    i = 0
    while i < 2 or i % 2 == 1 or time.perf_counter() < deadline:
        if time.perf_counter() >= next_setup:
            state = None  # free the old inputs before making new ones
            state = set_up()
            next_setup = time.perf_counter() + SETUP_EVERY
        key = i // 2
        traced = tracer is not None and i % 2 == 1
        rec = {"task": i, "input": key, "traced": traced, "ok": False,
               "incorrect": False, "reason": None, "measures": {}}
        if traced:
            tracer.task = i
            tracer.install(targets)
        start = time.perf_counter()
        try:
            out = (tracer.call("task", wl.task, state, key) if traced
                   else wl.task(state, key))
        except Exception as exc:  # a failing task must not end the run
            out = None
            rec["reason"] = f"{type(exc).__name__}: {exc}"
            traceback.print_exc()
        rec["seconds"] = time.perf_counter() - start
        if traced:
            tracer.uninstall()
            tracer.task = None
        if rec["reason"] is None:
            try:
                rec["measures"] = wl.check(state, key, out)
                rec["ok"] = True
            except CheckFailed as exc:
                rec["incorrect"] = True
                rec["reason"] = f"check: {exc}"
            except Exception as exc:  # e.g. a held-out solve that raised
                rec["reason"] = f"check raised {type(exc).__name__}: {exc}"
                traceback.print_exc()
        del out
        records.append(rec)
        i += 1
    return records, setup_times, state


def peak_bytes(wl, state):
    """Peak bytes one task allocates above the set-up state."""
    tracemalloc.start()
    try:
        try:
            wl.task(state, 0)
        except Exception:  # a failing task still has a peak
            pass
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def end_to_end(records, setup_times, peak):
    """All end-to-end figures of an untraced run, name -> (value, unit)."""
    ok = [r["measures"] for r in records if r["ok"]]
    iters = [k for m in ok for k in m["iters"]]
    f1 = [m["f1"] for m in ok if "f1" in m]
    nan = float("nan")
    values = {
        "task_s.p50": statistics.median(r["seconds"] for r in records),
        "iters.mean": statistics.fmean(iters) if iters else nan,
        "peak_mb": peak / 2 ** 20 if peak is not None else nan,
        "setup_s": statistics.median(setup_times),
        "wall_s": math.fsum(r["seconds"] for r in records),
        "fail_frac": sum(not r["ok"] for r in records) / len(records),
        "rel_err.max": max((m["rel_err"] for m in ok), default=nan),
        "fg_f1.min": min(f1) if f1 else nan,
    }
    return {name: (values[name], unit) for name, unit in END_TO_END + REPORT_ONLY}


def per_layer(records, spans, flop_shape):
    """All per-layer figures of a traced run, name -> (value, unit)."""
    traced = [r for r in records if r["traced"]]
    plain = [r for r in records if not r["traced"]]
    n = len(traced)
    agg = aggregate(spans, {r["task"] for r in traced})
    values = {}
    for layer, fields in LAYER_FIELDS:
        a = agg.get(layer, {"calls": 0, "s": 0.0, "self_s": 0.0, "failed": 0})
        for f in fields:
            values[f"{layer}.{f}"] = a[f] / n
    iters = sum(r["measures"].get("task_iters", 0) for r in traced)
    solve_self = agg.get("solver.solve", {}).get("self_s", 0.0)
    n1, n2, rank = flop_shape
    # The paper's per-iteration count, 3 n1 n2 r + 3 n1 n2, over the
    # solver's self time: a computed rate, not a hardware counter.
    flops = iters * (3 * n1 * n2 * rank + 3 * n1 * n2)
    values["solver.iters"] = iters / n
    values["solver.iter_ms"] = 1e3 * solve_self / iters if iters else 0.0
    values["solver.gflops"] = flops / solve_self / 1e9 if solve_self else 0.0
    traced_p50 = statistics.median(r["seconds"] for r in traced)
    plain_p50 = statistics.median(r["seconds"] for r in plain)
    values["trace.task_s.p50"] = traced_p50
    values["trace.overhead"] = 100.0 * (traced_p50 / plain_p50 - 1.0)
    return {name: (values[name], unit) for name, unit in PER_LAYER}


def shares(records, spans):
    """Self time of each span name as a share of traced task time."""
    tasks = {r["task"] for r in records if r["traced"]}
    agg = aggregate(spans, tasks)
    total = agg["task"]["s"]
    return {name: a["self_s"] / total for name, a in agg.items()}


def write_spans(path, spans, t0):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(["id", "name", "start_s", "end_s", "parent", "task", "failed"])
        for i, sp in enumerate(spans):
            out.writerow([i, sp.name, f"{sp.start - t0:.9f}", f"{sp.end - t0:.9f}",
                          "" if sp.parent is None else sp.parent,
                          "" if sp.task is None else sp.task, int(sp.failed)])


def print_table(title, rows):
    print(f"== {title}")
    for row in rows:
        print("   " + row)


def report_tasks(records):
    fails = {}
    for r in records:
        if not r["ok"]:
            kind = r["reason"].split(":", 1)[0]
            fails[kind] = fails.get(kind, 0) + 1
    rows = [f"attempted {len(records)}, failed {sum(fails.values())}"
            + "".join(f"; {k} x{v}" for k, v in sorted(fails.items())),
            "seconds: " + " ".join(f"{r['seconds']:.3f}" for r in records)]
    for r in records:
        if not r["ok"]:
            rows.append(f"task {r['task']} failed after {r['seconds']:.3f} s: "
                        f"{r['reason']}")
    print_table("tasks", rows)


def report_shares(wl, measured):
    rows = [f"{'layer':28s} {'self share':>10s}  {'predicted':>11s}  verdict"]
    for name in sorted(measured, key=measured.get, reverse=True):
        lo_hi = wl.predicted_shares.get(name)
        pred = f"{lo_hi[0]:5.0%}-{lo_hi[1]:<5.0%}" if lo_hi else "          -"
        verdict = ("" if lo_hi is None else
                   "as predicted" if lo_hi[0] <= measured[name] <= lo_hi[1]
                   else "DIFFERS")
        rows.append(f"{name:28s} {measured[name]:10.1%}  {pred:>11s}  {verdict}")
    for name in sorted(set(wl.predicted_shares) - set(measured)):
        lo, hi = wl.predicted_shares[name]
        verdict = "as predicted" if lo == 0 else "DIFFERS"
        rows.append(f"{name:28s} {'not called':>10s}  {lo:5.0%}-{hi:<5.0%}  {verdict}")
    print_table(f"{wl.name}: self time as a share of traced task time", rows)


def run_one(name, seed, seconds, trace):
    """Set up, measure and report one workload; return the JSON result."""
    from workloads import WORKLOADS, trace_targets  # needs src/ on sys.path
    wl = WORKLOADS[name]
    info = run_info(seed)
    print("run " + json.dumps({"workload": name, "seconds": seconds,
                               "trace": trace, **info}))
    workdir = os.path.join(ROOT, ".perfbench_work", f"{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        tracer = Tracer() if trace else None
        t0 = time.perf_counter()
        records, setup_times, state = run_tasks(
            wl, lambda: wl.setup(seed, workdir), seconds, tracer, trace_targets())
        peak = None if trace else peak_bytes(wl, state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report_tasks(records)
    e2e = end_to_end(records, setup_times, peak)
    print_table(f"{name}: end to end ({len(records)} tasks, "
                f"setup x{len(setup_times)})",
                [f"{k:14s} {v:.6g} {u}" for k, (v, u) in e2e.items()])
    if trace:
        metrics = per_layer(records, tracer.spans, wl.flop_shape)
        print_table(f"{name}: per layer, per traced task "
                    f"({sum(r['traced'] for r in records)} traced)",
                    [f"{k:34s} {v:.6g} {u}" for k, (v, u) in metrics.items()])
        measured = shares(records, tracer.spans)
        report_shares(wl, measured)
        out_dir = os.path.join(ROOT, ".perfbench_out")
        os.makedirs(out_dir, exist_ok=True)
        stem = os.path.join(out_dir, f"{name}-seed{seed}")
        write_spans(stem + "-spans.csv", tracer.spans, t0)
        with open(stem + "-summary.json", "w", encoding="utf-8") as fh:
            json.dump({"run": info, "workload": name,
                       "end_to_end": {k: v for k, (v, _) in e2e.items()},
                       "per_layer": {k: v for k, (v, _) in metrics.items()},
                       "shares": measured,
                       "predicted_shares": wl.predicted_shares,
                       "tasks": [{k: r[k] for k in ("task", "traced", "ok",
                                                    "reason", "seconds")}
                                 for r in records]}, fh, indent=1)
        print(f"spans written to {stem}-spans.csv")
    else:
        metrics = {k: e2e[k] for k, _ in END_TO_END}
    bad = [k for k, (v, _) in metrics.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"metrics undefined in this run: {', '.join(bad)}")
    return {"correct": not any(r["incorrect"] for r in records),
            "attempted": len(records),
            "failed": sum(not r["ok"] for r in records),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not os.path.isdir(os.path.join(SRC, "lrpca")):
        print(f"error: no lrpca sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        try:
            result = run_one(name, args.seed, args.seconds, args.trace)
        except RuntimeError as exc:  # e.g. every clip failed: no iters.mean
            print(f"error: {name}: {exc}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps(result), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
