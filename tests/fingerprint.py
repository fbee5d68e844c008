"""One sha256 over the outputs of a fixed set of runs.

Run it against a checkout's source and compare the digests:

    PYTHONPATH=src python tests/fingerprint.py

It imports ``lrpca`` from ``PYTHONPATH``, so the same script checks a
second checkout (a ``git worktree`` or a clone of another commit) by
pointing ``PYTHONPATH`` at that checkout's ``src``.  Two digests compare
only on one machine, numpy/BLAS build and BLAS thread count: across thread
counts the last bits of every solve differ.

The runs:

- ``solve`` on six shapes, one of them an exact zero and one of rank
  below r, in float64 and float32, in every stop mode, at ``max_iters``
  0, 1 and 25, with a geometric ``ParamSchedule``, a ``FixedSchedule``
  with truth, ``FixedSchedule(1e9, 0.5)`` (nothing thresholded) and
  ``OracleSchedule(0.5)``;
- ``solve_scaledgd`` on the same inputs, stop rules and caps;
- ``background_subtract`` on four blob scenes, float64 and float32, at
  r = 1 and 2, in its default stop rule and under ``residual_rel``;
- one small ``train_schedule`` run, with its training log.

Each run adds its outputs to the hash: every array's dtype, shape and
bytes, the trace's thresholds, step sizes, residuals, errors and stop
reason (not its wall times), or the class and message of the error it
raised.  The script prints the digest and the number of runs.
"""

import hashlib
import itertools
import struct
import sys

import numpy as np

import lrpca
from lrpca import (FixedSchedule, FrameSequence, InstanceSource,
                   OracleSchedule, ParamSchedule, StopRule, TrainConfig,
                   background_subtract, gen_instance, moving_blob_scene,
                   solve, solve_scaledgd, train_schedule)

SHAPES = [(300, 200, 3), (500, 500, 5), (2400, 60, 1), (60, 2400, 1),
          (12, 12, 2), (400, 40, 2)]
MODES = ("residual_rel", "iterate_change", "fixed_iters")
CAPS = (0, 1, 25)


class Digest:
    def __init__(self):
        self.h = hashlib.sha256()
        self.runs = 0

    def add(self, *items):
        for item in items:
            if isinstance(item, np.ndarray):
                self.h.update(f"{item.dtype}{item.shape}".encode())
                self.h.update(np.ascontiguousarray(item).tobytes())
            elif isinstance(item, float):
                self.h.update(struct.pack("<d", item))
            else:
                self.h.update(repr(item).encode())

    def trace(self, trace):
        self.add(trace.stop_reason, trace.iterations, *trace.zetas,
                 *trace.etas, *trace.residuals, *trace.rel_errs)

    def run(self, label, call):
        """Hash ``call()``'s ``(arrays..., trace)`` or the error it raised."""
        self.runs += 1
        self.add(label)
        try:
            *arrays, trace = call()
        except lrpca.LrpcaError as exc:
            self.add(type(exc).__name__, str(exc))
            return
        self.add(*arrays)
        self.trace(trace)


def inputs():
    """``(label, Y, truth, r)`` per shape and dtype."""
    for n1, n2, r in SHAPES:
        inst = gen_instance(n1, n2, r, 0.1, 3)
        yield f"{n1}x{n2}", inst.Y, inst.X_star, r
    # An exact zero, and a rank-1 matrix solved at r = 2.
    yield "zero", np.zeros((40, 30)), np.zeros((40, 30)), 2
    u = np.linspace(1.0, 2.0, 50)
    low = np.outer(u, u[:40])
    yield "rank1", low, low, 2


def solves(d):
    for (label, Y, truth, r), dtype in itertools.product(
            list(inputs()), (np.float64, np.float32)):
        Yd = Y.astype(dtype)
        peak = float(np.abs(Y).max())
        sources = [
            ("param", ParamSchedule(zetas=tuple(0.5 * peak * 0.7 ** k
                                                for k in range(5)),
                                    etas=(0.5,) * 4, beta=0.6, phi=0.8)),
            ("fixed", FixedSchedule(0.3 * peak, 0.5)),
            ("above", FixedSchedule(1e9, 0.5)),
            ("oracle", OracleSchedule(0.5)),
        ]
        for mode, cap in itertools.product(MODES, CAPS):
            stop = StopRule(mode, 1e-6, cap)
            for name, theta in sources:
                d.run((label, dtype.__name__, mode, cap, name),
                      lambda: solve(Yd, r, theta, stop, truth=truth, seed=1))
            d.run((label, dtype.__name__, mode, cap, "scaledgd"),
                  lambda: solve_scaledgd(Yd, r, 0.2, 0.5, stop, truth=truth,
                                         seed=1))


def videos(d):
    for phase, dtype, r, stop in itertools.product(
            ((3, 2), (5, 7)), (np.float64, np.float32), (1, 2),
            (None, StopRule("residual_rel", 1e-5, 40))):
        seq, _ = moving_blob_scene(phase=phase)
        seq = FrameSequence(seq.matrix.astype(dtype), seq.height, seq.width)
        theta = ParamSchedule(zetas=(0.5, 0.3, 0.2), etas=(0.5, 0.5),
                              beta=0.7, phi=0.9)
        kwargs = {} if stop is None else {"stop": stop}

        def run():
            bg, fg, trace = background_subtract(seq, r, theta, seed=1,
                                                **kwargs)
            return bg.matrix, fg.matrix, trace

        d.run(("bgsub", phase, dtype.__name__, r, stop), run)


def training(d):
    log = []
    cfg = TrainConfig(K=3, K_bar=5, sgd_steps_per_stage=3,
                      grid=(0.2, 1.0, 0.4))
    theta = train_schedule(InstanceSource(60, 50, 2, 0.1, 4), cfg,
                           grid_instances=2,
                           callback=lambda *row: log.append(row))
    d.runs += 1
    d.add("train", *theta.zetas, *theta.etas, theta.beta, theta.phi, log)


def main():
    d = Digest()
    solves(d)
    videos(d)
    training(d)
    print(f"{d.h.hexdigest()}  {d.runs} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
