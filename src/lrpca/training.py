"""Parameter learning for the unrolled solver.

Training happens in two phases.  Layer-wise (curriculum) training runs K+1
stages; stage k minimizes the mean squared reconstruction error after k
iterations,

    E || L_k(Y, theta) R_k(Y, theta)^T - X_star ||_F^2,

by stochastic gradient descent with batch size one (a fresh instance per
step) and central finite-difference gradients over the scalar parameters.
All parameters that influence the stage output stay trainable at every
stage.  The second phase fixes the learned per-iteration parameters and
grid-searches the geometric tail factors (beta, phi) to minimize the same
loss after K_bar > K iterations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LrpcaError, TrainingDiverged
from .schedule import ParamSchedule
from .solver import _soft_step, spectral_init

__all__ = ["TrainConfig", "stage_loss", "layerwise_train", "grid_search_tail",
           "train_schedule"]


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the two training phases."""

    K: int = 10
    K_bar: int = 15
    sgd_steps_per_stage: int = 15
    learning_rate: float = 0.1
    fd_epsilon: float = 1e-5
    grid: tuple = (0.1, 1.0, 0.1)  # (min, max, step) for both beta and phi
    seed: int = 0
    init_eta: float = 0.65
    init_decay: float = 0.65

    def __post_init__(self):
        if self.K < 0 or self.K_bar < self.K:
            raise ValueError("need 0 <= K <= K_bar")
        if self.grid[2] <= 0:
            raise ValueError("grid step must be > 0")
        if self.fd_epsilon <= 0:
            raise ValueError("fd_epsilon must be > 0")

    def grid_values(self):
        lo, hi, step = self.grid
        vals = []
        v = lo
        while v <= hi + 1e-12:
            vals.append(round(v, 12))
            v += step
        return vals


def _advance(factors, Y, theta, j0, k):
    """Factors after each of the iterations j0..k from ``factors``.

    Only the factors carry state from one iteration to the next: the soft
    threshold reads ``Y - L R^T``, never the previous S.
    """
    states = []
    for j in range(j0, k + 1):
        zeta, eta = theta.at(j)
        factors = _soft_step(Y, factors, zeta, eta)
        states.append(factors)
    return states


def _forward(theta, inst, k):
    """``(X, factors)`` after k iterations of the unrolled solver on one
    instance."""
    init = spectral_init(inst.Y, inst.r, theta.zeta0, seed=inst.seed)
    states = _advance(init.factors, inst.Y, theta, 1, k)
    factors = states[-1] if states else init.factors
    return factors.product(), factors


def stage_loss(theta, k, batch):
    """Mean of ``||L_k R_k^T - X_star||_F^2`` over a batch of instances."""
    if not batch:
        raise ValueError("batch must be nonempty")
    total = 0.0
    for inst in batch:
        X, _ = _forward(theta, inst, k)
        total += float(np.linalg.norm(X - inst.X_star) ** 2)
    return total / len(batch)


def _initial_schedule(source, cfg):
    # Scale the threshold profile off one probe observation; the decay shape
    # mirrors the geometric error contraction of the underlying iteration.
    probe = source.instance(0)
    z0 = 0.5 * float(np.abs(probe.Y).max())
    zetas = tuple(z0 * cfg.init_decay ** k for k in range(cfg.K + 1))
    etas = tuple(cfg.init_eta for _ in range(cfg.K))
    return ParamSchedule(zetas=zetas, etas=etas, beta=1.0, phi=1.0)


def _norm_loss(X, inst):
    scale = float(np.linalg.norm(inst.X_star) ** 2)
    return float(np.linalg.norm(X - inst.X_star) ** 2) / max(scale, 1e-300)


def _perturbed(theta, idx, value):
    """Schedule with one scalar replaced; idx < K+1 addresses zeta_idx,
    otherwise eta_{idx-K}."""
    if idx <= theta.K:
        zetas = list(theta.zetas)
        zetas[idx] = max(value, 0.0)
        return theta.replace(zetas=tuple(zetas))
    etas = list(theta.etas)
    etas[idx - theta.K - 1] = value
    return theta.replace(etas=tuple(etas))


def _param_value(theta, idx):
    return theta.zetas[idx] if idx <= theta.K else theta.etas[idx - theta.K - 1]


def _param_iteration(theta, idx):
    """First solver iteration the parameter influences (0 = initialization)."""
    return idx if idx <= theta.K else idx - theta.K


class _StepContext:
    """Center trajectory for one SGD step.

    A probe of the parameter acting at iteration j shares the center prefix
    up to iteration j-1, so only iterations j..k are recomputed.  The
    spectral initialization is cached per distinct zeta_0 value.
    """

    def __init__(self, theta, inst, k):
        self.theta = theta
        self.inst = inst
        self.k = k
        self.init_cache = {}
        init = self._init_state(theta.zeta0)
        self.states = [init.factors]
        self.states += _advance(init.factors, inst.Y, theta, 1, k)
        self.center_loss = _norm_loss(self.states[-1].product(), inst)

    def _init_state(self, zeta0):
        state = self.init_cache.get(zeta0)
        if state is None:
            state = spectral_init(self.inst.Y, self.inst.r, zeta0,
                                  seed=self.inst.seed)
            self.init_cache[zeta0] = state
        return state

    def probe_loss(self, cand, idx):
        j0 = max(_param_iteration(cand, idx), 1)
        if idx == 0:
            factors = self._init_state(cand.zeta0).factors
        else:
            factors = self.states[j0 - 1]
        states = _advance(factors, self.inst.Y, cand, j0, self.k)
        return _norm_loss((states[-1] if states else factors).product(),
                          self.inst)


def _fd_gradient(ctx, idx, h):
    """Central finite difference, falling back to a one-sided estimate when
    a probe leaves the feasible region or fails to evaluate."""
    theta = ctx.theta
    val = _param_value(theta, idx)
    lo_val = val - h
    if idx <= theta.K and lo_val < 0.0:
        lo_val = 0.0

    def probe(v):
        try:
            loss = ctx.probe_loss(_perturbed(theta, idx, v), idx)
        except LrpcaError:
            return None
        return loss if math.isfinite(loss) else None

    f_center = ctx.center_loss
    f_hi = probe(val + h)
    f_lo = probe(lo_val) if lo_val != val else f_center
    if f_hi is not None and f_lo is not None and val + h != lo_val:
        return (f_hi - f_lo) / (val + h - lo_val)
    if f_hi is not None:
        return (f_hi - f_center) / h
    if f_lo is not None and val != lo_val:
        return (f_center - f_lo) / (val - lo_val)
    return 0.0


def layerwise_train(source, cfg, callback=None):
    """Phase one: curriculum training of the per-iteration parameters.

    Returns a :class:`ParamSchedule` with ``beta = phi = 1`` (the tail is
    fit separately by :func:`grid_search_tail`).  ``callback(stage, step,
    loss)``, when given, observes the per-step training loss.

    Raises
    ------
    TrainingDiverged
        If the training loss becomes NaN/Inf at some stage.
    """
    theta = _initial_schedule(source, cfg)
    counter = 1  # instance 0 was the probe
    lr = cfg.learning_rate
    h = cfg.fd_epsilon
    for stage in range(cfg.K + 1):
        # zeta_0..zeta_stage and eta_1..eta_stage influence the stage output.
        active = list(range(stage + 1)) + [cfg.K + 1 + j for j in range(stage)]
        for step in range(cfg.sgd_steps_per_stage):
            inst = source.instance(counter)
            counter += 1
            try:
                ctx = _StepContext(theta, inst, stage)
            except LrpcaError as exc:
                raise TrainingDiverged(stage, f"stage {stage}: {exc}") from exc
            if not math.isfinite(ctx.center_loss):
                raise TrainingDiverged(stage)
            grads = [_fd_gradient(ctx, idx, h) for idx in active]
            for idx, g in zip(active, grads):
                val = _param_value(theta, idx)
                update = lr * g
                # Trust cap: no parameter moves more than 25% of its own
                # scale per step, which keeps the raw-gradient magnitudes
                # from different stages comparable.
                cap = 0.25 * max(abs(val), 1e-4)
                update = float(np.clip(update, -cap, cap))
                theta = _perturbed(theta, idx, val - update)
            if callback is not None:
                callback(stage, step, ctx.center_loss)
    return theta


def grid_search_tail(theta, dataset, cfg, jobs=1):
    """Phase two: exhaustive (beta, phi) search for the geometric tail.

    Evaluates the mean squared reconstruction error after ``cfg.K_bar``
    iterations for every grid pair and returns the schedule with the
    minimizing pair; ties break toward smaller phi, then smaller beta.
    Grid points are independent and evaluate on ``jobs`` worker threads;
    the tie-break order is fixed regardless of scheduling.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    K, K_bar = theta.K, cfg.K_bar
    # The first K iterations do not depend on (beta, phi); cache them.
    cached = [(inst, _forward(theta, inst, K)[1]) for inst in dataset]

    def tail_loss(pair):
        beta, phi = pair
        cand = theta.replace(beta=beta, phi=phi)
        total = 0.0
        for inst, factors in cached:
            states = _advance(factors, inst.Y, cand, K + 1, K_bar)
            X_final = (states[-1] if states else factors).product()
            total += float(np.linalg.norm(X_final - inst.X_star) ** 2)
        return total / len(cached)

    pairs = [(beta, phi) for phi in cfg.grid_values()
             for beta in cfg.grid_values()]
    if jobs > 1:
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            losses = list(pool.map(tail_loss, pairs))
    else:
        losses = [tail_loss(pair) for pair in pairs]
    _, phi, beta = min((loss, phi, beta)
                       for (beta, phi), loss in zip(pairs, losses))
    return theta.replace(beta=beta, phi=phi)


def train_schedule(source, cfg, grid_instances=20, callback=None):
    """Run both phases; returns the complete schedule.

    The grid phase uses ``grid_instances`` fresh instances drawn after the
    ones consumed by SGD.
    """
    theta = layerwise_train(source, cfg, callback=callback)
    start = 1 + (cfg.K + 1) * cfg.sgd_steps_per_stage
    dataset = source.batch(start, grid_instances)
    return grid_search_tail(theta, dataset, cfg)
