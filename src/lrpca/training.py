"""Parameter learning for the unrolled solver.

Training happens in two phases.  Layer-wise (curriculum) training runs K+1
stages; stage k minimizes the mean squared reconstruction error after k
iterations,

    E || L_k(Y, theta) R_k(Y, theta)^T - X_star ||_F^2,

by stochastic gradient descent with batch size one (a fresh instance per
step) and gradients by backpropagation through the unrolled layers (deep
unfolding): one forward pass keeps the factors entering every layer, and one
backward sweep gives the gradients in every threshold and step size that
acts on the stage output.  Only ``zeta_0``, which acts through the initial
SVD, takes central finite differences.  The second phase fixes the learned
per-iteration parameters and grid-searches the geometric tail factors
(beta, phi) to minimize the same loss after K_bar > K iterations.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import LrpcaError, TrainingDiverged
from .schedule import ParamSchedule
from .solver import _soft_backward, _soft_step, spectral_init

__all__ = ["TrainConfig", "stage_loss", "layerwise_train", "grid_search_tail",
           "train_schedule"]

# Finite-difference step for zeta_0, in the units of Y.
_ZETA0_STEP = 1e-5


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the two training phases."""

    K: int = 10
    K_bar: int = 15
    sgd_steps_per_stage: int = 15
    learning_rate: float = 0.1
    grid: tuple = (0.1, 1.0, 0.1)  # (min, max, step) for both beta and phi
    init_eta: float = 0.65
    init_decay: float = 0.65

    def __post_init__(self):
        if self.K < 0 or self.K_bar < self.K:
            raise ValueError("need 0 <= K <= K_bar")
        if self.grid[2] <= 0:
            raise ValueError("grid step must be > 0")

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
    """Factors of the unrolled solver on one instance: the init's, then
    those after each of the first k iterations."""
    init = spectral_init(inst.Y, inst.r, theta.zeta0, seed=inst.seed)
    return [init.factors] + _advance(init.factors, inst.Y, theta, 1, k)


def stage_loss(theta, k, batch):
    """Mean of ``||L_k R_k^T - X_star||_F^2`` over a batch of instances."""
    if not batch:
        raise ValueError("batch must be nonempty")
    total = 0.0
    for inst in batch:
        X = _forward(theta, inst, k)[-1].product()
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


def _fd_zeta0(theta, inst, k, center):
    """Derivative of the stage-k loss in zeta_0, which acts through the init
    SVD: central differences over two inits and replays, one-sided where
    zeta_0 - h would leave [0, inf) or a probe fails to evaluate."""
    z0, h = theta.zeta0, _ZETA0_STEP

    def probe(v):
        cand = theta.replace(zetas=(v,) + theta.zetas[1:])
        try:
            loss = _norm_loss(_forward(cand, inst, k)[-1].product(), inst)
        except LrpcaError:
            return None
        return loss if math.isfinite(loss) else None

    hi, lo = z0 + h, max(z0 - h, 0.0)
    f_hi, f_lo = probe(hi), (probe(lo) if lo != z0 else center)
    if f_hi is None:
        hi, f_hi = z0, center
    if f_lo is None:
        lo, f_lo = z0, center
    return (f_hi - f_lo) / (hi - lo) if hi != lo else 0.0


def _stage_gradient(theta, inst, k):
    """``(loss, zeta_grad, eta_grad)`` of the normalized stage-k loss.

    The backward sweep starts from ``X_bar = 2 (L_k R_k^T - X_star) /
    ||X_star||^2`` and runs through :func:`~lrpca.solver._soft_backward` for
    layers k..1; zeta_0 comes from :func:`_fd_zeta0`.  Parameters past
    iteration k get zero.
    """
    states = _forward(theta, inst, k)
    X = states[-1].product()
    loss = _norm_loss(X, inst)
    X_bar = np.subtract(X, inst.X_star, out=X)
    X_bar *= 2.0 / max(float(np.linalg.norm(inst.X_star) ** 2), 1e-300)
    L_bar, R_bar = X_bar @ states[-1].R, X_bar.T @ states[-1].L
    zeta_grad, eta_grad = np.zeros(theta.K + 1), np.zeros(theta.K)
    for j in range(k, 0, -1):
        zeta, eta = theta.at(j)
        f = states[j - 1]
        L_bar, R_bar, zeta_grad[j], eta_grad[j - 1] = _soft_backward(
            inst.Y, f.L, f.R, zeta, eta, L_bar, R_bar)
    zeta_grad[0] = _fd_zeta0(theta, inst, k, loss)
    return loss, zeta_grad, eta_grad


def _capped_step(values, grad, lr, floor):
    # Trust cap: no parameter moves more than 25% of its own scale per
    # step, which keeps the raw-gradient magnitudes from different stages
    # comparable.
    cap = 0.25 * np.maximum(np.abs(values), floor)
    return values - np.clip(lr * grad, -cap, cap)


def layerwise_train(source, cfg, callback=None):
    """Phase one: curriculum training of the per-iteration parameters.

    Returns a :class:`ParamSchedule` with ``beta = phi = 1`` (the tail is
    fit separately by :func:`grid_search_tail`).  ``callback(stage, step,
    loss)``, when given, observes the per-step training loss.

    Raises
    ------
    TrainingDiverged
        If the training loss or its gradient becomes NaN/Inf at some stage.
    """
    theta = _initial_schedule(source, cfg)
    counter = 1  # instance 0 was the probe
    lr = cfg.learning_rate
    for stage in range(cfg.K + 1):
        for step in range(cfg.sgd_steps_per_stage):
            inst = source.instance(counter)
            counter += 1
            try:
                loss, g_zeta, g_eta = _stage_gradient(theta, inst, stage)
            except LrpcaError as exc:
                raise TrainingDiverged(stage, f"stage {stage}: {exc}") from exc
            if not np.isfinite(np.r_[loss, g_zeta, g_eta]).all():
                raise TrainingDiverged(stage)
            # Thresholds may reach 0 but not cross it; the step-size cap has
            # no floor, so every eta stays above 3/4 of its value.
            zetas = np.maximum(_capped_step(np.array(theta.zetas), g_zeta,
                                            lr, 1e-4), 0.0)
            etas = _capped_step(np.array(theta.etas), g_eta, lr, 0.0)
            theta = theta.replace(zetas=tuple(zetas), etas=tuple(etas))
            if callback is not None:
                callback(stage, step, loss)
    return theta


def grid_search_tail(theta, dataset, cfg):
    """Phase two: exhaustive (beta, phi) search for the geometric tail.

    Evaluates the mean squared reconstruction error after ``cfg.K_bar``
    iterations for every grid pair and returns the schedule with the
    minimizing pair; ties break toward smaller phi, then smaller beta.
    """
    if not dataset:
        raise ValueError("dataset must be nonempty")
    K, K_bar = theta.K, cfg.K_bar
    # The first K iterations do not depend on (beta, phi); cache them.
    cached = [(inst, _forward(theta, inst, K)[-1]) for inst in dataset]

    def tail_loss(beta, phi):
        cand = theta.replace(beta=beta, phi=phi)
        total = 0.0
        for inst, factors in cached:
            states = _advance(factors, inst.Y, cand, K + 1, K_bar)
            X_final = (states[-1] if states else factors).product()
            total += float(np.linalg.norm(X_final - inst.X_star) ** 2)
        return total / len(cached)

    grid = cfg.grid_values()
    _, phi, beta = min((tail_loss(beta, phi), phi, beta)
                       for phi in grid for beta in grid)
    return theta.replace(beta=beta, phi=phi)


def train_schedule(source, cfg, grid_instances=20, callback=None):
    """Run both phases; returns the complete schedule.

    The grid phase uses ``grid_instances`` fresh instances drawn after the
    ones consumed by SGD.  ``callback`` is passed to
    :func:`layerwise_train`.
    """
    theta = layerwise_train(source, cfg, callback=callback)
    start = 1 + (cfg.K + 1) * cfg.sgd_steps_per_stage
    dataset = source.batch(start, grid_instances)
    return grid_search_tail(theta, dataset, cfg)
