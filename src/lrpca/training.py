"""Parameter learning for the unrolled solver.

Training happens in two phases.  Layer-wise (curriculum) training runs K+1
stages; stage k minimizes the mean squared reconstruction error after k
iterations,

    E || L_k(Y, theta) R_k(Y, theta)^T - X_star ||_F^2,

by stochastic gradient descent with batch size one (a fresh instance per
step) and gradients by backpropagation through the unrolled layers (deep
unfolding): one forward pass keeps the factors entering every layer, and one
backward sweep gives the gradients in every threshold and step size that
acts on the stage output; for ``zeta_0``, which acts through the init SVD,
the sweep's adjoints of the init's factors meet their forward-mode tangent
(:func:`~lrpca.solver.spectral_init` with ``tangent``).  The second phase
fixes the learned per-iteration parameters and picks the geometric tail
factors (beta, phi) from a grid to minimize the same loss after K_bar > K
iterations, by a branch-and-bound search that returns the pair an
exhaustive one would.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidInput, LrpcaError, TrainingDiverged
from .schedule import ParamSchedule
from .solver import _Scratch, _soft_backward, _soft_step, spectral_init
from .validation import check_count, check_positive, check_values

__all__ = ["TrainConfig", "layerwise_train", "grid_search_tail",
           "train_schedule"]

# Step size and per-iteration threshold decay of the schedule SGD starts from.
_INIT_ETA = 0.65
_INIT_DECAY = 0.65

# Instances the tail grid search averages over, by default.
_GRID_INSTANCES = 20


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for the two training phases."""

    K: int = 10
    K_bar: int = 15
    sgd_steps_per_stage: int = 15
    learning_rate: float = 0.1
    grid: tuple = (0.1, 1.0, 0.1)  # (min, max, step) for both beta and phi

    def __post_init__(self):
        for name in ("K", "K_bar", "sgd_steps_per_stage"):
            check_count(getattr(self, name), name, 0)
        if self.K > self.K_bar or self.K == 0 < self.K_bar:
            raise InvalidInput(f"need K_bar >= K >= 1 or K = K_bar = 0, got "
                               f"K={self.K}, K_bar={self.K_bar}")
        check_positive(self.learning_rate, "learning_rate")
        # Every grid value, rounded as grid_values rounds it, becomes a tail
        # factor, which must be finite and > 0.
        lo, hi, step = check_values(self.grid, "grid", 3)
        for v, name in ((lo, "min"), (hi, "max"), (step, "step")):
            check_positive(v, f"grid {name}")
        if not 0 < round(lo, 12) <= hi:
            raise InvalidInput(f"grid {self.grid} needs 0 < min <= max, "
                               "step > 0, finite")
        count = self._grid_count()
        if count > 1000:  # the tail search may evaluate every pair of values
            raise InvalidInput(f"grid {self.grid} has {count:.0f} values per "
                               "axis, more than 1000")

    def grid_values(self):
        """``min + i * step`` for every i that stays within ``max``, rounded
        to 12 digits; indexing by i keeps float error from accumulating."""
        lo, _, step = self.grid
        return [round(lo + i * step, 12) for i in range(int(self._grid_count()))]

    def _grid_count(self):  # a float: inf for a step too small to count by
        lo, hi, step = self.grid
        return np.floor((hi - lo) / step + 1e-9) + 1


def _check_config(cfg):
    if not isinstance(cfg, TrainConfig):
        raise InvalidInput(f"cfg must be a TrainConfig, got {type(cfg).__name__}")


def _advance(factors, Y, theta, j0, k, scratch):
    """The factors after the iterations j0..k from ``factors``, whose
    passes share the slab buffers ``scratch``.

    Only the factors carry state from one iteration to the next: the soft
    threshold reads ``Y - L R^T``, never the previous S.
    """
    for j in range(j0, k + 1):
        zeta, eta = theta.at(j)
        factors = _soft_step(Y, factors, zeta, eta, scratch)[0]
    return factors


def _initial_schedule(source, cfg):
    # Scale the threshold profile off one probe observation; the decay shape
    # mirrors the geometric error contraction of the underlying iteration.
    probe = source.instance(0)
    z0 = 0.5 * float(np.abs(probe.Y).max())
    if not math.isfinite(z0):
        raise TrainingDiverged(0, "stage 0: the probe observation is not finite")
    zetas = tuple(z0 * _INIT_DECAY ** k for k in range(cfg.K + 1))
    etas = (_INIT_ETA,) * cfg.K
    return ParamSchedule(zetas=zetas, etas=etas, beta=1.0, phi=1.0)


def _stage_gradient(theta, inst, k, scratch):
    """``(loss, zeta_grad, eta_grad)`` of the normalized stage-k loss.

    The backward sweep starts from ``X_bar = 2 (L_k R_k^T - X_star) /
    ||X_star||^2`` and runs through :func:`~lrpca.solver._soft_backward` for
    layers k..1.  Its adjoints ``(L_bar_0, R_bar_0)`` of the init's factors
    give ``zeta_bar_0 = <L_bar_0, dL_0> + <R_bar_0, dR_0>`` with the init's
    tangent in zeta_0.  Parameters past iteration k get zero.  The forward
    pass keeps each layer's input factors and Gram solvers, which its
    backward layer reuses, and both passes share the slab buffers
    ``scratch``.
    """
    init, d_init = spectral_init(inst.Y, inst.r, theta.zeta0, seed=inst.seed,
                                 tangent=True)
    states, grams = [init.factors], []
    del init  # S_0 is not needed past the init
    for j in range(1, k + 1):
        zeta, eta = theta.at(j)
        new, solvers = _soft_step(inst.Y, states[-1], zeta, eta, scratch)
        states.append(new)
        grams.append(solvers)
    scale = max(float(np.linalg.norm(inst.X_star) ** 2), 1e-300)
    X = states[-1].product()
    X_bar = np.subtract(X, inst.X_star, out=X)
    loss = float(np.linalg.norm(X_bar) ** 2) / scale
    X_bar *= 2.0 / scale
    L_bar, R_bar = X_bar @ states[-1].R, X_bar.T @ states[-1].L
    zeta_grad, eta_grad = np.zeros(theta.K + 1), np.zeros(theta.K)
    for j in range(k, 0, -1):
        zeta, eta = theta.at(j)
        f = states[j - 1]
        L_bar, R_bar, zeta_grad[j], eta_grad[j - 1] = _soft_backward(
            inst.Y, f.L, f.R, zeta, eta, L_bar, R_bar, scratch, grams[j - 1])
    zeta_grad[0] = float(np.vdot(L_bar, d_init.L) + np.vdot(R_bar, d_init.R))
    return loss, zeta_grad, eta_grad


def _capped_step(values, grad, lr, floor):
    # Trust cap: no parameter moves more than 25% of its own scale per
    # step, which keeps the raw-gradient magnitudes from different stages
    # comparable.
    cap = 0.25 * np.maximum(np.abs(values), floor)
    return values - np.clip(lr * grad, -cap, cap)


def layerwise_train(source, cfg, callback=None):
    """Phase one: curriculum training of the per-iteration parameters.

    ``source`` is any object whose ``instance(i)`` returns the i-th
    :class:`~lrpca.synth.ProblemInstance`, such as an
    :class:`~lrpca.synth.InstanceSource`; instance 0 is the probe that sets
    the starting schedule and SGD step ``j`` of the run reads instance
    ``1 + j``.

    Returns a :class:`ParamSchedule` with ``beta = phi = 1`` (the tail is
    fit separately by :func:`grid_search_tail`).  ``callback(stage, step,
    loss, grad_norm)``, when given, observes each SGD step's training loss
    and the norm of its gradient in all the thresholds and step sizes.

    Raises
    ------
    TrainingDiverged
        If the training loss or its gradient becomes NaN/Inf at some stage.
    """
    _check_config(cfg)
    theta = _initial_schedule(source, cfg)
    counter = 1  # instance 0 was the probe
    lr = cfg.learning_rate
    scratch = _Scratch()  # one set of slab buffers for the whole run
    for stage in range(cfg.K + 1):
        for step in range(cfg.sgd_steps_per_stage):
            inst = source.instance(counter)
            counter += 1
            try:
                loss, g_zeta, g_eta = _stage_gradient(theta, inst, stage,
                                                      scratch)
            except LrpcaError as exc:
                raise TrainingDiverged(stage, f"stage {stage}: {exc}") from exc
            grad = np.r_[g_zeta, g_eta]
            if not np.isfinite(np.r_[loss, grad]).all():
                raise TrainingDiverged(stage)
            # Thresholds may reach 0 but not cross it; the step-size cap has
            # no floor, so every eta stays above 3/4 of its value.
            zetas = np.maximum(_capped_step(np.array(theta.zetas), g_zeta,
                                            lr, 1e-4), 0.0)
            etas = _capped_step(np.array(theta.etas), g_eta, lr, 0.0)
            theta = replace(theta, zetas=tuple(zetas), etas=tuple(etas))
            if callback is not None:
                callback(stage, step, loss, float(np.linalg.norm(grad)))
    return theta


def grid_search_tail(theta, dataset, cfg):
    """Phase two: exact branch-and-bound (beta, phi) search for the tail.

    ``dataset`` is any iterable of :class:`~lrpca.synth.ProblemInstance`,
    read once: a list, or a generator that makes each instance as it is
    read.  Of each instance the search keeps ``Y``, ``X_star`` and the
    init's factors, then the factors after the first K iterations; with a
    generator, an instance's ``S_star`` is freed once the next one is read.

    Returns the schedule whose grid pair minimizes the mean squared
    reconstruction error after ``cfg.K_bar`` iterations; ties break toward
    smaller phi, then smaller beta, and a pair whose mean is not finite
    never wins.  Every pair runs on the first instance; then, in order of
    that first loss, each pair adds its other instances' losses in dataset
    order and is dropped once its partial mean exceeds the best complete
    one.  The losses are ``>= 0`` and a rounded sum of them never falls, so
    a dropped pair could not have won, and a complete pair's sum is the one
    a search of every pair on every instance adds up: the result is the
    same.

    Raises
    ------
    InvalidInput
        If ``dataset`` yields no instance.
    TrainingDiverged
        If no grid pair has a finite mean loss.
    """
    _check_config(cfg)
    K, K_bar = theta.K, cfg.K_bar
    # Every init runs before the first pass allocates the run's one set of
    # slab buffers, so the two never add up in memory.
    inits = [(inst.Y, inst.X_star,
              spectral_init(inst.Y, inst.r, theta.zeta0, seed=inst.seed).factors)
             for inst in dataset]
    if not inits:
        raise InvalidInput("dataset must be nonempty")
    scratch = _Scratch()
    # The first K iterations do not depend on (beta, phi); cache them.
    cached = [(Y, X_star, _advance(f, Y, theta, 1, K, scratch))
              for Y, X_star, f in inits]
    del inits

    def tail_loss(cand, Y, X_star, factors):
        X_final = _advance(factors, Y, cand, K + 1, K_bar, scratch).product()
        X_final -= X_star
        return float(np.linalg.norm(X_final) ** 2)

    grid = cfg.grid_values()
    first = [(tail_loss(replace(theta, beta=beta, phi=phi), *cached[0]),
              phi, beta) for phi in grid for beta in grid]
    n = len(cached)
    best = (math.inf,) * 3  # (mean, phi, beta) of the best complete pair
    for total, phi, beta in sorted(p for p in first if math.isfinite(p[0])):
        cand = replace(theta, beta=beta, phi=phi)
        for held in cached[1:]:
            if not total / n <= best[0]:
                break  # the sum only grows (or is NaN): this pair cannot win
            total += tail_loss(cand, *held)
        else:
            key = (total / n, phi, beta)
            if math.isfinite(key[0]) and key < best:
                best = key
    if best[0] == math.inf:
        raise TrainingDiverged(cfg.K_bar, f"stage {cfg.K_bar}: no tail grid "
                               "pair has a finite loss")
    _, phi, beta = best
    return replace(theta, beta=beta, phi=phi)


def train_schedule(source, cfg, grid_instances=_GRID_INSTANCES, callback=None):
    """Run both phases; returns the complete schedule.

    ``source`` is any object whose ``instance(i)`` returns the i-th
    :class:`~lrpca.synth.ProblemInstance` (an
    :class:`~lrpca.synth.InstanceSource`, or an adapter over a fixed list).
    The grid phase uses the ``grid_instances`` instances that follow the
    ones consumed by SGD, read one at a time from a generator, so their
    ``S_star`` never add up in memory; a ``grid_instances`` that is not an
    integer >= 1 raises :class:`~lrpca.errors.InvalidInput` before the
    first SGD step.
    ``callback`` is passed to :func:`layerwise_train`.
    """
    check_count(grid_instances, "grid_instances")
    theta = layerwise_train(source, cfg, callback=callback)
    start = 1 + (cfg.K + 1) * cfg.sgd_steps_per_stage
    dataset = (source.instance(i) for i in range(start, start + grid_instances))
    return grid_search_tail(theta, dataset, cfg)
