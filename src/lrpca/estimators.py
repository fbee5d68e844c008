"""Estimator-style front ends.

:class:`LRPCA` wraps the solver with the familiar fit/transform surface so
the decomposition drops into pipelines that expect ``fit``, ``transform``
and ``get_params``/``set_params``.  :class:`UnfoldingTrainer` learns a
:class:`~lrpca.schedule.ParamSchedule` from a synthetic instance family (or
a user-provided instance list) with the two-phase training procedure.
"""

import inspect

import numpy as np

from .errors import InvalidInput, MissingGroundTruth
from .schedule import ParamSchedule
from .solver import FixedSchedule, OracleSchedule, StopRule, solve
from .synth import InstanceSource
from .training import _GRID_INSTANCES, TrainConfig, train_schedule
from .validation import check_matrix

__all__ = ["LRPCA", "UnfoldingTrainer"]


class _ParamsMixin:
    """Minimal sklearn-compatible parameter plumbing."""

    def get_params(self, deep=True):
        sig = inspect.signature(type(self).__init__)
        return {name: getattr(self, name)
                for name in sig.parameters if name != "self"}

    def set_params(self, **params):
        valid = self.get_params()
        for key, value in params.items():
            if key not in valid:
                raise ValueError(
                    f"invalid parameter {key!r} for {type(self).__name__}")
            setattr(self, key, value)
        return self


class LRPCA(_ParamsMixin):
    """Low-rank + sparse decomposition estimator.

    Parameters
    ----------
    rank : int
        Rank of the low-rank component.
    schedule : ParamSchedule, optional
        Learned iteration parameters.  When omitted, ``zeta``/``eta`` define
        a fixed schedule, or ``oracle=True`` activates the ground-truth
        threshold rule (requires ``X_true`` at fit time).
    zeta, eta : float
        Fixed threshold and step size used when no schedule is given.
    oracle : bool
        Use the theoretical threshold ``||X_k - X_true||_inf`` per iteration.
    stop_mode : {'residual_rel', 'iterate_change', 'fixed_iters'}
    tol : float
    max_iters : int
    seed : int
        Seed for the initialization SVD.

    Attributes
    ----------
    low_rank_, sparse_ : ndarray
        The fitted decomposition of the last ``fit`` input.
    trace_ : SolveTrace
    n_iter_ : int
    """

    def __init__(self, rank=1, schedule=None, zeta=None, eta=0.5,
                 oracle=False, stop_mode="residual_rel", tol=1e-6,
                 max_iters=100, seed=0):
        self.rank = rank
        self.schedule = schedule
        self.zeta = zeta
        self.eta = eta
        self.oracle = oracle
        self.stop_mode = stop_mode
        self.tol = tol
        self.max_iters = max_iters
        self.seed = seed

    def _schedule_source(self):
        if self.oracle:
            return OracleSchedule(eta=self.eta)
        if self.schedule is not None:
            if not isinstance(self.schedule, ParamSchedule):
                raise InvalidInput("schedule must be a ParamSchedule")
            return self.schedule
        if self.zeta is None:
            raise InvalidInput("need a schedule, a fixed zeta, or oracle=True")
        return FixedSchedule(zeta=self.zeta, eta=self.eta)

    def _stop(self):
        return StopRule(mode=self.stop_mode, tolerance=self.tol,
                        max_iters=self.max_iters)

    def fit(self, Y, X_true=None):
        """Decompose ``Y``; stores ``low_rank_``, ``sparse_`` and ``trace_``."""
        Ym = check_matrix(Y, "Y")
        if self.oracle and X_true is None:
            raise MissingGroundTruth("oracle mode requires X_true")
        X, S, trace = solve(Ym, self.rank, self._schedule_source(),
                            stop=self._stop(), truth=X_true, seed=self.seed)
        self.low_rank_ = X
        self.sparse_ = S
        self.trace_ = trace
        self.n_iter_ = trace.iterations
        return self

    def transform(self, Y):
        """Low-rank component of ``Y`` under the configured schedule."""
        Ym = check_matrix(Y, "Y")
        X, _, _ = solve(Ym, self.rank, self._schedule_source(),
                        stop=self._stop(), seed=self.seed)
        return X

    def fit_transform(self, Y, X_true=None):
        return self.fit(Y, X_true=X_true).low_rank_


class _ListSource:
    """Adapter presenting a finite instance list as an endless source."""

    def __init__(self, instances):
        self._data = list(instances)
        if not self._data:
            raise InvalidInput("instance list must be nonempty")

    def instance(self, i):
        return self._data[i % len(self._data)]


class UnfoldingTrainer(_ParamsMixin):
    """Learns iteration parameters from a family of corrupted matrices.

    With no argument, ``fit`` trains on freshly generated instances with the
    configured dimensions; passing a list of
    :class:`~lrpca.synth.ProblemInstance` trains on that dataset instead.

    Attributes
    ----------
    schedule_ : ParamSchedule
        Learned parameters including the geometric tail.
    stage_losses_ : list of (stage, step, loss, grad_norm)
    """

    def __init__(self, n=500, n2=None, rank=5, alpha=0.1, K=TrainConfig.K,
                 K_bar=TrainConfig.K_bar,
                 sgd_steps_per_stage=TrainConfig.sgd_steps_per_stage,
                 learning_rate=TrainConfig.learning_rate,
                 grid=TrainConfig.grid, grid_instances=_GRID_INSTANCES, seed=0):
        self.n = n
        self.n2 = n2
        self.rank = rank
        self.alpha = alpha
        self.K = K
        self.K_bar = K_bar
        self.sgd_steps_per_stage = sgd_steps_per_stage
        self.learning_rate = learning_rate
        self.grid = grid
        self.grid_instances = grid_instances
        self.seed = seed

    def _config(self):
        return TrainConfig(K=self.K, K_bar=self.K_bar,
                           sgd_steps_per_stage=self.sgd_steps_per_stage,
                           learning_rate=self.learning_rate, grid=self.grid)

    def fit(self, X=None, y=None):
        cfg = self._config()
        if X is None:
            source = InstanceSource(self.n, self.n2 or self.n, self.rank,
                                    self.alpha, base_seed=self.seed)
        else:
            source = _ListSource(X)
        losses = []
        self.schedule_ = train_schedule(
            source, cfg, self.grid_instances,
            callback=lambda *row: losses.append(row))
        self.stage_losses_ = losses
        return self

    def fit_transform(self, X=None, y=None):
        return self.fit(X, y).schedule_
