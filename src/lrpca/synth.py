"""Synthetic problem instances with known ground truth.

An instance is ``Y = X_star + S_star`` where ``X_star = L_star R_star^T``
has Gaussian factors with entry variance ``1/max(n1, n2)`` and ``S_star``
places ``floor(alpha * n1 * n2)`` outliers at positions sampled uniformly
without replacement, with magnitudes uniform on ``[-m, m]`` for ``m`` the
realized mean absolute entry of ``X_star``.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidFraction
from .validation import check_rank

__all__ = ["ProblemInstance", "gen_instance", "banded_sparse_matrix",
           "InstanceSource"]


@dataclass(frozen=True)
class ProblemInstance:
    Y: np.ndarray
    X_star: np.ndarray
    S_star: np.ndarray
    r: int
    alpha: float
    seed: int

    @property
    def shape(self):
        return self.Y.shape


def gen_instance(n1, n2, r, alpha, seed):
    """Generate one seeded problem instance (deterministic for a seed)."""
    r = check_rank(r, n1, n2)
    if not 0.0 <= alpha <= 1.0:
        raise InvalidFraction(f"alpha must be in [0, 1], got {alpha}")
    rng = np.random.default_rng(seed)
    n = max(n1, n2)
    L = rng.normal(0.0, np.sqrt(1.0 / n), size=(n1, r))
    R = rng.normal(0.0, np.sqrt(1.0 / n), size=(n2, r))
    X = L @ R.T
    S = np.zeros(n1 * n2)
    count = int(np.floor(alpha * n1 * n2))
    if count:
        pos = rng.choice(n1 * n2, size=count, replace=False)
        bound = float(np.abs(X).mean())
        S[pos] = rng.uniform(-bound, bound, size=count)
    S = S.reshape(n1, n2)
    return ProblemInstance(X + S, X, S, r, float(alpha), int(seed))


def banded_sparse_matrix(n, alpha, seed, magnitude=1.0):
    """Random matrix with at most ``floor(alpha * n)`` nonzeros per row and
    per column (superposed random permutation patterns).

    This is the strict per-row/column sparsity model used by the norm-bound
    properties, as opposed to the global sampling of :func:`gen_instance`.
    """
    if not 0.0 <= alpha <= 1.0:
        raise InvalidFraction(f"alpha must be in [0, 1], got {alpha}")
    rng = np.random.default_rng(seed)
    m = int(np.floor(alpha * n))
    mask = np.zeros((n, n), dtype=bool)
    for _ in range(m):
        mask[np.arange(n), rng.permutation(n)] = True
    S = np.zeros((n, n))
    vals = rng.uniform(-magnitude, magnitude, size=int(mask.sum()))
    # Keep entries away from zero so the support is exactly the mask.
    vals = np.where(np.abs(vals) < 1e-3 * magnitude,
                    np.sign(vals + 0.5) * 1e-3 * magnitude, vals)
    S[mask] = vals
    return S


class InstanceSource:
    """Deterministic stream of fresh instances from one problem family.

    Instance ``i`` uses seed ``base_seed + i``, so a source is reproducible
    and two sources with the same parameters yield identical streams.
    """

    def __init__(self, n1, n2, r, alpha, base_seed=0):
        self.n1 = int(n1)
        self.n2 = int(n2)
        self.r = check_rank(r, n1, n2)
        if not 0.0 <= alpha <= 1.0:
            raise InvalidFraction(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = float(alpha)
        self.base_seed = int(base_seed)

    def instance(self, i):
        return gen_instance(self.n1, self.n2, self.r, self.alpha,
                            self.base_seed + int(i))
