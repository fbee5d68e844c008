"""Low-rank + sparse decomposition solvers.

The main iteration alternates a soft-thresholded outlier update

    S_{k+1} = soft_threshold(Y - L_k R_k^T, zeta_{k+1})

with scaled gradient steps on the factors of ``X = L R^T``

    L_{k+1} = L_k - eta (L_k R_k^T + S_{k+1} - Y) R_k (R_k^T R_k)^{-1}
    R_{k+1} = R_k - eta (L_k R_k^T + S_{k+1} - Y)^T L_k (L_k^T L_k)^{-1}

seeded by a spectral initialization (threshold Y once, then a rank-r SVD of
the rest, from a seeded three-pass range sketch on all but small inputs; see
:func:`spectral_init`).
The Gram-scaled steps make the per-iteration progress insensitive to the
conditioning of the low-rank part.  A baseline variant replaces the
soft-threshold with top-fraction sparsification.

One iteration makes a single pass over ``Y`` and ``S`` in row slabs (see
:func:`_soft_pass`): each slab forms its rows of ``L R^T`` once, thresholds,
writes the new ``S`` and accumulates the two thin products ``W R`` and
``W^T L``; the rest is ``O(n r^2)`` work on the factors.  Besides ``Y``, a
solve holds two ``S`` buffers (the stop rule may keep the previous one) and
builds the returned ``X`` once, at the end.

Thresholds and step sizes come from one of two schedule sources, each
checked when built: a :class:`~lrpca.schedule.ParamSchedule`, learned or
fixed (see :func:`FixedSchedule`), or an :class:`OracleSchedule` that
recomputes the theoretical threshold ``zeta_k = ||L_{k-1} R_{k-1}^T -
X_true||_inf`` from ground truth at every iteration (useful to verify the
guaranteed geometric contraction).
"""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (InvalidDimensions, InvalidFraction, InvalidInput,
                     InvalidThreshold, MissingGroundTruth, SingularGram)
from .linalg import (_SKETCH_OVERSAMPLE, _sketch_svd, gram_solve,
                     truncated_svd)
from .operators import _sparsify_unchecked, soft_threshold
from .schedule import ParamSchedule, _positive
from .validation import check_matrix, check_rank, check_same_shape

__all__ = [
    "FactorPair", "SolverState", "StopRule", "SolveTrace",
    "FixedSchedule", "OracleSchedule",
    "spectral_init", "lrpca_step", "scaledgd_step",
    "solve", "solve_scaledgd", "residual_rel",
]


@dataclass(frozen=True)
class FactorPair:
    """The (L, R) factorization state with X = L @ R.T."""

    L: np.ndarray
    R: np.ndarray

    def product(self):
        return self.L @ self.R.T


@dataclass(frozen=True)
class SolverState:
    factors: FactorPair
    S: np.ndarray
    iteration: int

    def low_rank(self):
        return self.factors.product()


@dataclass(frozen=True)
class StopRule:
    """When to stop iterating.

    mode 'residual_rel' stops once ||Y - X - S||_F / ||Y||_F < tolerance,
    mode 'iterate_change' once the max of the relative changes in X and S
    between consecutive iterations drops below tolerance, and 'fixed_iters'
    runs exactly ``max_iters`` iterations.  ``max_iters`` caps every mode.
    The change in X is computed from small Gram products of the factors,
    without forming X; it stays accurate far below the tolerances in use
    (1e-3 to 1e-6).
    """

    mode: str = "residual_rel"
    tolerance: float = 1e-4
    max_iters: int = 100

    def __post_init__(self):
        if self.mode not in ("residual_rel", "iterate_change", "fixed_iters"):
            raise InvalidInput(f"unknown stop mode {self.mode!r}")
        if self.max_iters < 0:
            raise InvalidInput("max_iters must be >= 0")
        if self.tolerance < 0:
            raise InvalidInput("tolerance must be >= 0")


@dataclass
class SolveTrace:
    """Per-iteration diagnostics; row 0 describes the initialization.

    ``stop_reason`` says how the solve ended: ``"converged"`` when the stop
    rule's tolerance test passed (``residual_rel`` or ``iterate_change``),
    ``"max_iters"`` when the iteration cap ended it (always the case for
    ``fixed_iters``).
    """

    iters: list = field(default_factory=list)
    zetas: list = field(default_factory=list)
    etas: list = field(default_factory=list)
    residuals: list = field(default_factory=list)
    rel_errs: list = field(default_factory=list)
    wall_ms: list = field(default_factory=list)
    stop_reason: str = ""

    def append(self, k, zeta, eta, residual, rel_err, wall):
        self.iters.append(k)
        self.zetas.append(zeta)
        self.etas.append(eta)
        self.residuals.append(residual)
        self.rel_errs.append(rel_err)
        self.wall_ms.append(wall)

    def __len__(self):
        return len(self.iters)

    @property
    def iterations(self):
        """Number of update iterations executed (excludes initialization)."""
        return len(self.iters) - 1

    def rows(self):
        return list(zip(self.iters, self.zetas, self.etas, self.residuals,
                        self.rel_errs, self.wall_ms))


def FixedSchedule(zeta, eta):
    """Constant ``(zeta, eta)``, zeta also for init: the one-layer
    :class:`ParamSchedule` whose unit tail repeats the pair exactly."""
    return ParamSchedule(zetas=(zeta, zeta), etas=(eta,))


@dataclass(frozen=True)
class OracleSchedule:
    """Theoretical thresholds computed from ground truth on the fly."""

    eta: float = 0.5

    def __post_init__(self):
        if not _positive(self.eta):
            raise ValueError(f"step size must be finite and > 0, got {self.eta}")


def residual_rel(Y, X, S):
    """Relative reconstruction residual ``||Y - X - S||_F / ||Y||_F``."""
    Ym = check_matrix(Y, "Y")
    Xm = check_matrix(X, "X")
    Sm = check_matrix(S, "S")
    check_same_shape(Ym, Xm, Sm)
    ny = np.linalg.norm(Ym)
    if ny == 0.0:
        raise InvalidInput("Y must be nonzero")
    return float(np.linalg.norm(Ym - Xm - Sm) / ny)


def spectral_init(Y, r, zeta0, seed=0):
    """Initial state: ``S_0 = soft_threshold(Y, zeta0)``, factors from a
    rank-r SVD of ``A = Y - S_0`` (L = U sqrt(Sigma), R = V sqrt(Sigma)).

    When the short side of ``A`` exceeds ``2 (r + 10)``, the SVD comes from a
    seeded Gaussian range sketch of width ``r + 10``: three power passes
    with a QR after every product, then one Rayleigh-Ritz SVD of ``Q^T A``
    (Halko, Martinsson & Tropp 2011, Alg. 4.4), eight thin products with
    ``A`` whatever its spectrum.  Contract: with high probability over the
    seed,

        ||L R^T - A_r||_F <= (10 (sigma_{r+1} / sigma_r)^7 + 1e-12) ||A_r||_F

    where ``A_r`` is the exact rank-r truncation of ``A`` and ``sigma_j`` its
    singular values (the exponent counts the 2 * 3 + 1 applications of
    ``A``; measured constants stay below 1).  The init thus follows the
    spectral gap rather than an accuracy target, which the iteration does
    not need: it corrects the factors from the first step on.  On smaller
    inputs an exact LAPACK SVD costs no more, so they get
    :func:`~lrpca.linalg.truncated_svd` and ignore ``seed``.  Either way
    the factors are fixed bit for bit.
    """
    Ym = check_matrix(Y, "Y")
    r = check_rank(r, *Ym.shape)
    S0 = soft_threshold(Ym, zeta0)
    return _factor_state(Ym, S0, r, seed)


def _factor_state(Y, S0, r, seed):
    A = Y - S0
    # Below a short side of twice the sketch width an exact SVD costs no
    # more than the sketch, so small inputs keep the exact truncation.
    if min(A.shape) > 2 * (r + _SKETCH_OVERSAMPLE):
        f = _sketch_svd(A, r, seed)
    else:
        f = truncated_svd(A, r)
    root = np.sqrt(f.sigma)
    return SolverState(FactorPair(f.U * root, f.V * root), S0, 0)


# Elements per row slab: a few slab-sized scratch buffers stay in a core's
# L2 cache while Y and S stream through once per iteration.
_SLAB_ELEMS = 1 << 16


def _block_rows(n_rows, n_cols):
    return max(1, min(n_rows, _SLAB_ELEMS // max(n_cols, 1)))


class _Pass(NamedTuple):
    """Sums and factor products from one pass at the iterate (L, R, S)."""

    resid_sq: float  # ||Y - L R^T - S||_F^2
    err_sq: float    # ||L R^T - truth||_F^2
    dS_sq: float     # ||S' - S||_F^2
    S_sq: float      # ||S||_F^2
    WR: np.ndarray   # W R with W = L R^T + S' - Y
    WtL: np.ndarray  # W^T L


def _sq(A):
    return float(np.vdot(A, A))


def _product_rows(L_rows, RT, out):
    # At r = 1 a matmul with inner dimension 1 costs more than a pass reading
    # a stored X would; a broadcast outer product halves that cost.
    if L_rows.shape[1] == 1:
        return np.multiply(L_rows, RT, out=out)
    return np.matmul(L_rows, RT, out=out)


def _soft_pass(Y, L, R, zeta, S=None, S_out=None, truth=None, track=False):
    """One slab-streamed pass of the soft-threshold iteration.

    Every row slab forms ``X_sl = L_sl R^T`` once and ``T_sl = Y_sl - X_sl``,
    then adds ``||T_sl - S_sl||^2`` (when ``S`` is given) and
    ``||X_sl - truth_sl||^2`` (when ``truth`` is given).  With a threshold
    ``zeta`` it also writes ``S'_sl = T_sl - clip(T_sl, +-zeta)`` into
    ``S_out`` (when given), adds ``||S'_sl - S_sl||^2`` and ``||S_sl||^2``
    (when ``track``), fills ``W_sl R`` and accumulates ``W_sl^T L_sl`` with
    ``W_sl = -clip(T_sl, +-zeta)``.  So one iteration reads Y and S once,
    writes S' once and never holds an n1 x n2 temporary; without ``zeta``
    the pass only measures the iterate.
    """
    n1, n2 = Y.shape
    step = _block_rows(n1, n2)
    # Scratch is per call: concurrent solves on threads share nothing.
    X_buf = np.empty((step, n2))
    D_buf = np.empty((step, n2))
    C_buf = np.empty((step, n2))
    RT = R.T
    resid_sq = err_sq = dS_sq = S_sq = 0.0
    CR = CtL = None
    if zeta is not None:
        CR = np.empty((n1, L.shape[1]))
        CtL = np.zeros((n2, L.shape[1]))
    for i in range(0, n1, step):
        sl = slice(i, i + step)
        b = min(step, n1 - i)
        X, D, C = X_buf[:b], D_buf[:b], C_buf[:b]
        _product_rows(L[sl], RT, X)
        if truth is not None:
            err_sq += _sq(np.subtract(X, truth[sl], out=D))
        T = np.subtract(Y[sl], X, out=X)
        if S is not None:
            resid_sq += _sq(np.subtract(T, S[sl], out=D))
        if zeta is None:
            continue
        np.clip(T, -zeta, zeta, out=C)
        if S_out is not None:
            np.subtract(T, C, out=S_out[sl])
            if track:
                dS_sq += _sq(np.subtract(S_out[sl], S[sl], out=D))
                S_sq += _sq(S[sl])
        np.matmul(C, R, out=CR[sl])
        CtL += C.T @ L[sl]
    if zeta is not None:
        np.negative(CR, out=CR)
        np.negative(CtL, out=CtL)
    return _Pass(resid_sq, err_sq, dS_sq, S_sq, CR, CtL)


def _soft_backward(Y, L, R, zeta, eta, L_bar, R_bar):
    """Reverse mode through one soft-threshold iteration.

    The iteration maps ``(L, R)`` to ``(L + eta P, R + eta Q)``, where
    ``P = C R (R^T R)^{-1}``, ``Q = C^T L (L^T L)^{-1}``, ``T = Y - L R^T``
    and ``C = clip(T, +-zeta)``.  Given the adjoints of its outputs, this returns
    those of ``(L, R, zeta, eta)``.  ``C_bar = P_bar R^T + L Q_bar^T``, with
    ``P_bar = eta L_bar (R^T R)^{-1}`` and ``Q_bar = eta R_bar (L^T L)^{-1}``,
    goes to ``T`` where ``|T| < zeta`` and, times ``sign(T)``, to ``zeta``
    elsewhere.  ``T`` and ``C`` are recomputed in the row slabs of
    :func:`_soft_pass`, never as an n1 x n2 temporary.
    """
    n1, n2 = Y.shape
    r = L.shape[1]
    step = _block_rows(n1, n2)
    T_buf, C_buf, G_buf = (np.empty((step, n2)) for _ in range(3))
    RT = R.T
    GR, GL = R.T @ R, L.T @ L
    P_bar, Q_bar = eta * gram_solve(L_bar, GR), eta * gram_solve(R_bar, GL)
    # C_bar = left right^T; C right = [C R, C Q_bar] and C^T left =
    # [C^T P_bar, C^T L] give the forward products and the factor adjoints.
    left, right = np.hstack((P_bar, L)), np.hstack((R, Q_bar))
    C_right, Ct_left = np.empty((n1, 2 * r)), np.zeros((n2, 2 * r))
    Tb_R, Tbt_L = np.empty((n1, r)), np.zeros((n2, r))
    zeta_bar = 0.0
    for i in range(0, n1, step):
        sl = slice(i, i + step)
        b = min(step, n1 - i)
        T, C, G = T_buf[:b], C_buf[:b], G_buf[:b]
        T = np.subtract(Y[sl], _product_rows(L[sl], RT, T), out=T)
        np.clip(T, -zeta, zeta, out=C)
        np.matmul(left[sl], right.T, out=G)
        # T - C is nonzero exactly where |T| > zeta, with the sign of T.
        D = np.sign(np.subtract(T, C, out=T), out=T)
        zeta_bar += float(np.vdot(G, D))
        # T_bar = C_bar where |T| <= zeta: take out the part where D != 0.
        G -= np.multiply(G, np.abs(D, out=D), out=D)
        np.matmul(C, right, out=C_right[sl])
        Ct_left += C.T @ left[sl]
        np.matmul(G, R, out=Tb_R[sl])
        Tbt_L += G.T @ L[sl]
    P, Q = gram_solve(C_right[:, :r], GR), gram_solve(Ct_left[:, r:], GL)
    eta_bar = float(np.vdot(L_bar, P) + np.vdot(R_bar, Q))
    GR_nbar, GL_nbar = P.T @ P_bar, Q.T @ Q_bar  # minus the Gram adjoints
    L_in_bar = L_bar + C_right[:, r:] - Tb_R - L @ (GL_nbar + GL_nbar.T)
    R_in_bar = R_bar + Ct_left[:, :r] - Tbt_L - R @ (GR_nbar + GR_nbar.T)
    return L_in_bar, R_in_bar, zeta_bar, eta_bar


def _sparsify_pass(Y, L, R, alpha_tilde, S=None, S_out=None, truth=None,
                   track=False):
    """:func:`_soft_pass` for top-fraction sparsification.  Its row and
    column cutoffs need the whole residual, so ``T`` is materialized."""
    X = L @ R.T
    err_sq = _sq(X - truth) if truth is not None else 0.0
    T = np.subtract(Y, X, out=X)
    resid_sq = _sq(T - S) if S is not None else 0.0
    if alpha_tilde is None:
        return _Pass(resid_sq, err_sq, 0.0, 0.0, None, None)
    S_new = _sparsify_unchecked(T, alpha_tilde)
    dS_sq = _sq(S_new - S) if track else 0.0
    S_sq = _sq(S) if track else 0.0
    if S_out is not None:
        np.copyto(S_out, S_new)
    W = np.subtract(S_new, T, out=T)
    return _Pass(resid_sq, err_sq, dS_sq, S_sq, W @ R, W.T @ L)


def _scaled_update(factors, p, eta):
    # Both factor updates read the pre-step L and R.
    L, R = factors.L, factors.R
    L_new = L - eta * gram_solve(p.WR, R.T @ R)
    R_new = R - eta * gram_solve(p.WtL, L.T @ L)
    return FactorPair(L_new, R_new)


def _soft_step(Y, factors, zeta, eta, S_out=None):
    """Factors after one soft-threshold iteration (S' into ``S_out``)."""
    return _scaled_update(
        factors, _soft_pass(Y, factors.L, factors.R, zeta, S_out=S_out), eta)


def _ratio(num_sq, den_sq):
    if den_sq == 0.0:
        return 0.0 if num_sq == 0.0 else float("inf")
    return float(np.sqrt(num_sq / den_sq))


def _low_rank_change(old, new):
    """``||L' R'^T - L R^T||_F / ||L R^T||_F`` from Gram products of the
    thin factors, without forming either product.

    The difference is ``A B^T`` with ``A = [L' - L, L]`` and
    ``B = [R', R' - R]``, so ``||A B^T||_F^2 = tr((A^T A)(B^T B))``.  No term
    of size ``||X||^2`` cancels, which keeps small changes accurate.
    """
    L, R = old.L, old.R
    A = np.hstack((new.L - L, L))
    B = np.hstack((new.R, new.R - R))
    diff_sq = max(float(np.sum((A.T @ A) * (B.T @ B))), 0.0)
    return _ratio(diff_sq, float(np.sum((L.T @ L) * (R.T @ R))))


def _max_abs_err(factors, truth):
    """``||L R^T - truth||_inf`` over row slabs."""
    L, RT = factors.L, factors.R.T
    step = _block_rows(*truth.shape)
    out = 0.0
    for i in range(0, truth.shape[0], step):
        D = L[i:i + step] @ RT
        D -= truth[i:i + step]
        out = max(out, float(D.max()), -float(D.min()))
    return out


def lrpca_step(state, Y, zeta, eta):
    """One soft-threshold + scaled-gradient iteration from ``state``."""
    Ym = check_matrix(Y, "Y")
    if zeta < 0:
        raise InvalidThreshold(f"threshold must be >= 0, got {zeta}")
    shape = (state.factors.L.shape[0], state.factors.R.shape[0])
    if shape != Ym.shape:
        raise InvalidDimensions(f"factors give shape {shape}, Y has {Ym.shape}")
    S = np.empty(Ym.shape)
    factors = _soft_step(Ym, state.factors, zeta, eta, S_out=S)
    return SolverState(factors, S, state.iteration + 1)


def scaledgd_step(state, Y, alpha_tilde, eta):
    """One baseline iteration using top-fraction sparsification."""
    Ym = check_matrix(Y, "Y")
    if not 0.0 <= alpha_tilde <= 1.0:
        raise InvalidFraction(f"fraction must be in [0, 1], got {alpha_tilde}")
    S = np.empty(Ym.shape)
    factors = _scaled_update(
        state.factors,
        _sparsify_pass(Ym, state.factors.L, state.factors.R, alpha_tilde,
                       S_out=S),
        eta)
    return SolverState(factors, S, state.iteration + 1)


def _resolve_schedule(schedule, truth):
    """Return (zeta0, params_fn) where params_fn(k, factors) -> (zeta, eta)
    for iteration k, given the factors of iterate k - 1."""
    if isinstance(schedule, ParamSchedule):
        return schedule.zeta0, lambda k, f: schedule.at(k)
    if isinstance(schedule, OracleSchedule):
        if truth is None:
            raise MissingGroundTruth("oracle schedule requires the true low-rank matrix")
        zeta0 = float(np.abs(truth).max())
        return zeta0, lambda k, f: (_max_abs_err(f, truth), schedule.eta)
    raise InvalidInput(f"unsupported schedule source {type(schedule).__name__}")


def _run(Y, stop, truth, init_fn, params_fn, pass_fn):
    """The iteration loop shared by both solvers.

    The pass that thresholds for iteration k + 1 also measures iterate k, so
    trace row k is written once that pass returns; the stop rule then either
    keeps iterate k (its S is still in the other buffer) or commits the
    factor update.  ``wall_ms[k]`` is the time since the previous row.
    """
    trace = SolveTrace()
    ny = np.linalg.norm(Y)
    nt = np.linalg.norm(truth) if truth is not None else 0.0
    track = stop.mode == "iterate_change"
    t0 = time.perf_counter()
    state, zeta = init_fn()
    factors, S = state.factors, state.S
    S_next = np.empty(Y.shape)
    eta, change = float("nan"), float("inf")
    k = 0
    while True:
        converged = track and change < stop.tolerance
        stepping = k < stop.max_iters and not converged
        nxt = params_fn(k + 1, factors) if stepping else (None, None)
        p = pass_fn(Y, factors.L, factors.R, nxt[0], S,
                    S_next if stepping else None, truth, track)
        res = float(np.sqrt(p.resid_sq) / ny) if ny > 0 else 0.0
        rel = float(np.sqrt(p.err_sq) / nt) if nt > 0 else float("nan")
        t1 = time.perf_counter()
        trace.append(k, zeta, eta, res, rel, (t1 - t0) * 1e3)
        t0 = t1
        if stop.mode == "residual_rel" and res < stop.tolerance:
            converged = True
        if converged or not stepping:
            break
        k += 1
        zeta, eta = nxt
        try:
            new = _scaled_update(factors, p, eta)
        except SingularGram as exc:
            raise SingularGram(
                f"Gram factorization collapsed at iteration {k}: {exc}") from exc
        if track:
            change = max(_low_rank_change(factors, new),
                         _ratio(p.dS_sq, p.S_sq))
        factors = new
        S, S_next = S_next, S
    trace.stop_reason = "converged" if converged else "max_iters"
    return factors.product(), S, trace


def solve(Y, r, schedule, stop=StopRule(), truth=None, seed=0):
    """Decompose ``Y`` into a rank-r part and a sparse part.

    Parameters
    ----------
    Y : array_like
        Observed matrix.
    r : int
        Target rank of the low-rank part.
    schedule : ParamSchedule | OracleSchedule
        Source of per-iteration (zeta, eta); :func:`FixedSchedule` builds the
        ``ParamSchedule`` of a constant pair.  The oracle source requires
        ``truth``.
    stop : StopRule
    truth : array_like, optional
        True low-rank matrix; enables the oracle schedule and fills the
        ``rel_err`` trace column.
    seed : int
        Seed of the initialization's range sketch (see
        :func:`spectral_init`); fixes the output bit-for-bit.

    Returns
    -------
    (X_hat, S_hat, trace)
    """
    Ym = check_matrix(Y, "Y")
    r = check_rank(r, *Ym.shape)
    if truth is not None:
        truth = check_matrix(truth, "truth")
        check_same_shape(Ym, truth)
    zeta0, params_fn = _resolve_schedule(schedule, truth)

    def init():
        return spectral_init(Ym, r, zeta0, seed=seed), zeta0

    return _run(Ym, stop, truth, init, params_fn, _soft_pass)


def solve_scaledgd(Y, r, alpha_tilde, eta, stop=StopRule(), truth=None, seed=0):
    """Baseline solver: top-fraction sparsification with a fixed step size.

    Initialization mirrors the main solver, with the sparsification operator
    in place of the threshold: ``S_0 = T_alpha(Y)``, then the rank-r SVD of
    :func:`spectral_init`, whose range sketch ``seed`` fixes bit-for-bit.
    """
    Ym = check_matrix(Y, "Y")
    r = check_rank(r, *Ym.shape)
    if not 0.0 <= alpha_tilde <= 1.0:
        raise InvalidFraction(f"fraction must be in [0, 1], got {alpha_tilde}")
    if truth is not None:
        truth = check_matrix(truth, "truth")
        check_same_shape(Ym, truth)

    def init():
        S0 = _sparsify_unchecked(Ym, alpha_tilde)
        return _factor_state(Ym, S0, r, seed), alpha_tilde

    return _run(Ym, stop, truth, init,
                lambda k, f: (alpha_tilde, eta), _sparsify_pass)
