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

One iteration makes a single pass over ``Y`` in row slabs (see
:func:`_soft_pass`): each slab forms its rows of ``L R^T`` once, thresholds
and accumulates the thin products ``W R``, ``W^T L`` and ``W^T W R``; the
rest is ``O(n r^2)`` work on the factors.  The next iterate's residual
follows from those products (:func:`_next_resid_sq`), so the loop neither
reads nor writes an ``S``: the returned ``S`` is built once, at the end,
from the previous factors.  Besides ``Y``, a solve holds one ``S`` and the
returned ``X``; the ``iterate_change`` stop, which compares consecutive
``S``, holds two ``S`` buffers while it iterates, writes one every
iteration and frees the spare before ``X`` is formed.  The passes'
three slab-sized scratch buffers are allocated once per solve, or once per
training run, and reused by every pass (see :class:`_Scratch`).

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

from .errors import ConvergenceFailure, InvalidInput, SingularGram
from .linalg import (_SKETCH_OVERSAMPLE, _exact_svd, _gram_solver,
                     _sketch_svd, gram_solve, truncated_svd)
from .operators import _sparsify_unchecked, soft_threshold
from .schedule import ParamSchedule, _positive
from .validation import check_matrix, check_rank, check_same_shape, check_seed

__all__ = [
    "FactorPair", "SolverState", "StopRule",
    "FixedSchedule", "OracleSchedule",
    "spectral_init", "lrpca_step", "solve", "solve_scaledgd", "residual_rel",
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
    (1e-3 to 1e-6).  So is the residual of every iterate but the first and
    the returned one (see :class:`SolveTrace`).
    """

    mode: str = "residual_rel"
    tolerance: float = 1e-4
    max_iters: int = 100

    def __post_init__(self):
        if self.mode not in ("residual_rel", "iterate_change", "fixed_iters"):
            raise InvalidInput(f"unknown stop mode {self.mode!r}")
        if self.max_iters < 0:
            raise InvalidInput("max_iters must be >= 0")
        if not self.tolerance >= 0:  # NaN fails this test too
            raise InvalidInput(f"tolerance must be >= 0, got {self.tolerance}")


@dataclass
class SolveTrace:
    """Per-iteration diagnostics; row 0 describes the initialization.

    ``stop_reason`` says how the solve ended: ``"converged"`` when the stop
    rule's tolerance test passed (``residual_rel`` or ``iterate_change``),
    ``"max_iters"`` when the iteration cap ended it (always the case for
    ``fixed_iters``).  An init whose residual is exactly zero ends the solve
    as ``"converged"`` after 0 iterations in every mode.

    Rows 0 and the last are measured against the stored ``S``: the last row
    describes exactly the returned ``(X, S)``.  The residuals of the rows in
    between come from Gram products of the thin factors and the pass's
    sums.  They differ from the dense ``||Y - X_k - S_k||_F / ||Y||_F`` by
    about 1e-17 or less in absolute terms: about 1e-11 relative at a
    residual of 1e-6, 1e-6 relative at 1e-12.  A row whose residual is not
    finite means the iterates diverged: the solve raises
    :class:`~lrpca.errors.ConvergenceFailure` naming the iteration.
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
            raise InvalidInput(f"step size must be finite and > 0, got {self.eta}")


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


def spectral_init(Y, r, zeta0, seed=0, tangent=False):
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
    :func:`~lrpca.linalg.truncated_svd` and ignore ``seed``, which must
    still be >= 0.  Either way the factors are fixed bit for bit.

    With ``tangent``, returns ``(state, FactorPair(dL, dR))``: forward mode
    through the branch taken, from ``dA/dzeta0 = sign(S_0)``, gives
    ``dX = d(L R^T)``, all the Gram-scaled iteration sees, and
    ``dL = (I - U U^T / 2) dX V Sigma^{-1/2}``, ``dR`` likewise.  If ``A``
    has numerical rank below r, it raises :class:`~lrpca.errors.SingularGram`.
    """
    Ym = check_matrix(Y, "Y")
    r = check_rank(r, *Ym.shape)
    check_seed(seed)
    S0 = soft_threshold(Ym, zeta0)
    return _factor_state(Ym, S0, r, seed, np.sign(S0) if tangent else None)


def _factor_state(Y, S0, r, seed, dA=None):
    A = Y - S0
    # Below a short side of twice the sketch width an exact SVD costs no
    # more than the sketch, so small inputs keep the exact truncation.
    if min(A.shape) > 2 * (r + _SKETCH_OVERSAMPLE):
        f, dX = _sketch_svd(A, r, seed, dA)
    elif dA is None:
        f, dX = truncated_svd(A, r), None
    else:
        f, dX = _exact_svd(A, r, dA)
    root = np.sqrt(f.sigma)
    state = SolverState(FactorPair(f.U * root, f.V * root), S0)
    if dX is None:
        return state
    dXV, dXtU = dX
    dL = (dXV - 0.5 * f.U @ (f.U.T @ dXV)) / root
    dR = (dXtU - 0.5 * f.V @ (f.V.T @ dXtU)) / root
    return state, FactorPair(dL, dR)


# Elements per row slab: a few slab-sized scratch buffers stay in a core's
# L2 cache while Y streams through once per iteration.
_SLAB_ELEMS = 1 << 16


def _block_rows(n_rows, n_cols):
    return max(1, min(n_rows, _SLAB_ELEMS // max(n_cols, 1)))


class _Scratch:
    """The three slab-sized buffers of the slab kernels.

    One solve or one training run owns a set and hands it to each of its
    passes, forward and backward alike, since no two passes are live at
    once: buffers freed after every pass would be page-faulted back in by
    the next one on small inputs.  The buffers are made at the first pass,
    and again only when a pass needs another ``(rows per slab, n2)``, as
    when a training source yields instances of different shapes.  A set is
    never shared between solves, so concurrent solves on threads share
    nothing.
    """

    def __init__(self):
        self._bufs = ()

    def slabs(self, n1, n2):
        """``(rows per slab, (buffer, buffer, buffer))`` for an n1 x n2 pass."""
        step = _block_rows(n1, n2)
        if not self._bufs or self._bufs[0].shape != (step, n2):
            self._bufs = ()  # free the old set before making the new one
            self._bufs = tuple(np.empty((step, n2)) for _ in range(3))
        return step, self._bufs

    def rows(self, n1, n2):
        """Each row slab of an n1 x n2 pass, in order: its ``slice`` and
        the three buffers cut to its row count."""
        step, bufs = self.slabs(n1, n2)
        for i in range(0, n1, step):
            b = min(step, n1 - i)
            yield (slice(i, i + step), *(buf[:b] for buf in bufs))


class _Pass(NamedTuple):
    """Sums and factor products from one pass at the iterate (L, R)."""

    resid_sq: float              # ||Y - L R^T - S||_F^2
    err_sq: float                # ||L R^T - truth||_F^2
    dS_sq: float = 0.0           # ||S' - prev||_F^2
    S_sq: float = 0.0            # ||prev||_F^2
    W_sq: float = 0.0            # ||W||_F^2 with W = L R^T + S' - Y
    WR: np.ndarray = None        # W R
    WtL: np.ndarray = None       # W^T L
    WtWR: np.ndarray = None      # W^T W R


def _sq(A):
    return float(np.vdot(A, A))


def _product_rows(L_rows, RT, out):
    # At r = 1 a matmul with inner dimension 1 costs more than a pass reading
    # a stored X would; a broadcast outer product halves that cost.
    if L_rows.shape[1] == 1:
        return np.multiply(L_rows, RT, out=out)
    return np.matmul(L_rows, RT, out=out)


def _soft_pass(Y, L, R, zeta, scratch, S=None, S_out=None, truth=None,
               prev=None, resid_next=False):
    """One slab-streamed pass of the soft-threshold iteration.

    Every row slab forms ``X_sl = L_sl R^T`` once and ``T_sl = Y_sl - X_sl``,
    then adds ``||T_sl - S_sl||^2`` (when ``S`` is given) and
    ``||X_sl - truth_sl||^2`` (when ``truth`` is given).  With a threshold
    ``zeta`` it fills ``W_sl R`` and accumulates ``W_sl^T L_sl`` with
    ``W_sl = -clip(T_sl, +-zeta)``; it writes ``S'_sl = T_sl + W_sl`` into
    ``S_out`` (when given) and adds ``||S'_sl - prev_sl||^2`` and
    ``||prev_sl||^2`` (when ``prev`` is given).  With ``resid_next`` it also
    adds ``||W_sl||^2`` and accumulates ``W_sl^T W_sl R``, from which
    :func:`_next_resid_sq` takes the residual of the next iterate.  So one
    iteration reads Y once, and S only when asked to, and never holds an
    n1 x n2 temporary; without ``zeta`` the pass only measures the iterate.
    """
    n1, n2 = Y.shape
    r = L.shape[1]
    RT = R.T
    resid_sq = err_sq = dS_sq = S_sq = C_sq = 0.0
    CR = CtL = CtCR = None
    if zeta is not None:
        CR = np.empty((n1, r))
        CtL = np.zeros((n2, r))
        if resid_next:
            CtCR = np.zeros((n2, r))
    for sl, X, D, C in scratch.rows(n1, n2):
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
            if prev is not None:
                dS_sq += _sq(np.subtract(S_out[sl], prev[sl], out=D))
                S_sq += _sq(prev[sl])
        np.matmul(C, R, out=CR[sl])
        CtL += C.T @ L[sl]
        if resid_next:
            CtCR += C.T @ CR[sl]
            C_sq += _sq(C)
    if zeta is not None:
        np.negative(CR, out=CR)
        np.negative(CtL, out=CtL)
    return _Pass(resid_sq, err_sq, dS_sq, S_sq, C_sq, CR, CtL, CtCR)


def _soft_last(Y, old, new, zeta, scratch, truth=None):
    """The returned ``S' = soft_threshold(Y - L R^T, zeta)`` from the factors
    ``old`` of the previous iterate, and the residual and error of the
    iterate ``new`` measured against it, in the row slabs of
    :func:`_soft_pass`.  Returns ``(S', pass)``."""
    S = np.empty(Y.shape)
    RT, RT_new = old.R.T, new.R.T
    resid_sq = err_sq = 0.0
    for sl, X, C, _ in scratch.rows(*Y.shape):
        T = np.subtract(Y[sl], _product_rows(old.L[sl], RT, X), out=X)
        np.subtract(T, np.clip(T, -zeta, zeta, out=C), out=S[sl])
        X = _product_rows(new.L[sl], RT_new, X)
        if truth is not None:
            err_sq += _sq(np.subtract(X, truth[sl], out=C))
        T = np.subtract(Y[sl], X, out=X)
        resid_sq += _sq(np.subtract(T, S[sl], out=X))
    return S, _Pass(resid_sq, err_sq)


def _soft_backward(Y, L, R, zeta, eta, L_bar, R_bar, scratch):
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
    RT = R.T
    solve_R, solve_L = _gram_solver(R.T @ R), _gram_solver(L.T @ L)
    P_bar, Q_bar = eta * solve_R(L_bar), eta * solve_L(R_bar)
    # C_bar = left right^T; C right = [C R, C Q_bar] and C^T left =
    # [C^T P_bar, C^T L] give the forward products and the factor adjoints.
    left, right = np.hstack((P_bar, L)), np.hstack((R, Q_bar))
    C_right, Ct_left = np.empty((n1, 2 * r)), np.zeros((n2, 2 * r))
    Tb_R, Tbt_L = np.empty((n1, r)), np.zeros((n2, r))
    zeta_bar = 0.0
    for sl, T, C, G in scratch.rows(n1, n2):
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
    P, Q = solve_R(C_right[:, :r]), solve_L(Ct_left[:, r:])
    eta_bar = float(np.vdot(L_bar, P) + np.vdot(R_bar, Q))
    GR_nbar, GL_nbar = P.T @ P_bar, Q.T @ Q_bar  # minus the Gram adjoints
    L_in_bar = L_bar + C_right[:, r:] - Tb_R - L @ (GL_nbar + GL_nbar.T)
    R_in_bar = R_bar + Ct_left[:, :r] - Tbt_L - R @ (GR_nbar + GR_nbar.T)
    return L_in_bar, R_in_bar, zeta_bar, eta_bar


def _sparsify_pass(Y, L, R, alpha_tilde, scratch, S=None, S_out=None,
                   truth=None, prev=None, resid_next=False):
    """:func:`_soft_pass` for top-fraction sparsification.  Its row and
    column cutoffs need the whole residual, so ``T`` is materialized and
    ``scratch`` goes unused."""
    X = L @ R.T
    err_sq = _sq(X - truth) if truth is not None else 0.0
    T = np.subtract(Y, X, out=X)
    resid_sq = _sq(T - S) if S is not None else 0.0
    if alpha_tilde is None:
        return _Pass(resid_sq, err_sq)
    S_new = _sparsify_unchecked(T, alpha_tilde)
    dS_sq = _sq(S_new - prev) if prev is not None else 0.0
    S_sq = _sq(prev) if prev is not None else 0.0
    if S_out is not None:
        np.copyto(S_out, S_new)
    W = np.subtract(S_new, T, out=T)
    WR = W @ R
    WtWR = W.T @ WR if resid_next else None
    return _Pass(resid_sq, err_sq, dS_sq, S_sq, _sq(W), WR, W.T @ L, WtWR)


def _sparsify_last(Y, old, new, alpha_tilde, scratch, truth=None):
    """:func:`_soft_last` for top-fraction sparsification."""
    S = _sparsify_unchecked(Y - old.product(), alpha_tilde)
    return S, _sparsify_pass(Y, new.L, new.R, None, scratch, S=S, truth=truth)


def _scaled_update(factors, p, eta):
    # Both factor updates read the pre-step L and R.
    L, R = factors.L, factors.R
    L_new = L - eta * gram_solve(p.WR, R.T @ R)
    R_new = R - eta * gram_solve(p.WtL, L.T @ L)
    return FactorPair(L_new, R_new)


def _soft_step(Y, factors, zeta, eta, scratch, S_out=None):
    """Factors after one soft-threshold iteration (S' into ``S_out``)."""
    p = _soft_pass(Y, factors.L, factors.R, zeta, scratch, S_out=S_out)
    return _scaled_update(factors, p, eta)


def _ratio(num_sq, den_sq):
    if den_sq == 0.0:
        return 0.0 if num_sq == 0.0 else float("inf")
    return float(np.sqrt(num_sq / den_sq))


def _low_rank_change(old, new):
    """``(||L' R'^T - L R^T||_F^2, ||L R^T||_F^2)`` from Gram products of the
    thin factors, without forming either product.

    The difference is ``A B^T`` with ``A = [L' - L, L]`` and
    ``B = [R', R' - R]``, so ``||A B^T||_F^2 = tr((A^T A)(B^T B))``.  No term
    of size ``||X||^2`` cancels, which keeps small changes accurate.
    """
    L, R = old.L, old.R
    A = np.hstack((new.L - L, L))
    B = np.hstack((new.R, new.R - R))
    diff_sq = max(float(np.sum((A.T @ A) * (B.T @ B))), 0.0)
    return diff_sq, float(np.sum((L.T @ L) * (R.T @ R)))


def _next_resid_sq(p, old, new, eta, dX_sq):
    """``||Y - L' R'^T - S'||_F^2`` of the iterate ``new`` that one step of
    size ``eta`` took from ``old``, from the sums of the pass ``p`` that made
    the step, so neither ``S'`` nor ``L' R'^T`` is read or formed.

    The residual is ``-(W + dX)`` with ``W = L R^T + S' - Y`` and
    ``dX = dL R'^T + L dR^T``, hence

        ||W + dX||^2 = ||W||^2 + 2 (<W R, dL> + <W^T dL, dR> + <W^T L, dR>)
                       + ||dX||^2,

    where ``W^T dL = -eta (W^T W R)(R^T R)^{-1}`` and ``dX_sq = ||dX||^2``
    comes from :func:`_low_rank_change`.  The terms cancel as the residual
    falls, so its rounding error stays near a fixed ``1e-17 ||Y||_F``
    rather than shrinking with it (see :class:`SolveTrace`).
    """
    dL, dR = new.L - old.L, new.R - old.R
    WtdL = -eta * gram_solve(p.WtWR, old.R.T @ old.R)
    cross = float(np.vdot(p.WR, dL) + np.vdot(WtdL + p.WtL, dR))
    return max(p.W_sq + 2.0 * cross + dX_sq, 0.0)


def _max_abs_err(factors, truth, scratch):
    """``||L R^T - truth||_inf`` over row slabs."""
    L, RT = factors.L, factors.R.T
    out = 0.0
    for sl, D, _, _ in scratch.rows(*truth.shape):
        np.matmul(L[sl], RT, out=D)
        D -= truth[sl]
        out = max(out, float(D.max()), -float(D.min()))
    return out


def lrpca_step(state, Y, zeta, eta):
    """One soft-threshold + scaled-gradient iteration from ``state``."""
    Ym = check_matrix(Y, "Y")
    if not zeta >= 0:  # NaN fails this test too
        raise InvalidInput(f"threshold must be >= 0, got {zeta}")
    if not _positive(eta):
        raise InvalidInput(f"step size must be finite and > 0, got {eta}")
    shape = (state.factors.L.shape[0], state.factors.R.shape[0])
    if shape != Ym.shape:
        raise InvalidInput(f"factors give shape {shape}, Y has {Ym.shape}")
    S = np.empty(Ym.shape)
    factors = _soft_step(Ym, state.factors, zeta, eta, _Scratch(), S_out=S)
    return SolverState(factors, S)


def _resolve_schedule(schedule, truth, max_iters):
    """Return (zeta0, params_fn) where params_fn(k, factors, scratch) ->
    (zeta, eta) for iteration k, given the factors of iterate k - 1 and the
    solve's slab buffers."""
    if isinstance(schedule, ParamSchedule):
        if schedule.K == 0 and max_iters > 0:
            raise InvalidInput("a schedule with K=0 has only zeta_0: it gives "
                               "no threshold or step size for iteration 1")
        return schedule.zeta0, lambda k, *_: schedule.at(k)
    if isinstance(schedule, OracleSchedule):
        if truth is None:
            raise InvalidInput("oracle schedule requires the true low-rank matrix")
        zeta0 = float(np.abs(truth).max())
        return zeta0, lambda k, f, scratch: (_max_abs_err(f, truth, scratch),
                                             schedule.eta)
    raise InvalidInput(f"unsupported schedule source {type(schedule).__name__}")


def _run(Y, stop, truth, init_fn, params_fn, pass_fn, last_fn):
    """The iteration loop shared by both solvers.

    Row 0 of the trace is measured against the init's ``S_0`` by the pass
    that thresholds for iteration 1.  The pass at iterate k measures its
    error against ``truth`` and returns the sums from which, once the factor
    update is made, iterate k + 1's residual follows (:func:`_next_resid_sq`),
    so the stop rule decides before the next pass.  The returned S is built
    once, by ``last_fn`` from the previous factors, which also measures the
    returned iterate directly; only ``iterate_change``, whose stop needs both
    ``S_k`` and ``S_{k+1}``, writes S' into a double buffer every pass.  An
    init whose residual is exactly zero ends the solve in every mode.
    Every pass reuses the solve's one set of slab buffers.
    ``wall_ms[k]`` is the time since the previous row.
    """
    trace = SolveTrace()
    ny = np.linalg.norm(Y)
    nt = np.linalg.norm(truth) if truth is not None else 0.0
    track = stop.mode == "iterate_change"
    by_residual = stop.mode == "residual_rel"
    t0 = time.perf_counter()

    def append(k, zeta, eta, res, err_sq):
        nonlocal t0
        rel = float(np.sqrt(err_sq) / nt) if nt > 0 else float("nan")
        t1 = time.perf_counter()
        trace.append(k, zeta, eta, res, rel, (t1 - t0) * 1e3)
        t0 = t1

    def residual(k, resid_sq):
        res = float(np.sqrt(resid_sq) / ny) if ny > 0 else 0.0
        if not np.isfinite(res):
            raise ConvergenceFailure(
                f"residual is {res} at iteration {k}: the iterates diverged")
        return res

    state, zeta = init_fn()
    factors, S = state.factors, state.S
    del state
    scratch = _Scratch()
    eta, k = float("nan"), 0
    nxt = params_fn(1, factors, scratch) if stop.max_iters > 0 else (None, None)
    S_next = np.empty(Y.shape) if track and stop.max_iters > 0 else None
    p = pass_fn(Y, factors.L, factors.R, nxt[0], scratch, S=S, S_out=S_next,
                truth=truth, prev=S if track else None, resid_next=True)
    res = residual(0, p.resid_sq)
    append(0, zeta, eta, res, p.err_sq)
    converged = res == 0.0 or (by_residual and res < stop.tolerance)
    while not converged and k < stop.max_iters:
        k += 1
        if not track:
            S = None  # last_fn builds the returned S
        zeta, eta = nxt
        try:
            new = _scaled_update(factors, p, eta)
        except SingularGram as exc:
            raise SingularGram(
                f"Gram factorization collapsed at iteration {k}: {exc}") from exc
        # Diverging factors overflow here; residual() then raises.
        with np.errstate(over="ignore", invalid="ignore"):
            dX_sq, X_sq = _low_rank_change(factors, new)
            resid_sq = _next_resid_sq(p, factors, new, eta, dX_sq)
        res = residual(k, resid_sq)
        if track:
            change = max(_ratio(dX_sq, X_sq), _ratio(p.dS_sq, p.S_sq))
            converged = change < stop.tolerance
            S, S_next = S_next, S
        else:
            converged = by_residual and res < stop.tolerance
        old, factors = factors, new
        if converged or k == stop.max_iters:
            break
        nxt = params_fn(k + 1, factors, scratch)
        p = pass_fn(Y, factors.L, factors.R, nxt[0], scratch, S_out=S_next,
                    truth=truth, prev=S, resid_next=True)
        append(k, zeta, eta, res, p.err_sq)
    if k > 0:  # measure the returned iterate against the returned S
        if track:
            p = pass_fn(Y, factors.L, factors.R, None, scratch, S=S, truth=truth)
        else:
            S, p = last_fn(Y, old, factors, zeta, scratch, truth)
        append(k, zeta, eta, residual(k, p.resid_sq), p.err_sq)
    trace.stop_reason = "converged" if converged else "max_iters"
    del scratch, S_next  # free the slab buffers and the spare S before X is formed
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
    check_seed(seed)
    if truth is not None:
        truth = check_matrix(truth, "truth")
        check_same_shape(Ym, truth)
    zeta0, params_fn = _resolve_schedule(schedule, truth, stop.max_iters)

    def init():
        return spectral_init(Ym, r, zeta0, seed=seed), zeta0

    return _run(Ym, stop, truth, init, params_fn, _soft_pass, _soft_last)


def solve_scaledgd(Y, r, alpha_tilde, eta, stop=StopRule(), truth=None, seed=0):
    """Baseline solver: top-fraction sparsification with a fixed step size.

    Initialization mirrors the main solver, with the sparsification operator
    in place of the threshold: ``S_0 = T_alpha(Y)``, then the rank-r SVD of
    :func:`spectral_init`, whose range sketch ``seed`` fixes bit-for-bit.
    """
    Ym = check_matrix(Y, "Y")
    r = check_rank(r, *Ym.shape)
    check_seed(seed)
    if not 0.0 <= alpha_tilde <= 1.0:
        raise InvalidInput(f"fraction must be in [0, 1], got {alpha_tilde}")
    if truth is not None:
        truth = check_matrix(truth, "truth")
        check_same_shape(Ym, truth)

    def init():
        S0 = _sparsify_unchecked(Ym, alpha_tilde)
        return _factor_state(Ym, S0, r, seed), alpha_tilde

    return _run(Ym, stop, truth, init,
                lambda *_: (alpha_tilde, eta), _sparsify_pass, _sparsify_last)
