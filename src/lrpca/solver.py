"""Low-rank + sparse decomposition solvers.

The main iteration alternates a soft-thresholded outlier update

    S_{k+1} = soft_threshold(Y - L_k R_k^T, zeta_{k+1})

with scaled gradient steps on the factors of ``X = L R^T``

    L_{k+1} = L_k - eta (L_k R_k^T + S_{k+1} - Y) R_k (R_k^T R_k)^{-1}
    R_{k+1} = R_k - eta (L_k R_k^T + S_{k+1} - Y)^T L_k (L_k^T L_k)^{-1}

seeded by a spectral initialization (threshold Y once, then a rank-r SVD of
the rest: exact on small inputs, from the short side's Gram on tall or wide
ones such as videos, and from a seeded three-pass range sketch on the rest;
see :func:`spectral_init`).
The Gram-scaled steps make the per-iteration progress insensitive to the
conditioning of the low-rank part.  The baseline :func:`solve_scaledgd`
(ScaledGD) swaps the threshold for top-fraction sparsification at a fixed
step size; both solvers run one driver, :func:`_run`.

One iteration makes a single pass over ``Y`` in row slabs (see
:func:`_soft_pass`): each slab forms its rows of ``L R^T`` once, thresholds
and accumulates the thin products ``W R``, ``W^T L`` and ``W^T W R``; the
rest is ``O(n r^2)`` work on the factors, for which each step forms each
Gram, ``L^T L`` and ``R^T R``, once and factors it once (see
:func:`_scaled_update`).  The next iterate's residual follows from those
products and Grams (:func:`_step_sums`), so the residual stop reads no
``S``.  Besides ``Y``, a solve holds one ``S`` buffer, ``S_0`` at the
init, and the returned ``X``; it returns the buffer holding ``S_k``, the
outlier rule's pass at the previous iterate (zero before the init, whose
pass gives ``S_0``).  Under the ``iterate_change`` stop, which compares
consecutive ``S``, every pass replaces ``S_k`` with ``S_{k+1}`` in it
slab by slab; the other stops write ``S_k`` into it at the end.
The passes' three slab-sized scratch buffers are allocated once per solve,
or once per training run, and reused by every pass (see :class:`_Scratch`).

A solve follows the dtype of ``Y`` where the bytes are: on a float32 ``Y``
(a video read from 8-bit frames) every slab pass, the ``S`` it holds and
the returned ``X`` and ``S`` are float32, which halves the memory traffic
of a pass.  Everything n x r or smaller stays float64: the factors, the
init's SVD (read from a float64 copy), the Gram solves, the stop tests and
every sum, which the passes add across slabs in float64.  Any other ``Y``
is solved in float64.

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
from .linalg import (_GRAM_ASPECT, _GRAM_MAX_SHORT, _SKETCH_OVERSAMPLE,
                     _exact_svd, _gram_svd, _sketch_svd, gram_solve,
                     truncated_svd)
from .operators import _sparsify_unchecked, soft_threshold
from .schedule import ParamSchedule
from .validation import (check_count, check_fraction, check_matrix,
                         check_nonneg, check_positive, check_rank,
                         check_same_shape, check_seed)

__all__ = [
    "FactorPair", "SolverState", "StopRule",
    "FixedSchedule", "OracleSchedule",
    "spectral_init", "lrpca_step", "solve", "solve_scaledgd",
]


@dataclass(frozen=True)
class FactorPair:
    """The (L, R) factorization state with X = L @ R.T."""

    L: np.ndarray
    R: np.ndarray

    def product(self):
        return _product_rows(self.L, self.R.T)


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
        check_count(self.max_iters, "max_iters", 0)
        check_nonneg(self.tolerance, "tolerance")


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
    residual of 1e-6, 1e-6 relative at 1e-12.  A float32 solve's rows,
    all of them, differ from that dense residual recomputed in float64 by
    float32's rounding: at most 1.1e-7 in absolute terms on 120 x 160 video
    clips and 300 x 200 and 2400 x 60 synthetic solves, that is 1e-5
    relative at a residual of 1e-4 and 8e-5 at 1e-5.  A row whose residual
    is not finite means the iterates diverged: the solve raises
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
        check_positive(self.eta, "step size")


def spectral_init(Y, r, zeta0, seed=0, tangent=False):
    """Initial state: ``S_0 = soft_threshold(Y, zeta0)``, factors from a
    rank-r SVD of ``A = Y - S_0`` (L = U sqrt(Sigma), R = V sqrt(Sigma)).

    The SVD takes one of three routes, by the shape of ``A`` alone:

    - **Exact**, when the short side is at most ``2 (r + 10)``: one LAPACK
      SVD, :func:`~lrpca.linalg.truncated_svd`, which costs no more than
      the sketch there.  It is the exact truncation ``A_r``.
    - **Gram**, when the short side exceeds ``2 (r + 10)`` but is at most
      256, and the long side is at least 8 times the short side (a video's
      pixels by frames): ``eigh`` of the short side's Gram, ``A^T A`` or
      ``A A^T``, and ``U = A V_r / sigma`` (one product with ``A``).  Its
      own eigenvalues check that squaring the conditioning keeps the
      contract below; where they cannot (an ``A`` of rank below r or
      ill-conditioned at rank r), the init takes the sketch.
    - **Sketch**, otherwise: a seeded Gaussian range sketch of width
      ``r + 10``, three power passes with a QR after every product, then
      one Rayleigh-Ritz SVD of ``Q^T A`` (Halko, Martinsson & Tropp 2011,
      Alg. 4.4), eight thin products with ``A`` whatever its spectrum.

    Contract, of the Gram route and, with high probability over the seed,
    of the sketch:

        ||L R^T - A_r||_F <= (10 (sigma_{r+1} / sigma_r)^7 + 1e-12) ||A_r||_F

    where ``A_r`` is the exact rank-r truncation of ``A`` and ``sigma_j`` its
    singular values (the exponent counts the sketch's 2 * 3 + 1
    applications of ``A``; measured constants stay below 1).  The init thus
    follows the spectral gap rather than an accuracy target, which the
    iteration does not need: it corrects the factors from the first step
    on.  Only the sketch reads ``seed``, which must be >= 0 on every route.
    Whatever the route, the factors are fixed bit for bit on one machine,
    numpy/BLAS build and BLAS thread count (not across thread counts).

    With ``tangent``, returns ``(state, FactorPair(dL, dR))``: forward mode
    through the route taken, from ``dA/dzeta0 = sign(S_0)``, gives
    ``dX = d(L R^T)``, all the Gram-scaled iteration sees, and
    ``dL = (I - U U^T / 2) dX V Sigma^{-1/2}``, ``dR`` likewise.  The state
    is the one a call without ``tangent`` returns, to the bit.  If ``A``
    has numerical rank below r, it raises :class:`~lrpca.errors.SingularGram`.

    Besides ``Y``, the init holds one n1 x n2 buffer, which is ``A`` while
    the SVD reads it and ``S_0`` before and after, and ``sign(S_0)`` with
    ``tangent``.  A tangent on the Gram route holds one more array of
    ``A``'s size, ``A`` times all the Gram's eigenvectors.

    A float32 ``Y`` gives a float32 ``S_0``, while the factors and the
    tangent (and ``sign(S_0)``) are float64: the SVD reads a float64 copy
    of ``A``, which the init holds beside the float32 buffer, as many bytes
    as a float64 init holds.  At float32's eps the Gram route's rounding
    bound would reject every video and send it to the sketch, eight times
    slower at 19200 x 60.
    """
    Ym = check_matrix(Y, "Y")
    r = check_rank(r, *Ym.shape)
    check_seed(seed)
    return _factor_state(Ym, soft_threshold(Ym, zeta0), r, seed, tangent)


def _factor_state(Y, S0, r, seed, tangent=False):
    """The init's state from ``S0`` (and its tangent, from ``sign(S0)``),
    holding one n1 x n2 buffer besides ``Y`` (and ``dA``): ``S0`` turns into
    ``A = Y - S0`` while the SVD reads it, then back into ``S0``.

    The round trip is exact.  An entry of ``S0`` is 0, the entry ``y`` of
    ``Y``, or ``fl(y - c)`` with ``c`` of the sign of ``y`` and ``|c| <
    |y|``.  In the last case ``y - c`` is exact when ``|c| >= |y| / 2``, and
    ``S0`` is within a factor 2 of ``y`` otherwise; so ``y - S0`` is exact
    (Sterbenz), and ``y - (y - S0)`` gives ``S0`` back bit for bit.
    """
    dA = np.sign(S0, dtype=np.float64) if tangent else None
    A = np.subtract(Y, S0, out=S0)
    # The SVD reads a float32 A through a float64 copy: the Gram route's
    # rounding bound holds for float64's eps, and at float32's it would
    # turn down every video.
    A64 = A.astype(np.float64, copy=False)
    short, long = sorted(A.shape)
    # Below a short side of twice the sketch width an exact SVD costs no
    # more than the sketch, so small inputs keep the exact truncation.
    if short > 2 * (r + _SKETCH_OVERSAMPLE):
        gram = (_gram_svd(A64, r, dA) if short <= _GRAM_MAX_SHORT
                and long >= _GRAM_ASPECT * short else None)
        f, dX = gram if gram is not None else _sketch_svd(A64, r, seed, dA)
    elif dA is None:
        f, dX = truncated_svd(A64, r), None
    else:
        f, dX = _exact_svd(A64, r, dA)
    del A64
    root = np.sqrt(f.sigma)
    state = SolverState(FactorPair(f.U * root, f.V * root),
                        np.subtract(Y, A, out=A))
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
    nothing.  The buffers have the ``dtype`` of the passes that use them:
    a pass forms its slabs in it (see :func:`_soft_pass`).
    """

    def __init__(self, dtype=np.float64):
        self.dtype = np.dtype(dtype)
        self._bufs = ()

    def slabs(self, n1, n2):
        """``(rows per slab, (buffer, buffer, buffer))`` for an n1 x n2 pass."""
        step = _block_rows(n1, n2)
        if not self._bufs or self._bufs[0].shape != (step, n2):
            self._bufs = ()  # free the old set before making the new one
            self._bufs = tuple(np.empty((step, n2), self.dtype)
                               for _ in range(3))
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
    dS_sq: float = 0.0           # ||S' - S||_F^2, S as S_out held it
    S_sq: float = 0.0            # ||S||_F^2
    W_sq: float = 0.0            # ||W||_F^2 with W = L R^T + S' - Y
    WR: np.ndarray = None        # W R
    WtL: np.ndarray = None       # W^T L
    WtWR: np.ndarray = None      # W^T W R


def _sq(A):
    """``||A||_F^2`` as a float.  A float32 ``A`` is summed by BLAS in runs
    of at most ``_SLAB_ELEMS`` entries, which are added in float64: one
    float32 dot over 1.15 million entries was off by 1e-6 relative, one
    over 65,536 by 6e-8, while a float64 sum would triple the time."""
    if A.dtype == np.float64 or A.size <= _SLAB_ELEMS:
        return float(np.vdot(A, A))
    a = A.reshape(-1)
    return sum(_sq(a[i:i + _SLAB_ELEMS]) for i in range(0, a.size, _SLAB_ELEMS))


def _in_dtype(dtype, *mats):
    """``mats`` in ``dtype``: themselves in their own dtype, else rounded
    copies; a pass forms its slabs from the factors in the slabs' dtype."""
    return tuple(M.astype(dtype, copy=False) for M in mats)


def _product_rows(L_rows, RT, out=None):
    """``L_rows @ RT``, into ``out`` when given.  At r = 1 the GEMM with
    inner dimension 1 and a broadcast multiply are both slow; ``einsum``
    gives the same values (a zero product comes out as +0, not -0) in half
    the time.  Medians on a 2-vCPU VM with OpenBLAS, for a 1092 x 60 slab:
    GEMM 94 us, broadcast 74 us, einsum 37 us (a subtract of the slab takes
    18 us); for the whole 19200 x 60 X: GEMM 1.9 ms, einsum 0.77 ms."""
    if L_rows.shape[1] == 1:
        return np.einsum("ik,kj->ij", L_rows, RT, out=out)
    return np.matmul(L_rows, RT, out=out)


def _soft_pass(Y, L, R, zeta, scratch, S=None, S_out=None, truth=None,
               for_stop=False):
    """One slab-streamed pass of the soft-threshold iteration.

    Every row slab forms ``X_sl = L_sl R^T`` once and ``T_sl = Y_sl - X_sl``,
    then adds ``||T_sl - S_sl||^2`` (when ``S`` is given) and
    ``||X_sl - truth_sl||^2`` (when ``truth`` is given).  With a threshold
    ``zeta`` it fills ``W_sl R`` and accumulates ``W_sl^T L_sl`` with
    ``W_sl = -clip(T_sl, +-zeta)``.  With ``S_out`` it forms
    ``S'_sl = T_sl + W_sl`` in the slab scratch and copies it into
    ``S_out``.  With ``for_stop`` it also adds ``||W_sl||^2`` and
    accumulates ``W_sl^T W_sl R``, from which :func:`_step_sums` takes
    the residual of the next iterate, and, when ``S_out`` is given, adds
    ``||S'_sl - S_sl||^2`` and ``||S_sl||^2`` for the ``S_sl`` that
    ``S_out`` holds until ``S'_sl`` overwrites it: so an ``iterate_change``
    solve compares ``S_k`` with ``S_{k+1}`` and replaces one with the other
    in the one ``S`` it holds.  So one iteration reads Y once, and S only
    when asked to, and never holds an n1 x n2 temporary; without ``zeta``
    the pass only measures the iterate.

    The slabs, ``C R`` and the copies of ``L`` and ``R`` they are formed
    from are in ``scratch.dtype``, the dtype of ``Y``, ``S`` and ``truth``
    in a solve: float32 halves the bytes the pass moves.  Each slab's sums
    and products with ``C`` are added across slabs in float64, and every
    returned array is float64.
    """
    n1, n2 = Y.shape
    r = L.shape[1]
    L, R = _in_dtype(scratch.dtype, L, R)
    RT = R.T
    resid_sq = err_sq = dS_sq = S_sq = C_sq = 0.0
    CR = CtL = CtCR = None
    if zeta is not None:
        CR = np.empty((n1, r), scratch.dtype)
        CtL = np.zeros((n2, r))
        if for_stop:
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
            # S' goes through the scratch, so S_out keeps S until the copy.
            Sn = np.subtract(T, C, out=D)
            if for_stop:
                P = S_out[sl]
                dS_sq += _sq(np.subtract(Sn, P, out=T))
                S_sq += _sq(P)
            S_out[sl] = Sn
        np.matmul(C, R, out=CR[sl])
        CtL += C.T @ L[sl]
        if for_stop:
            CtCR += C.T @ CR[sl]
            C_sq += _sq(C)
    if zeta is not None:
        CR = np.negative(CR, out=CR).astype(np.float64, copy=False)
        np.negative(CtL, out=CtL)
    return _Pass(resid_sq, err_sq, dS_sq, S_sq, C_sq, CR, CtL, CtCR)


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
    solve_R, solve_L = gram_solve(R.T @ R), gram_solve(L.T @ L)
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
                   truth=None, for_stop=False):
    """:func:`_soft_pass` for top-fraction sparsification.  Its row and
    column cutoffs need the whole residual, so ``T`` is materialized in
    ``scratch.dtype`` and the slab buffers go unused; ``W`` is read in
    float64 by the thin products."""
    Lp, Rp = _in_dtype(scratch.dtype, L, R)
    X = _product_rows(Lp, Rp.T)
    err_sq = _sq(X - truth) if truth is not None else 0.0
    T = np.subtract(Y, X, out=X)
    resid_sq = _sq(T - S) if S is not None else 0.0
    if alpha_tilde is None:
        return _Pass(resid_sq, err_sq)
    S_new = _sparsify_unchecked(T, alpha_tilde)
    dS_sq = S_sq = 0.0
    if S_out is not None:
        if for_stop:
            dS_sq, S_sq = _sq(S_new - S_out), _sq(S_out)
        np.copyto(S_out, S_new)
    W = np.subtract(S_new, T, out=T).astype(np.float64, copy=False)
    WR = W @ R
    WtWR = W.T @ WR if for_stop else None
    return _Pass(resid_sq, err_sq, dS_sq, S_sq, _sq(W), WR, W.T @ L, WtWR)


def _scaled_update(factors, p, eta):
    """The factors after a step of size ``eta`` with the products of the
    pass ``p`` at ``factors``, and for a ``for_stop`` pass the step's sums
    (:func:`_step_sums`, else None).  Both updates read the pre-step L and
    R; each Gram is formed and factored once, and the sums reuse both."""
    L, R = factors.L, factors.R
    GL, GR = L.T @ L, R.T @ R
    solve_R = gram_solve(GR)
    new = FactorPair(L - eta * solve_R(p.WR), R - eta * gram_solve(GL)(p.WtL))
    if p.WtWR is None:
        return new, None
    return new, _step_sums(p, factors, new, eta, GL, GR, solve_R)


def _soft_step(Y, factors, zeta, eta, scratch, S_out=None):
    """Factors after one soft-threshold iteration (S' into ``S_out``)."""
    p = _soft_pass(Y, factors.L, factors.R, zeta, scratch, S_out=S_out)
    return _scaled_update(factors, p, eta)[0]


def _ratio(num_sq, den_sq):
    if den_sq == 0.0:
        return 0.0 if num_sq == 0.0 else float("inf")
    return float(np.sqrt(num_sq / den_sq))


def _step_sums(p, old, new, eta, GL, GR, solve_R):
    """``(||X' - X||_F^2, ||X||_F^2, ||Y - X' - S'||_F^2)`` for the step of
    size ``eta`` that the pass ``p`` made from ``old`` (``X = L R^T``, Grams
    ``GL``, ``GR``, ``solve_R`` the solver of ``GR``) to ``new``, from Gram
    products of thin factors: ``X``, ``X'`` and ``S'`` are never read.

    ``dX = A B^T`` with ``A = [dL, L]`` and ``B = [R', dR]``, so ``||dX||^2
    = tr((A^T A)(B^T B))``: no term of size ``||X||^2`` cancels, which keeps
    small changes accurate.  The residual is ``-(W + dX)`` with ``W = L R^T
    + S' - Y``, hence

        ||W + dX||^2 = ||W||^2 + 2 (<W R, dL> + <W^T dL, dR> + <W^T L, dR>)
                       + ||dX||^2,

    where ``W^T dL = -eta (W^T W R)(R^T R)^{-1}``.  The terms cancel as the
    residual falls, so its rounding error stays near a fixed ``1e-17
    ||Y||_F`` rather than shrinking with it (see :class:`SolveTrace`).
    """
    dL, dR = new.L - old.L, new.R - old.R
    A, B = np.hstack((dL, old.L)), np.hstack((new.R, dR))
    dX_sq = max(float(np.sum((A.T @ A) * (B.T @ B))), 0.0)
    WtdL = -eta * solve_R(p.WtWR)
    cross = float(np.vdot(p.WR, dL) + np.vdot(WtdL + p.WtL, dR))
    resid_sq = max(p.W_sq + 2.0 * cross + dX_sq, 0.0)
    return dX_sq, float(np.sum(GL * GR)), resid_sq


def _max_abs_err(factors, truth, scratch):
    """``||L R^T - truth||_inf`` over row slabs, in ``scratch.dtype``."""
    L, R = _in_dtype(scratch.dtype, factors.L, factors.R)
    RT = R.T
    out = 0.0
    for sl, D, _, _ in scratch.rows(*truth.shape):
        _product_rows(L[sl], RT, D)
        D -= truth[sl]
        out = max(out, float(D.max()), -float(D.min()))
    return out


def lrpca_step(state, Y, zeta, eta):
    """One soft-threshold + scaled-gradient iteration from ``state``."""
    Ym = check_matrix(Y, "Y")
    zeta = check_nonneg(zeta, "threshold")
    eta = check_positive(eta, "step size")
    check_matrix(state.factors.L, "L")
    check_matrix(state.factors.R, "R")
    shape = (state.factors.L.shape[0], state.factors.R.shape[0])
    if shape != Ym.shape:
        raise InvalidInput(f"factors give shape {shape}, Y has {Ym.shape}")
    S = np.empty(Ym.shape, Ym.dtype)
    factors = _soft_step(Ym, state.factors, zeta, eta, _Scratch(Ym.dtype),
                         S_out=S)
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


def _run(Y, r, schedule, stop, truth, seed, init_fn, pass_fn):
    """The solve driver of both outlier rules.

    It checks the inputs, resolves ``schedule``, takes the init's state
    from ``init_fn(Y, r, zeta_0, seed)`` and iterates with the rule's slab
    pass ``pass_fn``.  Row 0 of the trace is measured against the init's
    ``S_0`` by the pass that thresholds for iteration 1.  The pass at
    iterate k measures its error against ``truth`` and returns the sums
    from which the factor update also gives iterate k + 1's residual
    (:func:`_step_sums`), so the stop rule decides before the next pass.
    An init whose residual is exactly zero ends the solve in every mode.

    Every solve holds the init's ``S_0`` buffer to the end and returns it
    holding ``S_k``, the rule's pass at the previous iterate; before the
    init that iterate is zero, whose pass reads ``Y - 0 = Y`` and so gives
    ``S_0`` bit for bit.  Under ``iterate_change``, whose stop compares
    ``S_k`` with ``S_{k+1}``, every ``for_stop`` pass compares S' with the
    S in the buffer before writing over it, slab by slab, so the buffer
    holds ``S_k`` already, unless the solve ended at the init, where the
    row-0 pass wrote ``S_1`` over ``S_0``.  Otherwise one more ``pass_fn``
    at the previous iterate writes ``S_k`` into it, and a measure-only pass
    measures the returned iterate against it.  Every pass reuses the
    solve's one set of slab buffers.  ``wall_ms[k]`` is the time since the
    previous row.
    """
    Y = check_matrix(Y, "Y")
    r = check_rank(r, *Y.shape)
    check_seed(seed)
    if truth is not None:
        truth = check_matrix(truth, "truth").astype(Y.dtype, copy=False)
        check_same_shape(Y, truth)
    zeta, params_fn = _resolve_schedule(schedule, truth, stop.max_iters)
    trace = SolveTrace()
    ny = np.sqrt(_sq(Y))
    nt = np.sqrt(_sq(truth)) if truth is not None else 0.0
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

    state = init_fn(Y, r, zeta, seed)
    factors, S = state.factors, state.S
    del state
    # The zero iterate before the init, whose pass at zeta_0 gives S_0.
    old = FactorPair(np.zeros((Y.shape[0], r)), np.zeros((Y.shape[1], r)))
    scratch = _Scratch(Y.dtype)
    eta, k = float("nan"), 0
    # Diverging factors overflow in the slab passes, float32 ones before
    # float64 ones, and in the factor update and its sums; residual() then
    # raises.
    with np.errstate(over="ignore", invalid="ignore"):
        nxt = params_fn(1, factors, scratch) if stop.max_iters > 0 else (None, None)
        S_out = S if track else None  # only iterate_change compares S_k, S_{k+1}
        p = pass_fn(Y, factors.L, factors.R, nxt[0], scratch, S=S,
                    S_out=S_out, truth=truth, for_stop=True)
        res = residual(0, p.resid_sq)
        append(0, zeta, eta, res, p.err_sq)
        converged = res == 0.0 or (by_residual and res < stop.tolerance)
        while not converged and k < stop.max_iters:
            k += 1
            zeta, eta = nxt
            try:
                new, (dX_sq, X_sq, resid_sq) = _scaled_update(factors, p, eta)
            except SingularGram as exc:
                raise SingularGram(
                    f"Gram factorization collapsed at iteration {k}: {exc}") from exc
            res = residual(k, resid_sq)
            if track:
                change = max(_ratio(dX_sq, X_sq), _ratio(p.dS_sq, p.S_sq))
                converged = change < stop.tolerance
            else:
                converged = by_residual and res < stop.tolerance
            old, factors = factors, new
            if converged or k == stop.max_iters:
                break
            nxt = params_fn(k + 1, factors, scratch)
            p = pass_fn(Y, factors.L, factors.R, nxt[0], scratch, S_out=S_out,
                        truth=truth, for_stop=True)
            append(k, zeta, eta, res, p.err_sq)
        if not track or k == 0 < stop.max_iters:  # S_k from iterate k - 1
            pass_fn(Y, old.L, old.R, zeta, scratch, S_out=S)
        if k > 0:  # measure the returned iterate against the returned S
            p = pass_fn(Y, factors.L, factors.R, None, scratch, S=S, truth=truth)
            append(k, zeta, eta, residual(k, p.resid_sq), p.err_sq)
    trace.stop_reason = "converged" if converged else "max_iters"
    del scratch  # free the slab buffers before X is formed
    return _product_rows(*_in_dtype(Y.dtype, factors.L, factors.R.T)), S, trace


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
        :func:`spectral_init`); fixes the output bit for bit on one
        machine, numpy/BLAS build and BLAS thread count.  Across thread
        counts the last bits differ, the iteration counts do not.

    Returns
    -------
    (X_hat, S_hat, trace)
    """
    return _run(Y, r, schedule, stop, truth, seed, spectral_init, _soft_pass)


def solve_scaledgd(Y, r, alpha_tilde, eta, stop=StopRule(), truth=None, seed=0):
    """Baseline solver: top-fraction sparsification with a fixed step size.

    It runs :func:`solve`'s driver with ``FixedSchedule(alpha_tilde, eta)``
    and the sparsification operator ``T_alpha`` in place of the threshold:
    ``S_0 = T_alpha(Y)``, then the rank-r SVD of :func:`spectral_init`, whose
    range sketch ``seed`` fixes bit for bit (on one machine, numpy/BLAS build
    and BLAS thread count, as for :func:`solve`), and the returned ``S`` is
    ``T_alpha`` of the residual at the previous iterate.
    """
    check_fraction(alpha_tilde, "fraction")
    check_positive(eta, "step size")

    def init(Y, r, alpha_tilde, seed):
        return _factor_state(Y, _sparsify_unchecked(Y, alpha_tilde), r, seed)

    return _run(Y, r, FixedSchedule(alpha_tilde, eta), stop, truth, seed,
                init, _sparsify_pass)
