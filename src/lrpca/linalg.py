"""Dense linear-algebra substrate: norms, truncated SVD, the Gram solver.

Everything computes in float64: a float32 argument is read as float64, and
every result (factors, singular values, norms) is float64.  The public
functions check their arguments.  The Gram solver, :func:`gram_solve`, is
internal: it takes the solver's own float64 Grams, factors each once and
keeps its ``SingularGram`` checks on the factorization.  The truncated SVD
and the spectral norm come straight from LAPACK.  The solver's
initialization sketch is the only randomized routine in the package; it is
deterministic for a fixed seed.  Tall or wide inputs get the init's SVD from
the short side's Gram instead (see :func:`lrpca.solver.spectral_init`).
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SingularGram
from .validation import check_matrix, check_rank

__all__ = ["matrix_norm", "truncated_svd"]

# Width beyond r and power passes of the solver's initialization sketch.
_SKETCH_OVERSAMPLE = 10
_SKETCH_PASSES = 3

# The init takes its SVD from the short side's Gram when the long side is at
# least _GRAM_ASPECT times the short side and the short side at most
# _GRAM_MAX_SHORT (median times, r = 1 and 5): at short sides 100 to 256 the
# sketch was faster at 6:1 or less, the two tied at 8:1 (1280x160: 2.6 ms
# each) and the Gram was faster from 10:1 on (19200x60: 3.4 against 28 ms).
# Past 256 the Gram's eigensolve costs more: at 8:1 to 13:1 with short
# sides 300 to 600 the sketch was up to 2.5 times faster.
_GRAM_ASPECT = 8
_GRAM_MAX_SHORT = 256

# gram_solve rejects G when a squared Cholesky pivot falls to this fraction
# of G's largest diagonal entry.
_PIVOT_RTOL = 1e-14


def _float64(M, name):
    """:func:`~lrpca.validation.check_matrix`, then float64."""
    return check_matrix(M, name).astype(np.float64, copy=False)


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-r factorization ``U @ diag(sigma) @ V.T``.

    U is n1 x r and V is n2 x r, both with orthonormal columns; sigma is
    non-increasing and nonnegative.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    def product(self):
        """Dense reconstruction ``U @ diag(sigma) @ V.T``."""
        return (self.U * self.sigma) @ self.V.T


def matrix_norm(M, kind):
    """Matrix norm of ``M``.

    Parameters
    ----------
    M : array_like
        Nonempty real matrix.
    kind : {'fro', 'inf', 'two_inf', 'one_inf', 'spectral'}
        'inf' is the largest entry magnitude, 'two_inf' the largest row-wise
        l2 norm, 'one_inf' the largest row-wise l1 norm.  The spectral norm
        is the largest singular value from LAPACK (``np.linalg.norm(M, 2)``).
    """
    A = _float64(M, "M")
    if kind == "fro":
        return float(np.linalg.norm(A))
    if kind == "inf":
        return float(np.abs(A).max())
    if kind == "two_inf":
        return float(np.sqrt((A * A).sum(axis=1).max()))
    if kind == "one_inf":
        return float(np.abs(A).sum(axis=1).max())
    if kind == "spectral":
        return float(np.linalg.norm(A, 2))
    raise InvalidInput(f"unknown norm kind {kind!r}; expected one of "
                       "fro, inf, two_inf, one_inf, spectral")


def truncated_svd(M, r):
    """Best rank-r factorization of ``M``: the exact SVD, truncated.

    One dense LAPACK SVD (``np.linalg.svd``, thin), whatever the spectrum,
    so it is deterministic and near-equal singular values cost nothing
    extra.  The cost is O(n1 n2 min(n1, n2)) time and a thin copy of ``M``
    for any ``r``: a 2000 x 2000 input takes seconds.  For a large matrix
    and a small rank, :func:`lrpca.solver.spectral_init` with
    ``zeta0 >= max |M|`` (nothing thresholded) gets rank-r factors from a
    range sketch in O(n1 n2 r).

    Raises
    ------
    InvalidInput
        If ``r`` exceeds ``min(M.shape)``.
    """
    A = _float64(M, "M")
    return _exact_svd(A, check_rank(r, *A.shape))[0]


def _exact_svd(A, r, dA=None):
    """:func:`truncated_svd` of a checked ``A``, and the tangent of
    :func:`_rank_r_tangent` along ``dA`` (None without ``dA``)."""
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    f = TruncatedSVD(np.ascontiguousarray(U[:, :r]), s[:r].copy(),
                     np.ascontiguousarray(Vt[:r].T))
    return f, None if dA is None else _rank_r_tangent(U, s, Vt, dA, r)


def _rank_r_tangent(U, s, Vt, dB, r):
    """``(dB_r V_r, dB_r^T U_r)`` for the rank-r truncation ``B_r`` of
    ``B = U diag(s) Vt`` (thin SVD) moving along ``dB``.  Only the gaps
    ``s_i^2 - s_j^2`` with i <= r < j enter, so kept values may tie; raises
    :class:`SingularGram` when ``s_r <= _PIVOT_RTOL s_1``."""
    if not s[r - 1] > _PIVOT_RTOL * s[0]:
        raise SingularGram(f"numerical rank below {r}: s_{r} = {s[r - 1]:.3e}")
    dBV, dBtU = dB @ Vt[:r].T, dB.T @ U[:, :r]
    Ud, Vd = U[:, r:], Vt[r:].T
    D, E = Ud.T @ dBV, Vd.T @ dBtU  # U_j^T dB V_i and U_i^T dB V_j, j > r >= i
    sd, sk = s[r:, None], s[None, :r]
    gap = (sk - sd) * (sk + sd)
    return (dBV + Ud @ (sd * (sd * D + sk * E) / gap),
            dBtU + Vd @ (sd * (sd * E + sk * D) / gap))


def _qr(M, dM=None):
    """``Q`` of the thin QR ``M = Q R`` and, given ``dM``, its tangent
    ``dM R^{-1} - Q (X - O)``, with ``X = Q^T dM R^{-1}`` and ``O`` the skew
    matrix sharing the strict lower triangle of ``X``.  The tangent is None
    when ``min R_ii^2 <= _PIVOT_RTOL max R_ii^2`` (``M`` rank deficient)."""
    Q, R = np.linalg.qr(M)
    d = R.diagonal() ** 2
    if dM is None or not d.min() > _PIVOT_RTOL * d.max():
        return Q, None
    dMRi = dM @ np.linalg.inv(R)
    X = Q.T @ dMRi
    low = np.tril(X, -1)
    return Q, dMRi - Q @ (X - low + low.T)


def _sketch_svd(A, r, seed, dA=None):
    """Rank-r SVD of ``A`` from a fixed-cost seeded range sketch.

    Randomized subspace iteration (Halko, Martinsson & Tropp 2011, Alg. 4.4):
    a Gaussian sketch of width ``r + _SKETCH_OVERSAMPLE``, ``_SKETCH_PASSES``
    power passes with a QR after every product, then one Rayleigh-Ritz SVD
    of ``Q^T A``; eight thin products for three passes, whatever the
    spectrum.  No accuracy target is checked: the error is set by the
    spectral gap, see :func:`lrpca.solver.spectral_init` for the contract.
    ``A`` is taken as a validated float64 matrix.

    Returns ``(svd, tangent)``: forward mode carries ``dA`` through every
    product and QR to ``(dX V, dX^T U)`` for ``X = Q B_r``, ``B = Q^T A``.
    Once a QR finds ``A`` of rank below the sketch width, ``X = A_r``.
    """
    ell = r + _SKETCH_OVERSAMPLE
    rng = np.random.default_rng(seed)
    G = rng.standard_normal((A.shape[1], ell))
    Q, dQ = _qr(A @ G, None if dA is None else dA @ G)
    del G  # no longer needed: keep it out of the passes' peak memory
    for _ in range(_SKETCH_PASSES):
        Q, dQ = _qr(A.T @ Q, None if dQ is None else dA.T @ Q + A.T @ dQ)
        Q, dQ = _qr(A @ Q, None if dQ is None else dA @ Q + A @ dQ)
    Ub, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    f = TruncatedSVD(Q @ Ub[:, :r], s[:r].copy(),
                     np.ascontiguousarray(Vt[:r].T))
    if dA is None:
        return f, None
    if dQ is None:
        return f, _rank_r_tangent(Q @ Ub, s, Vt, dA, r)
    # dX = dQ B_r + Q dB_r with dB = dQ^T A + Q^T dA.
    dBV, dBtU = _rank_r_tangent(Ub, s, Vt, dQ.T @ A + Q.T @ dA, r)
    Ur = Ub[:, :r]
    return f, (dQ @ (Ur * f.sigma) + Q @ dBV,
               (f.V * f.sigma) @ (Ur.T @ (dQ.T @ Q) @ Ur) + dBtU)


def _gram_svd(A, r, dA=None):
    """Rank-r SVD of ``A`` from ``eigh`` of its short side's Gram, or None
    when the Gram's eigenvalues cannot vouch for the init's contract.

    For a tall ``A`` the Gram is ``G = A^T A`` (``A A^T`` for a wide one):
    its top r eigenpairs give ``V_r`` and ``sigma = sqrt(lambda)``, and
    ``U = A V_r / sigma``.  That is one product with ``A`` and one
    eigensolve of the short side's size, whatever the seed.

    Forming ``G`` squares the conditioning, so the route checks its own
    accuracy against :func:`lrpca.solver.spectral_init`'s contract.  The
    computed eigenpairs are taken as exact for ``G`` moved by at most
    ``delta = n eps lambda_1`` in the 2-norm: the normwise bound ``p(n) eps
    ||G||_2`` of a symmetric eigensolver, with ``p(n) = n`` for the short
    side n.  (The computed Gram of an exactly rank-deficient ``A`` had its
    zero eigenvalues within ``4 eps lambda_1`` of 0 at 520 x 30 to 19200 x
    60.)  Each eigenvalue is then off by ``delta`` at most (Weyl), and
    ``||U diag(sigma) V_r^T - A_r||_F <= e ||A_r||_F`` with ``e = sqrt(2 r)
    delta / (lambda_r - lambda_{r+1} - 2 delta)`` (Davis & Kahan).  The
    route returns None unless that gap is positive and ``e`` is within the
    contract's ``10 rho^7 + 1e-12`` at the smallest ``rho = sigma_{r+1} /
    sigma_r`` the eigenvalues allow, ``sqrt((lambda_{r+1} - delta) /
    (lambda_r + delta))``.  So an ``A`` of rank below r, all zero included,
    never takes it.  ``A`` is taken as a validated float64 matrix.

    With ``dA``, the tangent of :func:`_rank_r_tangent` from all the Gram's
    eigenpairs, whose ``U = A V / sigma`` is one more n_long x n_short
    array.
    """
    wide = A.shape[0] < A.shape[1]
    B = A.T if wide else A
    lam, V = np.linalg.eigh(B.T @ B)
    lam, V = np.maximum(lam[::-1], 0.0), V[:, ::-1]  # G is semidefinite
    delta = B.shape[1] * np.finfo(np.float64).eps * lam[0]
    gap = lam[r - 1] - lam[r] - 2 * delta
    if not gap > 0:  # so lambda_r > 2 delta >= 0
        return None
    rho = np.sqrt(max(lam[r] - delta, 0.0) / (lam[r - 1] + delta))
    if np.sqrt(2 * r) * delta > (10 * rho ** 7 + 1e-12) * gap:
        return None
    s = np.sqrt(lam)
    Vr = np.ascontiguousarray(V[:, :r])
    f = TruncatedSVD(B @ Vr / s[:r], s[:r], Vr)
    if wide:
        f = TruncatedSVD(f.V, f.sigma, f.U)
    if dA is None:
        return f, None
    U = B @ V
    # A column with sigma = 0 enters the tangent only times sigma.
    np.divide(U, s, out=U, where=s > 0)
    dBV, dBtU = _rank_r_tangent(U, s, V.T, dA.T if wide else dA, r)
    return f, (dBtU, dBV) if wide else (dBV, dBtU)


def gram_solve(G):
    """Factor the r x r Gram ``G`` once; return the solver ``V -> W`` of
    ``W @ G = V``.

    Internal: a solver step or a backward layer of training factors each
    of its Grams, ``R^T R`` and ``L^T L``, once here and applies it to
    every n x r matrix it scales.  ``G`` and ``V`` are the caller's own
    float64 arrays and are not checked; a non-finite ``V`` (diverging
    iterates) gives a non-finite ``W``, which the solve's residual reports.
    ``G`` is factored by LAPACK Cholesky, ``G = Lc Lc^T``; ``V`` is
    multiplied by the inverse ``Lc^{-T} Lc^{-1}`` and gets one step of
    iterative refinement.  Each product is a GEMM, or at r = 1 a broadcast
    multiply, which gives the same values.  For cond(G) up to about 1e6
    this keeps the residual ``||W G - V||_F`` below 1e-10 * ||V||_F; beyond
    that it grows with cond(G) (about 2e-9 relative at 1e8).

    Raises
    ------
    SingularGram
        If the factorization fails or a squared Cholesky pivot falls below
        ``_PIVOT_RTOL`` (1e-14) times the largest diagonal entry, i.e. G is
        numerically singular or indefinite.
    """
    Gm = 0.5 * (G + G.T)
    try:
        Lc = np.linalg.cholesky(Gm)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Cholesky factorization failed: {exc}") from exc
    pivot = float((Lc.diagonal() ** 2).min())
    threshold = _PIVOT_RTOL * float(Gm.diagonal().max())
    if pivot <= threshold:
        raise SingularGram(f"pivot {pivot:.3e} below {threshold:.3e}")
    Lc_inv = np.linalg.inv(Lc)
    G_inv = Lc_inv.T @ Lc_inv
    # At r = 1 each product is one multiply per entry: a broadcast makes it
    # with the values a GEMM of inner dimension 1 gives, in a tenth of the
    # time (best of 5 on a 2-vCPU VM with OpenBLAS, 19200 x 1 times 1 x 1:
    # 5.1 against 55 us).
    prod = np.multiply if Gm.shape[0] == 1 else np.matmul

    def solve(V):
        W = prod(V, G_inv)
        W += prod(V - prod(W, Gm), G_inv)
        return W
    return solve
