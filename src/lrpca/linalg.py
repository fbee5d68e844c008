"""Dense linear-algebra substrate: norms, truncated SVD, Gram solves.

Everything operates on plain 2-D float64 numpy arrays.  The truncated SVD and
the spectral norm come straight from LAPACK.  The solver's initialization
sketch is the only randomized routine in the package; it is deterministic for
a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, SingularGram
from .validation import check_matrix, check_rank

__all__ = ["TruncatedSVD", "matrix_norm", "truncated_svd", "gram_solve"]

NORM_KINDS = ("fro", "inf", "two_inf", "one_inf", "spectral")

# Width beyond r and power passes of the solver's initialization sketch.
_SKETCH_OVERSAMPLE = 10
_SKETCH_PASSES = 3


@dataclass(frozen=True)
class TruncatedSVD:
    """Rank-r factorization ``U @ diag(sigma) @ V.T``.

    U is n1 x r and V is n2 x r, both with orthonormal columns; sigma is
    non-increasing and nonnegative.
    """

    U: np.ndarray
    sigma: np.ndarray
    V: np.ndarray

    @property
    def rank(self):
        return self.sigma.shape[0]

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
    A = check_matrix(M, "M")
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
    raise InvalidInput(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


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
    InvalidRank
        If ``r`` exceeds ``min(M.shape)``.
    """
    A = check_matrix(M, "M")
    r = check_rank(r, *A.shape)
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    return TruncatedSVD(np.ascontiguousarray(U[:, :r]), s[:r].copy(),
                        np.ascontiguousarray(Vt[:r].T))


def _sketch_svd(A, r, seed):
    """Rank-r SVD of ``A`` from a fixed-cost seeded range sketch.

    Randomized subspace iteration (Halko, Martinsson & Tropp 2011, Alg. 4.4):
    a Gaussian sketch of width ``r + _SKETCH_OVERSAMPLE``, ``_SKETCH_PASSES``
    power passes with a QR after every product, then one Rayleigh-Ritz SVD
    of ``Q^T A``; eight thin products for three passes, whatever the
    spectrum.  No accuracy target is checked: the error is set by the
    spectral gap, see :func:`lrpca.solver.spectral_init` for the contract.
    ``A`` is taken as a validated float64 matrix.
    """
    ell = r + _SKETCH_OVERSAMPLE
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(A @ rng.standard_normal((A.shape[1], ell)))[0]
    for _ in range(_SKETCH_PASSES):
        Q = np.linalg.qr(A.T @ Q)[0]
        Q = np.linalg.qr(A @ Q)[0]
    Ub, s, Vt = np.linalg.svd(Q.T @ A, full_matrices=False)
    return TruncatedSVD(Q @ Ub[:, :r], s[:r].copy(),
                        np.ascontiguousarray(Vt[:r].T))


def gram_solve(V, G, pivot_rtol=1e-14):
    """Solve ``W @ G = V`` for symmetric positive definite ``G``.

    ``G`` is factored once by LAPACK Cholesky, ``G = Lc Lc^T``; ``V`` is
    multiplied by the r x r inverse ``Lc^{-T} Lc^{-1}`` and the result gets
    one step of iterative refinement.  For cond(G) up to about 1e6 this keeps
    the residual ``||W G - V||_F`` below 1e-10 * ||V||_F; beyond that it
    grows with cond(G) (about 2e-9 relative at 1e8).

    Raises
    ------
    SingularGram
        If the factorization fails or a squared Cholesky pivot falls below
        ``pivot_rtol`` times the largest diagonal entry, i.e. G is
        numerically singular or indefinite.
    """
    Vm = check_matrix(V, "V")
    Gm = check_matrix(G, "G")
    r = Gm.shape[0]
    if Gm.shape != (r, r) or Vm.shape[1] != r:
        raise InvalidInput(f"shape mismatch: V {Vm.shape}, G {Gm.shape}")
    Gm = 0.5 * (Gm + Gm.T)
    try:
        Lc = np.linalg.cholesky(Gm)
    except np.linalg.LinAlgError as exc:
        raise SingularGram(f"Cholesky factorization failed: {exc}") from exc
    pivot = float((Lc.diagonal() ** 2).min())
    threshold = pivot_rtol * float(Gm.diagonal().max())
    if pivot <= threshold:
        raise SingularGram(f"pivot {pivot:.3e} below {threshold:.3e}")
    Lc_inv = np.linalg.inv(Lc)
    G_inv = Lc_inv.T @ Lc_inv
    W = Vm @ G_inv
    W += (Vm - W @ Gm) @ G_inv
    return W
