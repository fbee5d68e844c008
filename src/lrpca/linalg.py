"""Dense linear-algebra substrate: norms, truncated SVD, Gram solves.

Everything operates on plain 2-D float64 numpy arrays.  The truncated SVD and
the solver's initialization sketch are the only randomized routines in the
package; both are deterministic for a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, SingularGram
from .validation import check_matrix, check_rank

__all__ = ["TruncatedSVD", "matrix_norm", "truncated_svd", "gram_solve"]

NORM_KINDS = ("fro", "inf", "two_inf", "one_inf", "spectral")

_SPECTRAL_TOL = 1e-10
_SPECTRAL_CAP = 1000

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
        is computed by power iteration (relative tolerance 1e-10, capped at
        1000 iterations).
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
        return _spectral_norm(A)
    raise InvalidInput(f"unknown norm kind {kind!r}; expected one of {NORM_KINDS}")


def _spectral_norm(A):
    n2 = A.shape[1]
    # Deterministic start; fall back to basis vectors if the all-ones vector
    # is annihilated by A.
    v = np.full(n2, 1.0 / np.sqrt(n2))
    if np.linalg.norm(A @ v) == 0.0:
        for j in range(n2):
            if np.linalg.norm(A[:, j]) > 0.0:
                v = np.zeros(n2)
                v[j] = 1.0
                break
        else:
            return 0.0
    sigma = 0.0
    for _ in range(_SPECTRAL_CAP):
        u = A @ v
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return 0.0
        w = A.T @ (u / nu)
        sigma_new = float(np.linalg.norm(w))
        if sigma_new == 0.0:
            return nu if nu > 0 else 0.0
        v = w / sigma_new
        if abs(sigma_new - sigma) <= _SPECTRAL_TOL * sigma_new:
            return sigma_new
        sigma = sigma_new
    return sigma


def truncated_svd(M, r, seed=0, oversample=10, min_passes=4, cap=1000):
    """Best rank-r factorization of ``M``, deterministic for a fixed seed.

    Uses randomized subspace iteration with ``oversample`` extra sketch
    columns.  Power passes continue adaptively until the retained singular
    subspaces are stationary, so the reconstruction agrees with a dense
    reference decomposition to ~1e-10 relative Frobenius error.  When the
    sketch block would not be thinner than the matrix the dense LAPACK path
    is used directly.

    Raises
    ------
    InvalidRank
        If ``r`` exceeds ``min(M.shape)``.
    ConvergenceFailure
        If the subspace has not stabilized after ``cap`` passes.
    """
    A = check_matrix(M, "M")
    n1, n2 = A.shape
    r = check_rank(r, n1, n2)

    if not np.any(A):
        return TruncatedSVD(np.eye(n1, r), np.zeros(r), np.eye(n2, r))

    ell = r + int(oversample)
    if ell >= min(n1, n2):
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        return TruncatedSVD(np.ascontiguousarray(U[:, :r]), s[:r].copy(),
                            np.ascontiguousarray(Vt[:r].T))

    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(A @ rng.standard_normal((n2, ell)))[0]
    prev_u = prev_v = None
    deltas = []
    extra = -1
    for passes in range(1, cap + 1):
        Z = np.linalg.qr(A.T @ Q)[0]
        Q = np.linalg.qr(A @ Z)[0]
        B = Q.T @ A
        Ub, s, Vt = np.linalg.svd(B, full_matrices=False)
        U = Q @ Ub[:, :r]
        V = Vt[:r].T
        if prev_u is not None:
            delta = max(_subspace_sine(U, prev_u), _subspace_sine(V, prev_v))
            deltas.append(delta)
            if extra < 0 and passes >= min_passes:
                # The measured delta floors near sqrt(eps), well above the
                # true subspace error, so stagnation alone is not enough:
                # after it triggers, keep contracting by the observed rate
                # for six more decades.  Immediate stationarity (first delta
                # already negligible) only happens for effectively
                # rank-deficient inputs, which are exact after one pass.
                if delta <= 1e-13 and deltas[0] <= 1e-3:
                    extra = 0
                elif delta <= 1e-7:
                    extra = _extra_passes(deltas)
            if extra > 0:
                extra -= 1
            elif extra == 0:
                return TruncatedSVD(np.ascontiguousarray(U), s[:r].copy(),
                                    np.ascontiguousarray(V))
        prev_u, prev_v = U, V
    raise ConvergenceFailure(f"subspace iteration did not stabilize in {cap} passes")


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


def _subspace_sine(U, U_prev):
    """Sine of the largest principal angle between two orthonormal ranges."""
    c = np.linalg.svd(U.T @ U_prev, compute_uv=False)
    return float(np.sqrt(max(0.0, 1.0 - min(c) ** 2)))


def _extra_passes(deltas):
    # Contraction factor per pass, measured while the angles were still well
    # above the float-noise floor; drives how far to overshoot stagnation.
    ratios = [b / a for a, b in zip(deltas, deltas[1:])
              if a > 1e-6 and b > 1e-8]
    rho = max(min(np.median(ratios) if ratios else 0.5, 0.98), 1e-3)
    return int(np.clip(np.ceil(np.log(1e-6) / np.log(rho)), 6, 900))


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
