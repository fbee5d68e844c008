"""Elementwise outlier-detection operators.

Two detectors are provided: soft-thresholding (shrink every entry toward
zero by a level ``zeta``) and top-fraction sparsification (keep an entry only
if it ranks among the largest magnitudes of both its row and its column).
"""

import numpy as np

from .errors import InvalidInput
from .validation import check_matrix

__all__ = ["soft_threshold", "sparsify_top_fraction"]


def soft_threshold(M, zeta):
    """Shrink every entry of ``M`` toward zero by ``zeta``.

    ``out_ij = sign(M_ij) * max(0, |M_ij| - zeta)``.
    """
    if not zeta >= 0:  # NaN fails this test too
        raise InvalidInput(f"threshold must be >= 0, got {zeta}")
    A = check_matrix(M, "M")
    # A - clip(A, +-zeta), written into the clip's buffer: one temporary.
    C = np.clip(A, -zeta, zeta)
    return np.subtract(A, C, out=C)


def sparsify_top_fraction(M, alpha_tilde):
    """Keep entries in the top ``alpha_tilde`` magnitude fraction of both
    their row and their column; zero the rest.

    The keep count per row is ``floor(alpha_tilde * cols)`` and per column
    ``floor(alpha_tilde * rows)``; a zero count forces a zero output.  Ties
    at the cutoff magnitude are all kept.
    """
    if not 0.0 <= alpha_tilde <= 1.0:
        raise InvalidInput(f"fraction must be in [0, 1], got {alpha_tilde}")
    A = check_matrix(M, "M")
    return _sparsify_unchecked(A, alpha_tilde)


def _sparsify_unchecked(A, alpha_tilde):
    n1, n2 = A.shape
    k_row = int(np.floor(alpha_tilde * n2))
    k_col = int(np.floor(alpha_tilde * n1))
    if k_row == 0 or k_col == 0:
        return np.zeros_like(A)
    mag = np.abs(A)
    row_cut = np.partition(mag, n2 - k_row, axis=1)[:, n2 - k_row][:, None]
    col_cut = np.partition(mag, n1 - k_col, axis=0)[n1 - k_col, :][None, :]
    return np.where((mag >= row_cut) & (mag >= col_cut), A, 0.0)
