"""Input validation helpers shared by the public operations."""

import numpy as np

from .errors import InvalidDimensions, InvalidInput, InvalidRank

__all__ = ["check_matrix", "check_rank", "check_same_shape"]


def check_matrix(M, name="matrix"):
    """Coerce ``M`` to a 2-D float64 array and validate it.

    Every public operation funnels its matrix arguments through here, so the
    rest of the code base can assume finite float64 inputs.
    """
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidDimensions(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size == 0:
        raise InvalidDimensions(f"{name} is empty (shape {A.shape})")
    if not np.isfinite(A).all():
        raise InvalidInput(f"{name} contains NaN or Inf entries")
    return np.ascontiguousarray(A)


def check_rank(r, n1, n2):
    r = int(r)
    if r < 1:
        raise InvalidRank(f"rank must be >= 1, got {r}")
    if r > min(n1, n2):
        raise InvalidRank(f"rank {r} exceeds min(shape)={min(n1, n2)}")
    return r


def check_same_shape(*mats):
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise InvalidDimensions(f"shape mismatch: {sorted(shapes)}")
