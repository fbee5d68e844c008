"""Input validation helpers shared by the public operations."""

import numbers

import numpy as np

from .errors import InvalidInput

__all__ = ["check_count", "check_fraction", "check_matrix", "check_nonneg",
           "check_positive", "check_rank", "check_same_shape", "check_seed",
           "check_values"]


def check_matrix(M, name="matrix"):
    """Coerce ``M`` to a finite, nonempty, C-contiguous 2-D float array.

    ``M`` must hold integers or floats.  A float32 array stays float32;
    any other becomes float64.  Every public operation funnels its matrix
    arguments through here, so the rest of the code base can assume finite
    inputs of one of those two dtypes.
    What each operation makes of a float32 input is one rule: an output the
    size of its matrix argument (a solve's ``X`` and ``S``, a threshold's
    result) keeps the input's dtype, and everything smaller (factors,
    singular values, Gram solves, norms and sums) is float64.
    """
    A = np.asarray(M)
    if A.dtype.kind not in "iuf":  # no bools, complex, strings or objects
        raise InvalidInput(f"{name} must hold real numbers, got dtype {A.dtype}")
    if A.dtype != np.float32:
        A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got ndim={A.ndim}")
    if A.size == 0:
        raise InvalidInput(f"{name} is empty (shape {A.shape})")
    if not np.isfinite(A).all():
        raise InvalidInput(f"{name} contains NaN or Inf entries")
    return np.ascontiguousarray(A)


def check_count(n, name, low=1):
    """``n`` as an ``int``; it must be an integer (numpy's too, not a
    ``bool``) >= ``low``."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < low:
        raise InvalidInput(f"{name} must be >= {low} and an integer, "
                           f"got {n!r}")
    return int(n)


def check_fraction(x, name):
    """``x`` as a ``float``; it must be a real number (not a ``bool``) in
    [0, 1]."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                   and 0.0 <= x <= 1.0):
        raise InvalidInput(f"{name} must be in [0, 1], got {x}")
    return float(x)


def check_nonneg(x, name):
    """``x`` as a ``float``; it must be a real number (not a ``bool``) >= 0,
    ``inf`` included.  A threshold or a tolerance."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real) and x >= 0):
        raise InvalidInput(f"{name} must be >= 0, got {x}")
    return float(x)


def check_positive(x, name):
    """``x`` as a ``float``; it must be a finite real number (not a
    ``bool``) > 0.  A step size, a tail factor or a learning rate."""
    if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                   and 0 < x < np.inf):
        raise InvalidInput(f"{name} must be finite and > 0, got {x}")
    return float(x)


def check_values(x, name, length=None):
    """``x`` as a ``tuple``; it must be a tuple, a list or a 1-D array, of
    ``length`` entries when that is given.  Its entries are checked by the
    caller."""
    if not (isinstance(x, (tuple, list))
            or isinstance(x, np.ndarray) and x.ndim == 1):
        raise InvalidInput(f"{name} must be a tuple, a list or a 1-D array, "
                           f"got {x!r}")
    if length is not None and len(x) != length:
        raise InvalidInput(f"{name} must have {length} values, got {len(x)}")
    return tuple(x)


def check_rank(r, n1, n2):
    r = check_count(r, "rank")
    if r > min(n1, n2):
        raise InvalidInput(f"rank {r} exceeds min(shape)={min(n1, n2)}")
    return r


def check_same_shape(*mats):
    shapes = {m.shape for m in mats}
    if len(shapes) != 1:
        raise InvalidInput(f"shape mismatch: {sorted(shapes)}")


def check_seed(seed):
    return check_count(seed, "seed", 0)
