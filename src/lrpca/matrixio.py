"""Matrix persistence.

Binary format: magic bytes ``LRPM``, little-endian uint64 rows and cols,
then rows*cols little-endian float64 values in row-major order.  Round
trips are bit-exact.
"""

import struct

import numpy as np

from .errors import FormatError
from .validation import check_matrix

__all__ = ["read_matrix", "write_matrix"]

_MAGIC = b"LRPM"


def write_matrix(M, path):
    """Write ``M`` to ``path`` in the binary format."""
    A = check_matrix(M, "M")
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<QQ", A.shape[0], A.shape[1]))
        fh.write(A.astype("<f8", copy=False).tobytes(order="C"))


def read_matrix(path):
    """Read a matrix written by :func:`write_matrix`."""
    with open(path, "rb") as fh:
        head = fh.read(4)
        if head != _MAGIC:
            raise FormatError(f"{path}: bad magic {head!r}, expected {_MAGIC!r}")
        dims = fh.read(16)
        if len(dims) != 16:
            raise FormatError(f"{path}: truncated header")
        rows, cols = struct.unpack("<QQ", dims)
        if rows == 0 or cols == 0:
            raise FormatError(f"{path}: empty matrix ({rows}x{cols})")
        payload = fh.read(rows * cols * 8)
        if len(payload) != rows * cols * 8:
            raise FormatError(f"{path}: truncated payload "
                              f"({len(payload)} of {rows * cols * 8} bytes)")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(rows, cols)

