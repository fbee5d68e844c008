"""Matrix persistence.

Binary format: magic bytes ``LRPM``, little-endian uint64 rows and cols,
then rows*cols little-endian float64 values in row-major order.  Round
trips are bit-exact.
"""

import os
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
    """Read a matrix written by :func:`write_matrix` from a regular file,
    whose length bounds the size a header may claim."""
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
        # A forged header must not make the reader allocate what it claims.
        size, left = rows * cols * 8, os.fstat(fh.fileno()).st_size - fh.tell()
        payload = fh.read(size) if size <= left else b""
        if len(payload) != size:
            raise FormatError(f"{path}: truncated payload "
                              f"({left} of {size} bytes)")
    data = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return data.reshape(rows, cols)

