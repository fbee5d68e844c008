"""Grayscale frame sequences, PGM I/O, and background subtraction.

Frames are stored as float arrays in [0, 1].  A sequence is one matrix:
each frame, flattened row-major, is one column; the static background of a
scene is then the low-rank part of that matrix and moving objects land in
the sparse part.

Frames read from disk are float32, which holds every 8-bit sample divided
by its maxval to within float32's rounding, so the solve on them runs its
slab passes in float32 (see :func:`lrpca.solver.solve`); the background
and foreground sequences it gives are float64, like every other frame the
module returns.
"""

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidInput
from .solver import StopRule, solve
from .validation import check_count, check_matrix

__all__ = ["FrameSequence", "read_pgm", "write_pgm", "read_pgm_sequence",
           "frames_to_matrix", "background_subtract", "moving_blob_scene"]


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Equal-sized grayscale frames with values in [0, 1], held as one
    ``(height*width) x n_frames`` matrix: column j is frame j, row-major.
    Any 2-D array-like is held as ``np.asarray`` gives it, uncopied and
    unchecked for finiteness, which ``solve`` and :func:`write_pgm` check.

    ``frames`` are views of the columns, so writing into the matrix changes
    the frames (and the reverse): copy it before writing.  The matrix's
    layout decides what a solve copies:

    - :func:`read_pgm_sequence` builds a C-ordered matrix, which
      :func:`background_subtract` solves on without a copy;
    - :func:`moving_blob_scene` builds an F-ordered one, so each frame is
      contiguous; a solve copies it once;
    - :func:`background_subtract` returns F-ordered sequences from a
      float32 solve, so each frame is contiguous, and C-ordered ones, the
      solve's own buffers, from a float64 one.

    From separate frame arrays, build a sequence with
    ``FrameSequence(np.stack(frames).reshape(n, -1).T, height, width)``.
    ``==`` is identity; compare the matrices to compare contents.
    """

    matrix: np.ndarray
    height: int
    width: int

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix))
        check_count(self.height, "frame height")
        check_count(self.width, "frame width")
        shape = self.matrix.shape
        if len(shape) != 2 or shape[0] != self.height * self.width:
            raise InvalidInput(f"frame matrix of shape {shape} does not hold "
                               f"{self.height}x{self.width} frames")
        if shape[1] == 0:
            raise InvalidInput("frame sequence must contain at least one frame")

    @property
    def frames(self):
        """The frames, each a height x width view of its column."""
        return tuple(self.matrix.T.reshape(len(self), self.height, self.width))

    def __len__(self):
        return self.matrix.shape[1]


def read_pgm(path):
    """Decode one binary (P5) PGM file with maxval <= 255 into a [0, 1] frame."""
    img, maxval = _decode_pgm(path)
    return img.astype(np.float64) / maxval


def _decode_pgm(path):
    """``(samples, maxval)`` of one P5 PGM file: a height x width uint8
    array, every sample checked against the maxval."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens, offset = _header_tokens(data, path)
    magic, width, height, maxval = tokens
    if magic != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {magic!r})")
    try:
        width, height, maxval = int(width), int(height), int(maxval)
    except ValueError as exc:
        raise FormatError(f"{path}: malformed header") from exc
    if maxval > 255 or maxval <= 0:
        raise FormatError(f"{path}: unsupported maxval {maxval}")
    if width < 1 or height < 1:
        raise FormatError(f"{path}: unsupported frame size {width}x{height}")
    payload = data[offset:offset + width * height]
    if len(payload) != width * height:
        raise FormatError(f"{path}: truncated pixel data")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and img.max(initial=0) > maxval:
        raise FormatError(f"{path}: sample {img.max()} exceeds maxval {maxval}")
    return img, maxval


# Whitespace and ``#`` comments (each to the end of its line), then one
# token: a ``#`` inside a token is part of it.
_HEADER_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?:\n|\Z))*([^\s#]\S*)")


def _header_tokens(data, path):
    """First four whitespace-delimited header tokens, skipping # comments."""
    tokens, end = [], 0
    for _ in range(4):
        m = _HEADER_TOKEN.match(data, end)
        if m is None:
            raise FormatError(f"{path}: truncated header")
        tokens.append(m.group(1))
        end = m.end()
    return tokens, end + 1  # single whitespace after maxval precedes the payload


def write_pgm(frame, path):
    """Write one frame as P5 PGM, clamping to [0, 1] and quantizing to 0-255."""
    # One C-contiguous copy, checked, then clamped, scaled and rounded in
    # place: a strided frame (a column view of a frame matrix) is read once.
    A = check_matrix(np.array(frame, dtype=np.float64, order="C"), "frame")
    np.clip(A, 0.0, 1.0, out=A)
    A *= 255.0
    with open(path, "wb") as fh:
        fh.write(f"P5\n{A.shape[1]} {A.shape[0]}\n255\n".encode("ascii"))
        fh.write(np.round(A, out=A).astype(np.uint8))


def read_pgm_sequence(directory):
    """Read the frame sequence of a directory: all ``*.pgm`` files, in
    lexicographic filename order.

    The files' 8-bit samples are divided by their maxvals in one pass,
    straight into the columns of one C-ordered float32 frame matrix: each
    value is the float32 rounding of the one :func:`read_pgm` gives.
    """
    if not os.path.isdir(directory):
        raise InvalidInput(f"frames directory not found: {directory}")
    paths = sorted(os.path.join(directory, name) for name in os.listdir(directory)
                   if name.lower().endswith(".pgm"))
    if not paths:
        raise InvalidInput("no PGM frames found")
    decoded = [_decode_pgm(p) for p in paths]
    shapes = {img.shape for img, _ in decoded}
    if len(shapes) != 1:
        raise InvalidInput(f"inconsistent frame dimensions: {sorted(shapes)}")
    samples = np.stack([img.reshape(-1) for img, _ in decoded])  # frame per row
    maxvals = np.array([maxval for _, maxval in decoded], dtype=np.float32)
    M = np.empty(samples.shape[::-1], np.float32)
    np.divide(samples.T, maxvals, out=M)
    return FrameSequence(M, *shapes.pop())


def frames_to_matrix(seq):
    """(height*width) x n_frames matrix; column j is frame j, row-major.

    This is the sequence's own matrix, not a copy: copy it before writing
    into it.
    """
    return seq.matrix


def background_subtract(seq, r, schedule,
                        stop=StopRule("iterate_change", 1e-3, 100), seed=0):
    """Split a frame sequence into background and foreground sequences.

    Runs the decomposition on the sequence's frame matrix (a C-ordered one,
    as read from disk, uncopied), in its dtype; background frames come from
    the low-rank columns and foreground frames from the magnitude of the
    sparse columns, both clamped to [0, 1] and float64.  A float64 solve's
    outputs are clamped in its own buffers; a float32 one's are clamped
    into float64 copies, made one after the other, each freeing its source,
    so that at most one float32 output is held beside them.  The copies are
    F-ordered, so each frame that :func:`write_pgm` copies is contiguous.
    Returns ``(background, foreground, trace)``.
    """
    X, S, trace = solve(seq.matrix, r, schedule, stop=stop, seed=seed)
    X = _clamped64(X)
    S = _clamped64(np.abs(S, out=S))
    return (FrameSequence(X, seq.height, seq.width),
            FrameSequence(S, seq.height, seq.width), trace)


def _clamped64(M):
    """``M`` clamped to [0, 1] as float64: in ``M`` itself if it is
    float64, else into a new C-ordered frames x pixels array, returned
    transposed, so each frame (column) is contiguous."""
    if M.dtype == np.float64:
        return np.clip(M, 0.0, 1.0, out=M)
    return np.clip(M.T, 0.0, 1.0, out=np.empty(M.shape[::-1])).T


def moving_blob_scene(height=24, width=32, n_frames=40, blob=5,
                      amplitude=0.85, phase=(3, 2)):
    """Synthetic test scene: a static background plus one bright moving
    square blob.  Returns ``(FrameSequence, mask_sequence)`` where the mask
    marks the blob pixels of each frame.  ``phase`` offsets the blob track,
    giving distinct scenes from one geometry.  The frame matrix is
    F-ordered, so each frame is contiguous."""
    yy, xx = np.mgrid[0:height, 0:width]
    # Rank-2 background (constant plus a separable ramp).
    base = 0.2 + 0.4 * (xx / max(width - 1, 1)) * (yy / max(height - 1, 1))
    frames = np.empty((n_frames, height, width))
    masks = []
    # Strides larger than the blob keep successive positions disjoint, so no
    # pixel is occluded often enough to leak into the low-rank background.
    row_stride = blob + 2
    col_stride = blob + 3
    for t in range(n_frames):
        mask = np.zeros((height, width), dtype=bool)
        top = (phase[0] + row_stride * t) % max(height - blob, 1)
        left = (phase[1] + col_stride * t) % max(width - blob, 1)
        frames[t] = base
        frames[t, top:top + blob, left:left + blob] = amplitude
        mask[top:top + blob, left:left + blob] = True
        masks.append(mask)
    return FrameSequence(frames.reshape(n_frames, -1).T, height, width), masks
