"""Grayscale frame sequences, PGM I/O, and background subtraction.

Frames are stored as float arrays in [0, 1].  A sequence is turned into a
matrix by flattening each frame row-major into one column; the static
background of a scene is then the low-rank part of that matrix and moving
objects land in the sparse part.
"""

import os
import re
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, InvalidInput
from .solver import StopRule, solve
from .validation import check_matrix

__all__ = ["FrameSequence", "read_pgm", "write_pgm", "read_pgm_sequence",
           "frames_to_matrix", "matrix_to_frames", "background_subtract",
           "moving_blob_scene"]


@dataclass(frozen=True)
class FrameSequence:
    """Stack of equal-sized grayscale frames with values in [0, 1]."""

    frames: tuple  # of 2-D arrays, each height x width

    def __post_init__(self):
        if not self.frames:
            raise InvalidInput("frame sequence must contain at least one frame")
        shapes = {f.shape for f in self.frames}
        if len(shapes) != 1:
            raise InvalidInput(f"inconsistent frame dimensions: {sorted(shapes)}")

    @property
    def height(self):
        return self.frames[0].shape[0]

    @property
    def width(self):
        return self.frames[0].shape[1]

    def __len__(self):
        return len(self.frames)


def read_pgm(path):
    """Decode one binary (P5) PGM file with maxval <= 255 into a [0, 1] frame."""
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
    payload = data[offset:offset + width * height]
    if len(payload) != width * height:
        raise FormatError(f"{path}: truncated pixel data")
    img = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and img.max(initial=0) > maxval:
        raise FormatError(f"{path}: sample {img.max()} exceeds maxval {maxval}")
    return img.astype(np.float64) / maxval


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
    A = check_matrix(frame, "frame")
    q = np.round(np.clip(A, 0.0, 1.0) * 255.0).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"P5\n{A.shape[1]} {A.shape[0]}\n255\n".encode("ascii"))
        fh.write(q.tobytes(order="C"))


def read_pgm_sequence(directory):
    """Read the frame sequence of a directory: all ``*.pgm`` files, in
    lexicographic filename order."""
    if not os.path.isdir(directory):
        raise InvalidInput(f"frames directory not found: {directory}")
    paths = sorted(os.path.join(directory, name) for name in os.listdir(directory)
                   if name.lower().endswith(".pgm"))
    if not paths:
        raise InvalidInput("no PGM frames found")
    return FrameSequence(tuple(read_pgm(p) for p in paths))


def frames_to_matrix(seq):
    """(height*width) x n_frames matrix; column j is frame j, row-major."""
    return np.stack([f.reshape(-1) for f in seq.frames], axis=1)


def matrix_to_frames(M, height, width):
    """Inverse of :func:`frames_to_matrix`."""
    A = check_matrix(M, "M")
    if A.shape[0] != height * width:
        raise InvalidInput(f"matrix has {A.shape[0]} rows, "
                           f"expected {height * width}")
    frames = tuple(A[:, j].reshape(height, width) for j in range(A.shape[1]))
    return FrameSequence(frames)


def background_subtract(seq, r, schedule,
                        stop=StopRule("iterate_change", 1e-3, 100), seed=0):
    """Split a frame sequence into background and foreground sequences.

    Runs the decomposition on the vectorized frame matrix; background frames
    come from the low-rank columns and foreground frames from the magnitude
    of the sparse columns, both clamped to [0, 1] in the solve's own output
    buffers.  Returns ``(background, foreground, trace)``.
    """
    if r > len(seq):
        raise InvalidInput(f"rank {r} exceeds frame count {len(seq)}")
    X, S, trace = solve(frames_to_matrix(seq), r, schedule, stop=stop, seed=seed)
    bg = matrix_to_frames(np.clip(X, 0.0, 1.0, out=X), seq.height, seq.width)
    fg = matrix_to_frames(np.clip(np.abs(S, out=S), 0.0, 1.0, out=S),
                          seq.height, seq.width)
    return bg, fg, trace


def moving_blob_scene(height=24, width=32, n_frames=40, blob=5,
                      amplitude=0.85, phase=(3, 2)):
    """Synthetic test scene: a static background plus one bright moving
    square blob.  Returns ``(FrameSequence, mask_sequence)`` where the mask
    marks the blob pixels of each frame.  ``phase`` offsets the blob track,
    giving distinct scenes from one geometry."""
    yy, xx = np.mgrid[0:height, 0:width]
    # Rank-2 background (constant plus a separable ramp).
    base = 0.2 + 0.4 * (xx / max(width - 1, 1)) * (yy / max(height - 1, 1))
    frames = []
    masks = []
    # Strides larger than the blob keep successive positions disjoint, so no
    # pixel is occluded often enough to leak into the low-rank background.
    row_stride = blob + 2
    col_stride = blob + 3
    for t in range(n_frames):
        frame = base.copy()
        mask = np.zeros((height, width), dtype=bool)
        top = (phase[0] + row_stride * t) % max(height - blob, 1)
        left = (phase[1] + col_stride * t) % max(width - blob, 1)
        frame[top:top + blob, left:left + blob] = amplitude
        mask[top:top + blob, left:left + blob] = True
        frames.append(frame)
        masks.append(mask)
    return FrameSequence(tuple(frames)), masks
