"""Exception types raised by the public API.  A caller's mistake raises
:class:`InvalidInput` (a ``ValueError``); every other :class:`LrpcaError`
is a failure found while the work runs."""

__all__ = ["LrpcaError", "InvalidInput", "ConvergenceFailure", "SingularGram",
           "TrainingDiverged", "FormatError"]


class LrpcaError(Exception):
    """Base class for all package errors."""


class InvalidInput(LrpcaError, ValueError):
    """A setting or input violates a documented precondition (shape,
    finiteness, emptiness, range, rank, seed, a missing ground truth);
    ``lrpca`` exits 2 on it."""


class ConvergenceFailure(LrpcaError):
    """An iterative routine did not converge: a solve's residual became
    NaN or infinite, so its iterates diverged."""


class SingularGram(LrpcaError):
    """Gram matrix factorization collapsed; signals factor degeneracy upstream."""


class TrainingDiverged(LrpcaError):
    """Training loss became NaN/Inf.  Carries the stage index."""

    def __init__(self, stage, message=None):
        self.stage = stage
        super().__init__(message or f"training diverged at stage {stage}")


class FormatError(LrpcaError):
    """A file does not hold what its format says: a matrix, a PGM frame or
    a schedule CSV that is malformed, truncated or gives an invalid
    schedule."""
