"""Learned robust PCA: low-rank + sparse decomposition with trainable
per-iteration thresholds and step sizes."""

from .errors import (ConvergenceFailure, FormatError, InvalidInput,
                     LrpcaError, ParseError, SingularGram, TrainingDiverged)
from .linalg import matrix_norm, truncated_svd
from .operators import soft_threshold, sparsify_top_fraction
from .schedule import (ParamSchedule, read_schedule, rescale_schedule,
                       write_schedule)
from .solver import (FactorPair, FixedSchedule, OracleSchedule, SolverState,
                     StopRule, lrpca_step, solve, solve_scaledgd,
                     spectral_init)
from .synth import InstanceSource, ProblemInstance, banded_sparse_matrix, gen_instance
from .training import TrainConfig, grid_search_tail, layerwise_train, train_schedule
from .matrixio import read_matrix, write_matrix
from .video import (FrameSequence, background_subtract, frames_to_matrix,
                    moving_blob_scene, read_pgm, read_pgm_sequence, write_pgm)

__version__ = "0.1.0"

__all__ = [
    "matrix_norm", "truncated_svd",
    "soft_threshold", "sparsify_top_fraction",
    "ParamSchedule", "rescale_schedule", "read_schedule", "write_schedule",
    "FactorPair", "SolverState", "StopRule",
    "FixedSchedule", "OracleSchedule", "spectral_init", "lrpca_step",
    "solve", "solve_scaledgd",
    "ProblemInstance", "InstanceSource", "gen_instance", "banded_sparse_matrix",
    "TrainConfig", "layerwise_train", "grid_search_tail",
    "train_schedule",
    "read_matrix", "write_matrix",
    "FrameSequence", "read_pgm", "write_pgm", "read_pgm_sequence",
    "frames_to_matrix", "background_subtract", "moving_blob_scene",
    "LrpcaError", "InvalidInput", "ConvergenceFailure", "SingularGram",
    "TrainingDiverged", "FormatError", "ParseError",
]
