"""Learned robust PCA: low-rank + sparse decomposition with trainable
per-iteration thresholds and step sizes."""

from .errors import (ConvergenceFailure, FormatError, InvalidDimensions,
                     InvalidFraction, InvalidInput, InvalidRank,
                     InvalidThreshold, LrpcaError, MissingGroundTruth,
                     ParseError, SingularGram, TrainingDiverged)
from .estimators import LRPCA, UnfoldingTrainer
from .linalg import TruncatedSVD, gram_solve, matrix_norm, truncated_svd
from .operators import soft_threshold, sparsify_top_fraction
from .schedule import (ParamSchedule, export_schedule, import_schedule,
                       read_schedule, rescale_schedule, write_schedule)
from .solver import (FactorPair, FixedSchedule, OracleSchedule, SolverState,
                     SolveTrace, StopRule, lrpca_step, residual_rel,
                     scaledgd_step, solve, solve_scaledgd, spectral_init)
from .synth import InstanceSource, ProblemInstance, banded_sparse_matrix, gen_instance
from .training import TrainConfig, grid_search_tail, layerwise_train, stage_loss, train_schedule
from .matrixio import read_matrix, write_matrix
from .video import (FrameSequence, background_subtract, frames_to_matrix,
                    matrix_to_frames, moving_blob_scene, read_pgm,
                    read_pgm_sequence, write_pgm)

__version__ = "0.1.0"

__all__ = [
    "LRPCA", "UnfoldingTrainer",
    "TruncatedSVD", "matrix_norm", "truncated_svd", "gram_solve",
    "soft_threshold", "sparsify_top_fraction",
    "ParamSchedule", "rescale_schedule", "export_schedule",
    "import_schedule", "read_schedule", "write_schedule",
    "FactorPair", "SolverState", "StopRule", "SolveTrace",
    "FixedSchedule", "OracleSchedule", "spectral_init", "lrpca_step",
    "scaledgd_step", "solve", "solve_scaledgd", "residual_rel",
    "ProblemInstance", "InstanceSource", "gen_instance", "banded_sparse_matrix",
    "TrainConfig", "stage_loss", "layerwise_train", "grid_search_tail",
    "train_schedule",
    "read_matrix", "write_matrix",
    "FrameSequence", "read_pgm", "write_pgm", "read_pgm_sequence",
    "frames_to_matrix", "matrix_to_frames", "background_subtract",
    "moving_blob_scene",
    "LrpcaError", "InvalidInput", "InvalidDimensions", "InvalidRank",
    "InvalidThreshold", "InvalidFraction", "ConvergenceFailure",
    "SingularGram", "MissingGroundTruth", "TrainingDiverged",
    "FormatError", "ParseError",
]
