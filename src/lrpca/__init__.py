"""Learned robust PCA: low-rank + sparse decomposition with trainable
per-iteration thresholds and step sizes.

Each public name is declared once, in its module's ``__all__``; the
package re-exports those names, and its ``__all__`` joins those lists."""

from . import (errors, linalg, matrixio, operators, schedule, solver, synth,
               training, video)
from .errors import *
from .linalg import *
from .matrixio import *
from .operators import *
from .schedule import *
from .solver import *
from .synth import *
from .training import *
from .video import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, linalg, matrixio, operators, schedule,
                               solver, synth, training, video)
           for name in module.__all__]
