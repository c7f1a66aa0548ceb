"""Randomized small-block Lanczos and its cluster-robustness machinery."""

from .lanczos import BreakdownError, NoConvergenceError
from .linalg import RankDeficientError, SingularMatrixError
from .matpoly import (
    ChainBreakdownError,
    DegenerateEndpointError,
    DimensionMismatchError,
    SingularVandermondeError,
)
from .robustness import (
    SingularBlockError,
    SingularDifferenceError,
    SingularKError,
    ZeroGapError,
)

__version__ = "0.1.0"
