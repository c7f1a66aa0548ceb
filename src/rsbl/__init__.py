"""Randomized small-block Lanczos and its cluster-robustness machinery."""

from .lanczos import BreakdownError, NoConvergenceError
from .linalg import RankDeficientError, SingularMatrixError
from .matpoly import (
    ChainBreakdownError,
    DegenerateEndpointError,
    DimensionMismatchError,
)
from .robustness import (
    SingularBlockError,
    SingularDifferenceError,
    SingularKError,
)

__version__ = "0.1.0"
