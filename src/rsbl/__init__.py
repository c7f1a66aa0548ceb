"""Randomized small-block Lanczos and its cluster-robustness machinery."""

from .lanczos import BreakdownError, NoConvergenceError
from .linalg import RankDeficientError, SingularMatrixError
from .matpoly import ChainBreakdownError

__version__ = "0.1.0"
