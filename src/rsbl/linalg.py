"""Dense double-precision linear-algebra kernels and seeded Gaussian sampling.

Every kernel is a deterministic function of its inputs; randomness enters
only through an explicit :class:`RngStream`. Matrices are plain float64
numpy arrays in row-major order, validated at the public entry points.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


class RankDeficientError(Exception):
    """A QR factor has a diagonal entry below the rank gate."""


class SingularMatrixError(Exception):
    """A matrix fails the singular-value gate of :func:`gated_svals`."""


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a float64 matrix or ``(..., r, c)`` stack with finite entries."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if m.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of them, got shape {m.shape}")
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-D float64 C-contiguous array with finite entries."""
    m = as_stack(a, name)
    if m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


@dataclass
class RngStream:
    """Deterministic Gaussian sample stream keyed by (seed, stream_id).

    The same pair always reproduces the same sequence; distinct stream ids
    give statistically independent streams. A stream is single-owner:
    concurrent tasks must derive their own streams with distinct ids.
    """

    seed: int
    stream_id: int = 0
    _gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ss = np.random.SeedSequence(self.seed, spawn_key=(self.stream_id,))
        self._gen = np.random.Generator(np.random.PCG64(ss))

    def standard_normal(self, rows: int, cols: int) -> np.ndarray:
        return self._gen.standard_normal((rows, cols))

    def uniform(self, low: float, high: float, count: int) -> np.ndarray:
        return self._gen.uniform(low, high, count)


def gaussian_matrix(rows: int, cols: int, rng: RngStream) -> np.ndarray:
    """Draw a rows-by-cols matrix of i.i.d. standard normal entries from rng."""
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_matrix requires rows, cols >= 1")
    return rng.standard_normal(rows, cols)


# CholeskyQR2 runs only while ||R1||_F ||inv(R1)||_F stays at or below this:
# then the second pass restores orthogonality to roundoff, and
# min diag(R) >= sigma_min(M) > 1e-12 ||M||, so the rank gate cannot trip.
CHOLESKY_QR_COND_LIMIT = 1e6


def qr_factor(m) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with nonnegative R diagonal.

    CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015):
    ``R1 = chol(M^T M)^T`` and ``Q1 = M inv(R1)``, repeated once on ``Q1``,
    give ``Q`` and ``R = R2 R1`` with a positive diagonal. When the Cholesky
    factorization fails or ``||R1||_F ||inv(R1)||_F`` exceeds
    ``CHOLESKY_QR_COND_LIMIT``, Householder QR with a sign fix takes over
    and raises :class:`RankDeficientError` when any diagonal entry of R falls
    below ``1e-12 * ||M||``; callers decide whether to deflate or abort.
    """
    m = as_matrix(m)
    rows, cols = m.shape
    if rows < cols:
        raise ValueError("qr_factor requires rows >= cols")
    try:
        r1 = np.linalg.cholesky(m.T @ m).T
        r1_inv = np.linalg.inv(r1)
        # written so that a NaN or Inf estimate also falls back
        if np.linalg.norm(r1) * np.linalg.norm(r1_inv) <= CHOLESKY_QR_COND_LIMIT:
            q1 = m @ r1_inv
            r2 = np.linalg.cholesky(q1.T @ q1).T
            return q1 @ np.linalg.inv(r2), r2 @ r1
    except np.linalg.LinAlgError:
        pass
    return _householder_qr(m)


def _householder_qr(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Householder QR with a sign fix and the ``1e-12`` rank gate: the fallback of qr_factor."""
    cols = m.shape[1]
    q, r = np.linalg.qr(m)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    q = q * signs
    r = signs[:, None] * r
    # ||M|| equals ||R|| since Q has orthonormal columns; R is cols x cols.
    scale = float(np.linalg.svd(r, compute_uv=False)[0]) if cols else 0.0
    diag = np.abs(np.diag(r))
    if scale == 0.0 or diag.min() < 1e-12 * scale:
        raise RankDeficientError(
            f"diagonal of R below 1e-12 * ||M|| (min {diag.min():.3e}, scale {scale:.3e})"
        )
    return q, r


def gated_svals(m, rtol: float, error=SingularMatrixError) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix of a ``(..., r, c)`` stack.

    The one nonsingularity gate: raises ``error`` when any matrix has
    ``smallest <= rtol * largest``, an inclusive rule that an all-zero
    matrix also trips. Non-finite input raises ValueError.
    """
    svals = np.linalg.svd(as_stack(m), compute_uv=False)
    top, low = svals[..., 0], svals[..., -1]
    singular = low <= rtol * top
    if singular.any():
        low, top = low[singular][0], top[singular][0]
        raise error(f"smallest singular value {low:.3e} at or below {rtol:g} * largest ({top:.3e})")
    return svals


def spectral_norm(m):
    """Largest singular value of m, or an array of them for a ``(..., r, c)`` stack."""
    m = as_stack(m)
    top = np.linalg.svd(m, compute_uv=False)[..., 0] if m.size else np.zeros(m.shape[:-2])
    return float(top) if m.ndim == 2 else top


def max_spectral_norm(m) -> float:
    """Largest spectral norm over a ``(..., r, c)`` stack, bit for bit ``spectral_norm(m).max()``.

    ``||M||_2 <= ||M||_F``: only matrices whose Frobenius norm reaches ``lead``, the top
    singular value of the Frobenius argmax, get an SVD (slack: 1e-12 for rounding, 1e-150
    for squares that underflow). numpy takes each SVD of a stack alone, so the bits match.
    """
    m = as_stack(m).reshape(-1, *np.shape(m)[-2:])
    fro = np.sqrt(np.einsum("kij,kij->k", m, m))
    lead = np.linalg.svd(m[np.argmax(fro)], compute_uv=False)[0]
    keep = fro * (1.0 + 1e-12) + 1e-150 >= lead * (1.0 - 1e-12)
    return float(np.linalg.svd(m[keep], compute_uv=False)[:, 0].max())


def smallest_singular(m):
    """Smallest singular value of m (over min(rows, cols)), or an array of them for a stack."""
    m = as_stack(m)
    low = np.linalg.svd(m, compute_uv=False)[..., -1]
    return float(low) if m.ndim == 2 else low


# No command calls this; the test suite's block Vandermonde oracle does. It
# stays here because the benchmark in perfbench/ traces it by name, and
# moves to the tests when that span is retired.
def solve_linear(m, b) -> np.ndarray:
    """Solve ``M X = B`` for a square M, or for each M of a ``(..., n, n)`` stack.

    B carries the same leading stack axes as M. Raises
    :class:`SingularMatrixError` when any M is singular at the
    ``1e-14 * ||M||`` gate.
    """
    m = np.asarray(m, dtype=np.float64)
    b = as_stack(b, "B")
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError("solve_linear requires a square matrix or a stack of them")
    if b.ndim != m.ndim or b.shape[:-1] != m.shape[:-1]:
        raise ValueError("right-hand side has an incompatible shape")
    gated_svals(m, 1e-14)
    return np.linalg.solve(m, b)
