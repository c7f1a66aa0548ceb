"""Dense double-precision linear-algebra kernels and Gaussian sampling.

Every kernel is a deterministic function of its inputs; randomness enters
only through an explicit numpy ``Generator``. Matrices are plain float64
numpy arrays in row-major order, validated at the public entry points.
"""
from __future__ import annotations

import math

import numpy as np


class RankDeficientError(Exception):
    """A QR factor has a diagonal entry below the rank gate."""


class SingularMatrixError(Exception):
    """A matrix fails the singular-value gate of :func:`gated_svals`."""


def _as_float64(a, name: str, stack: bool) -> np.ndarray:
    """``a`` as a C-contiguous float64 matrix, or ``(..., r, c)`` stack when ``stack``; no scan."""
    m = np.ascontiguousarray(np.asarray(a, dtype=np.float64))
    if m.ndim < 2:
        raise ValueError(f"{name} must be a matrix or a stack of them, got shape {m.shape}")
    if not stack and m.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {m.shape}")
    return m


def _require_finite(m: np.ndarray, name: str) -> np.ndarray:
    if m.size and not np.isfinite(m).all():
        raise ValueError(f"{name} contains NaN or Inf entries")
    return m


def as_stack(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a float64 matrix or ``(..., r, c)`` stack with finite entries."""
    return _require_finite(_as_float64(a, name, stack=True), name)


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Return ``a`` as a 2-D float64 C-contiguous array with finite entries."""
    return _require_finite(_as_float64(a, name, stack=False), name)


def gaussian_matrix(rows: int, cols: int, rng: np.random.Generator) -> np.ndarray:
    """Draw a rows-by-cols matrix of i.i.d. standard normal entries from rng."""
    if rows < 1 or cols < 1:
        raise ValueError("gaussian_matrix requires rows, cols >= 1")
    return rng.standard_normal((rows, cols))


# CholeskyQR2 runs only while ||R1||_F ||inv(R1)||_F stays at or below this:
# then the second pass restores orthogonality to roundoff, and
# min diag(R) >= sigma_min(M) > 1e-12 ||M||, so the rank gate cannot trip.
CHOLESKY_QR_COND_LIMIT = 1e6


def qr_factor(m) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR factorization with nonnegative R diagonal.

    CholeskyQR2 (Yamamoto, Nakatsukasa, Yanagisawa & Fukaya, ETNA 2015):
    ``R1 = chol(M^T M)^T`` and ``Q1 = M inv(R1)``, repeated once on ``Q1``,
    give ``Q`` and ``R = R2 R1`` with a positive diagonal. On one column the
    two passes are two scalar normalizations, ``r1 = sqrt(m^T m)`` and
    ``q1 = m * (1/r1)``, then the same on ``q1``; they are computed in closed
    form, with the bits of the matrix formulas, and fall back exactly where
    those do. When the Cholesky factorization fails or
    ``||R1||_F ||inv(R1)||_F`` exceeds ``CHOLESKY_QR_COND_LIMIT``, Householder
    QR with a sign fix takes over and raises :class:`RankDeficientError` when
    any diagonal entry of R falls below ``1e-12 * ||M||``; callers decide
    whether to deflate or abort.

    Only the fallback scans ``M`` for NaN and Inf, and raises ValueError
    there: a non-finite entry makes its column's Gram diagonal non-finite, so
    the Cholesky factorization fails or the estimate is NaN or Inf, and every
    such input reaches the fallback. The Gram product and the estimate
    overflow, or turn NaN, without a warning: those inputs are the fallback's.
    """
    m = _as_float64(m, "matrix", stack=False)
    rows, cols = m.shape
    if rows < cols:
        raise ValueError("qr_factor requires rows >= cols")
    if cols == 1:
        with np.errstate(over="ignore"):
            g = (m.T @ m).item()
        # written so that NaN falls back too, as on the matrix path
        if 0.0 < g < math.inf:
            r1 = math.sqrt(g)
            inv1 = 1.0 / r1
            # the estimate as np.linalg.norm forms it on 1 x 1 matrices: inv1 * inv1
            # overflows, and the matrix path falls back, below a norm of about 7.5e-155
            if math.sqrt(r1 * r1) * math.sqrt(inv1 * inv1) <= CHOLESKY_QR_COND_LIMIT:
                q1 = m * inv1
                r2 = math.sqrt((q1.T @ q1).item())
                # + 0.0 turns -0.0 into 0.0, as the matrix product does
                return q1 * (1.0 / r2) + 0.0, np.array([[r2 * r1]])
        return _householder_qr(_require_finite(m, "matrix"))
    try:
        # cholesky and inv set their own error state, so only the Gram
        # product and the estimate are silenced here
        with np.errstate(over="ignore", invalid="ignore"):
            r1 = np.linalg.cholesky(m.T @ m).T
            r1_inv = np.linalg.inv(r1)
            estimate = np.linalg.norm(r1) * np.linalg.norm(r1_inv)
        # written so that a NaN or Inf estimate also falls back
        if estimate <= CHOLESKY_QR_COND_LIMIT:
            q1 = m @ r1_inv
            r2 = np.linalg.cholesky(q1.T @ q1).T
            return q1 @ np.linalg.inv(r2), r2 @ r1
    except np.linalg.LinAlgError:
        pass
    return _householder_qr(_require_finite(m, "matrix"))


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


def gated_svals(m, rtol: float) -> np.ndarray:
    """Descending singular values of a matrix, or of each matrix of a ``(..., r, c)`` stack.

    The one nonsingularity gate: raises :class:`SingularMatrixError` when any
    matrix has ``smallest <= rtol * largest``, an inclusive rule that an
    all-zero matrix also trips. Non-finite input raises ValueError.
    """
    svals = np.linalg.svd(as_stack(m), compute_uv=False)
    top, low = svals[..., 0], svals[..., -1]
    singular = low <= rtol * top
    if singular.any():
        low, top = low[singular][0], top[singular][0]
        raise SingularMatrixError(
            f"smallest singular value {low:.3e} at or below {rtol:g} * largest ({top:.3e})"
        )
    return svals


def spectral_norm(m):
    """Largest singular value of m, or an array of them for a ``(..., r, c)`` stack."""
    m = as_stack(m)
    top = np.linalg.svd(m, compute_uv=False)[..., 0] if m.size else np.zeros(m.shape[:-2])
    return float(top) if m.ndim == 2 else top


def max_spectral_norm(m) -> float:
    """Largest spectral norm over a ``(..., r, c)`` stack, bit for bit ``spectral_norm(m).max()``.

    Only matrices whose upper bounds reach ``lead``, the top singular value of the Frobenius
    argmax, get an SVD. The bounds are ``||M||_F``, then the trace bound of Wolkowicz & Styan
    (Linear Algebra Appl. 29, 1980) on the p-by-p Gram A of M divided by its largest absolute
    entry (no square over- or underflows): ``lambda_max(A) <= mu + sigma sqrt(p - 1)``,
    ``mu = tr(A)/p``, ``sigma^2 = ||A - mu I||_F^2 / p``, exact at p <= 2. The result is
    exact: both bounds are at least ``||M||_2``, so a dropped matrix has a norm below
    ``lead``; the argmax is always kept; and numpy takes each SVD of a stack alone, so the
    kept ones get the same bits. The slack 1e-12 covers the rounding of bounds and norms, and
    1e-150 values too small for a relative slack (Frobenius squares that underflow); a
    Frobenius square that overflows gives an infinite norm, kept for the second prune.
    """
    m = as_stack(m).reshape(-1, *np.shape(m)[-2:])
    fro = np.sqrt(np.einsum("kij,kij->k", m, m))
    lead = np.linalg.svd(m[np.argmax(fro)], compute_uv=False)[0]
    m = m[fro * (1.0 + 1e-12) + 1e-150 >= lead * (1.0 - 1e-12)]
    p = min(m.shape[1:])
    scale = np.abs(m).max(axis=(1, 2))
    unit = m / np.where(scale > 0.0, scale, 1.0)[:, None, None]
    gram = unit @ unit.transpose(0, 2, 1) if m.shape[1] == p else unit.transpose(0, 2, 1) @ unit
    mu = np.trace(gram, axis1=1, axis2=2) / p
    gram[:, np.arange(p), np.arange(p)] -= mu[:, None]
    sigma = np.sqrt(np.einsum("kij,kij->k", gram, gram) / p)
    bound = scale * np.sqrt(mu + sigma * np.sqrt(p - 1.0))
    m = m[bound * (1.0 + 1e-12) + 1e-150 >= lead * (1.0 - 1e-12)]
    return float(np.linalg.svd(m, compute_uv=False)[:, 0].max())


def smallest_singular(m):
    """Smallest singular value of m (over min(rows, cols)), or an array of them for a stack."""
    m = as_stack(m)
    low = np.linalg.svd(m, compute_uv=False)[..., -1]
    return float(low) if m.ndim == 2 else low


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
