"""Block Lanczos with full reorthogonalization and Rayleigh-Ritz extraction.

Every entry point runs one :class:`_Process`, which builds an orthonormal
basis of the block Krylov subspace ``range[Omega, A Omega, ..., A^(l-1) Omega]``
one block per step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import SingularMatrixError, as_matrix, qr_factor

# DGKS re-orthogonalization threshold: a column that the whole-basis pass
# shrinks below ``DGKS_ETA`` of its norm has lost more than half its squared
# norm to cancellation, so its remainder may carry rounding errors of the
# size of what was cancelled and is projected again. 1/sqrt(2) is ARPACK's
# choice; by Pythagoras the test reads ``||h||^2 > DGKS_ETA^2 ||w||^2``,
# per column, on the pass's coefficients ``h = V^T w``.
DGKS_ETA = 1.0 / np.sqrt(2.0)


class BreakdownError(SingularMatrixError):
    """A new Lanczos block was rank-deficient: abort and resample the initial block."""

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"rank-deficient block at step {step}")


class NoConvergenceError(Exception):
    """The matvec budget was exhausted before all targets converged."""

    def __init__(self, matvecs: int):
        self.matvecs = matvecs
        super().__init__(f"no convergence within {matvecs} matvecs")


class LinearOperator:
    """Symmetric linear operator applied blockwise, with a matvec counter.

    ``apply`` receives an n-by-b block and must act linearly and
    symmetrically; each call increments the counter by the block width.
    The block may be a non-contiguous view into the Lanczos basis: the
    operator must not write into it or keep a reference to it.
    The counter is the only mutable state, so an operator instance must not
    be shared across concurrent basis builds.
    """

    def __init__(self, n: int, apply_block):
        if n < 1:
            raise ValueError("operator dimension must be positive")
        self.n = n
        self._apply = apply_block
        self.matvec_count = 0

    def apply(self, block: np.ndarray) -> np.ndarray:
        if block.ndim != 2 or block.shape[0] != self.n:
            raise ValueError(f"block must be {self.n} x b, got {block.shape}")
        self.matvec_count += block.shape[1]
        out = self._apply(block)
        if out.shape != block.shape:
            raise ValueError("operator changed the block shape")
        return out

    @classmethod
    def from_diagonal(cls, diag) -> "LinearOperator":
        d = np.asarray(diag, dtype=np.float64).reshape(-1)
        if not np.isfinite(d).all():
            raise ValueError("diagonal contains non-finite entries")
        col = d[:, None]
        return cls(d.size, lambda block: col * block)


@dataclass
class BlockKrylovBasis:
    """Orthonormal block Krylov basis with its projected block tridiagonal.

    ``remainder = Q R`` is the reorthogonalized next (unbuilt) block, so
    ``||remainder @ y[-b:]|| = ||R y[-b:]||`` is the Ritz residual norm.
    """

    V: np.ndarray
    T: np.ndarray
    remainder: np.ndarray


@dataclass
class RitzSet:
    """The largest Ritz approximations: ascending values and lifted vectors."""

    values: np.ndarray
    vectors: np.ndarray


class _Process:
    """Incremental block Lanczos state.

    ``Vt`` holds the basis as rows, filled in place one block (``b`` rows)
    per step; ``Vt[:steps * b]`` is the contiguous slab of the blocks built
    so far, and the passes read nothing beyond it, so the pages of blocks
    not yet built are never touched. ``T`` is kept as its blocks:
    ``alpha[k]`` is the symmetrized diagonal block of step ``k`` and
    ``beta[k]`` the R factor coupling block ``k`` to block ``k - 1``
    (``beta[0]`` stays zero). ``tridiagonal()`` assembles the dense ``T``
    only when a caller reads it.

    ``capacity`` block steps fit in the buffers, and no more: a step beyond
    them fails on the basis write.
    """

    def __init__(self, op: LinearOperator, omega: np.ndarray, capacity: int):
        if capacity < 1:
            raise ValueError("steps must be >= 1")
        if omega.shape[1] * capacity > op.n:
            raise ValueError("requested subspace exceeds the operator dimension")
        if omega.shape[0] != op.n:
            raise ValueError("initial block row count must match the operator")
        self.op = op
        self.n, self.b = omega.shape
        try:
            q0, _ = qr_factor(omega)
        except SingularMatrixError as exc:
            raise BreakdownError(0) from exc
        self.Vt = np.empty((self.b * capacity, self.n))
        self.Vt[: self.b] = q0.T
        self.alpha = np.empty((capacity, self.b, self.b))
        self.beta = np.zeros((capacity, self.b, self.b))
        self.steps = 0
        self.remainder = None
        self._remainder_scale = 0.0

    def advance(self):
        """Run one block step: extend the basis (from step 1 on), then project."""
        if self.steps > 0:
            self.extend()
        self.project()

    def extend(self):
        """QR the remainder of the last step into block ``steps`` of the basis."""
        # rank gate floored at the pre-orthogonalization scale so an
        # (almost) invariant subspace registers as a breakdown instead
        # of admitting roundoff noise as a basis block
        try:
            q, r = qr_factor(self.remainder)
        except SingularMatrixError as exc:
            raise BreakdownError(self.steps + 1) from exc
        # qr_factor's R has a nonnegative diagonal
        if r.diagonal().min() < 1e-12 * self._remainder_scale:
            raise BreakdownError(self.steps + 1)
        self.Vt[self.steps * self.b:(self.steps + 1) * self.b] = q.T
        self.beta[self.steps] = r

    def project(self):
        """Apply the operator to block ``steps``; form ``alpha`` and the new remainder.

        One pass against the last two blocks (its last ``b`` coefficient rows
        are ``alpha``) takes nearly all of the cancellation, as the three-term
        recurrence lives there. One pass against the whole basis follows, and
        a second one only when the first cancelled most of some column: the
        test of Daniel, Gragg, Kaufman & Stewart (Math. Comp. 30, 1976) with
        ARPACK's ``DGKS_ETA``; when little cancels, one pass leaves the column
        orthogonal to working precision (Giraud, Langou & Rozloznik, Comput.
        Math. Appl. 50, 2005). The test runs only once the local pass leaves
        older blocks out; before that a step builds the basis and remainder of
        two whole-basis passes, bit for bit.
        """
        hi = (self.steps + 1) * self.b
        lo = max(0, hi - 2 * self.b)
        w = self.op.apply(self.Vt[hi - self.b:hi].T)
        self._remainder_scale = float(np.linalg.norm(w))
        local = self.Vt[lo:hi]
        h = local @ w
        alpha = h[-self.b:]
        self.alpha[self.steps] = 0.5 * (alpha + alpha.T)
        w = w - local.T @ h
        basis = self.Vt[:hi]
        h = basis @ w
        remainder = w - basis.T @ h
        # einsum: np.linalg.norm(axis=0) costs up to 3x more on an n x b block
        if lo > 0 and np.any(
            np.einsum("ij,ij->j", h, h) > DGKS_ETA**2 * np.einsum("ij,ij->j", w, w)
        ):
            remainder = remainder - basis.T @ (basis @ remainder)
        self.remainder = remainder
        self.steps += 1

    def tridiagonal(self) -> np.ndarray:
        """Dense projected matrix ``T`` of the steps run so far."""
        k, b = self.steps, self.b
        t = np.zeros((k * b, k * b))
        blocks = t.reshape(k, b, k, b)
        idx = np.arange(k)
        blocks[idx, :, idx, :] = self.alpha[:k]
        blocks[idx[1:], :, idx[:-1], :] = self.beta[1:k]
        blocks[idx[:-1], :, idx[1:], :] = self.beta[1:k].transpose(0, 2, 1)
        return t

    def ritz_values(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.tridiagonal())


# b >= 2: widening of the target hull's edges beyond ``tol``. It absorbs the
# rounding of both the block inertia count and ``eigvalsh``. No rounding bound
# backs a smaller value: on criterion 1's Table 1 runs the block LDL^T growth
# ||R_k D_(k-1)^-1 R_k^T|| reaches 1.1e4 and pivot eigenvalues fall to 5.9e-6.
SENTINEL_MARGIN = 1e-8
# b = 1: widening of each target's window beyond ``tol``. It must exceed the
# rounding bound of ``_Sentinel.rounding_bound``; a step whose bound does not
# fit drops the sentinel. On Table 1's b = 1 runs k stays below 200 and the
# Gershgorin bound below 2.6, so the bound stays below 7.4e-14.
STURM_MARGIN = 1e-12
# A pivot with an eigenvalue this close to zero (relative to max(1, ||A_k||)
# of its diagonal block) cannot be trusted to give the inertia; the sentinel
# is dropped.
PIVOT_RTOL = 1e-10
_EPS = float(np.finfo(np.float64).eps)


class _Sentinel:
    """Sylvester inertia of ``T - sI`` at ascending shifts, taken in ``(lo, hi)`` pairs.

    The block LDL^T pivots ``D_k(s) = A_k - sI - R_k D_(k-1)(s)^-1 R_k^T``
    are extended one block at a time; the number of negative pivot
    eigenvalues is the number of eigenvalues of ``T`` below ``s`` (Parlett,
    *The Symmetric Eigenvalue Problem*, 1998). At
    ``b = 1`` the pivots are the Sturm sequence
    ``d_k(s) = (a_k - s) - r_k^2 / d_(k-1)(s)``, one scalar per shift.
    """

    def __init__(self, shifts: np.ndarray, b: int):
        shifts = np.asarray(shifts, dtype=np.float64)
        self.b = b
        self.shifts = shifts if b == 1 else shifts[:, None, None] * np.eye(b)
        self.pivot = None
        self.negatives = np.zeros(shifts.size, dtype=np.int64)
        # b = 1 only: the dimension of T and a running Gershgorin bound on ||T||_2;
        # the last row's sum still lacks the coupling to the next step
        self._dim = 0
        self._gershgorin = 0.0
        self._last_row = 0.0
        self._shift_max = float(np.abs(shifts).max())

    def rounding_bound(self) -> float:
        """Bound on how far the count and ``eigvalsh`` can move an eigenvalue of ``T`` (b = 1).

        ``eigvalsh`` returns the eigenvalues of ``T`` to within
        ``p(k) eps ||T||_2`` (LAPACK Users' Guide, section 4.7), with the
        modestly growing ``p(k)`` taken as ``k``. The computed Sturm count is
        the exact count of a ``T'`` whose couplings are ``r_k (1 + e_k)``,
        ``|e_k| <= 2.5 eps`` (Kahan, Stanford report CS41, 1966; Demmel,
        Dhillon & Ren, ETNA 1995), so the eigenvalues of ``T'`` are within
        ``5 eps max r_k`` of those of ``T``.
        Rounding the edges ``t -/+ (tol + margin)`` costs at most
        ``2 eps max|s|``. With the Gershgorin bound ``G >= ||T||_2, max r_k``
        the sum is at most ``eps ((k + 5) G + 2 max|s|)``.
        """
        return _EPS * ((self._dim + 5) * self._gershgorin + 2.0 * self._shift_max)

    def extend(self, alpha: np.ndarray, beta: np.ndarray) -> bool:
        """Append one block; False when a pivot is too close to singular to count.

        At ``b = 1`` also False when the rounding bound exceeds ``STURM_MARGIN``.
        """
        if self.b == 1:
            return self._extend_scalar(float(alpha[0, 0]), float(beta[0, 0]))
        d = alpha - self.shifts
        if self.pivot is not None:
            d = d - beta @ np.linalg.solve(self.pivot, beta.T)
            d = 0.5 * (d + d.transpose(0, 2, 1))
        # one batched call: the pivots and, last, the diagonal block for the scale
        eig = np.linalg.eigvalsh(np.concatenate([d, alpha[None]]))
        scale = max(1.0, float(np.abs(eig[-1]).max()))
        # written so that a NaN pivot trips the gate too
        if not np.abs(eig[:-1]).min() > PIVOT_RTOL * scale:
            return False
        self.negatives += (eig[:-1] < 0.0).sum(axis=1)
        self.pivot = d
        return True

    def _extend_scalar(self, a: float, r: float) -> bool:
        d = a - self.shifts
        if self.pivot is not None:
            d -= r * r / self.pivot
        self._dim += 1
        self._gershgorin = max(self._gershgorin, self._last_row + r, abs(a) + r)
        self._last_row = abs(a) + r
        # written so that a NaN pivot trips the gate too
        if not np.abs(d).min() > PIVOT_RTOL * max(1.0, abs(a)):
            return False
        if self.rounding_bound() > STURM_MARGIN:
            return False
        self.negatives += d < 0.0
        self.pivot = d
        return True

    def count(self) -> np.ndarray:
        """Number of eigenvalues of ``T`` in each window ``[lo, hi)``."""
        return self.negatives[1::2] - self.negatives[::2]


def _windows(targets: np.ndarray, width: float) -> tuple[np.ndarray, np.ndarray]:
    """Edges of the windows ``[t - width, t + width]``, overlapping ones merged.

    Returns the ascending edges ``lo_0, hi_0, lo_1, hi_1, ...`` of the merged
    windows and the number of targets in each.
    """
    lo, hi = targets - width, targets + width
    first = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
    last = np.r_[first[1:], targets.size] - 1
    return np.column_stack([lo[first], hi[last]]).ravel(), last - first + 1


def block_lanczos(op: LinearOperator, omega, steps: int) -> BlockKrylovBasis:
    """Run ``steps`` block Lanczos steps with full reorthogonalization.

    Parameters
    ----------
    op:
        Symmetric operator; its counter increases by exactly ``b * steps``.
    omega:
        Initial n-by-b block (orthonormalized internally, no matvec cost).
    steps:
        Number of block steps; ``b * steps <= n`` is required.
    """
    proc = _Process(op, as_matrix(omega, "Omega"), capacity=steps)
    for _ in range(steps):
        proc.advance()
    # capacity == steps, so the basis buffer is exactly full
    return BlockKrylovBasis(V=proc.Vt.T, T=proc.tridiagonal(), remainder=proc.remainder)


def krylov_basis(op: LinearOperator, omega, steps: int) -> np.ndarray:
    """Orthonormal basis ``V`` (n x b*steps) of the ``steps``-block Krylov subspace.

    The same ``V`` as ``block_lanczos(op, omega, steps).V``, bit for bit,
    without the last block's operator apply and projection: the counter
    increases by exactly ``b * (steps - 1)``. Breakdowns raise the same
    :class:`BreakdownError` at the same step.
    """
    proc = _Process(op, as_matrix(omega, "Omega"), capacity=steps)
    for _ in range(steps - 1):
        proc.advance()
    if steps > 1:
        proc.extend()
    return proc.Vt.T


def rayleigh_ritz(basis: BlockKrylovBasis, how_many: int) -> RitzSet:
    """Extract the ``how_many`` largest Ritz pairs and lift them through the basis."""
    dim = basis.V.shape[1]
    if not 1 <= how_many <= dim:
        raise ValueError(f"how_many must be in [1, {dim}]")
    values, vectors = np.linalg.eigh(basis.T)
    # index arrays copy the columns; a sliced view changes the product's last bits
    idx = np.arange(dim - how_many, dim)
    return RitzSet(values=values[idx], vectors=basis.V @ vectors[:, idx])


def match_targets(values, targets, tol: float):
    """Match sorted targets to sorted Ritz values within ``tol``, one-to-one.

    Greedy earliest-compatible assignment over the two ascending sequences;
    returns the matched indices, or None when some target has no partner.
    """
    idx = []
    j = 0
    for t in targets:
        while j < len(values) and values[j] < t - tol:
            j += 1
        if j < len(values) and abs(values[j] - t) <= tol:
            idx.append(j)
            j += 1
        else:
            return None
    return idx


def run_until_converged(
    op: LinearOperator,
    omega,
    targets,
    tol: float = 1e-10,
    max_matvecs: int | None = None,
) -> tuple[int, np.ndarray]:
    """Step one block at a time until every target eigenvalue is matched.

    After each block step the Ritz values of the projected matrix are
    compared against the known target eigenvalues; convergence is declared
    at the first step where every target has a Ritz value within ``tol``
    (absolute). Returns the matvec count at that step and the matched Ritz
    values, one per sorted target and in the same order.

    The comparison (``eigvalsh`` of the whole ``T``, then ``match_targets``)
    is skipped on steps where it provably fails. One :class:`_Sentinel`,
    built when the run starts and extended one block per step, counts the
    eigenvalues of ``T`` in windows around the targets. At ``b = 1`` each
    target gets the window ``[t - w, t + w]``, ``w = tol + STURM_MARGIN``,
    and overlapping windows merge into one that must hold as many
    eigenvalues as it has targets. At ``b >= 2`` one window spans the target
    hull, ``targets[0] - w`` to ``targets[-1] + w`` with
    ``w = tol + SENTINEL_MARGIN``, and must hold ``targets.size``. A window
    holding fewer leaves some target unmatched. A pivot that trips the
    ``PIVOT_RTOL`` gate, or at ``b = 1`` a step whose rounding bound exceeds
    ``STURM_MARGIN``, drops the sentinel, and every later step compares. The
    returned count and values are those of the every-step comparison.
    """
    omega = as_matrix(omega, "Omega")
    targets = np.sort(np.asarray(targets, dtype=np.float64).reshape(-1))
    if targets.size == 0:
        raise ValueError("need at least one target eigenvalue")
    if not np.isfinite(targets).all():
        raise ValueError("target eigenvalues must be finite")
    # written so that NaN fails it too
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    b = omega.shape[1]
    full_budget = b * (op.n // b)
    if max_matvecs is None:
        max_matvecs = full_budget
    max_steps = min(max_matvecs, full_budget) // b
    if targets.size > max_steps * b:
        raise ValueError("more targets than the subspace budget allows")
    proc = _Process(op, omega, capacity=max_steps)
    if b == 1:
        edges, need = _windows(targets, tol + STURM_MARGIN)
    else:
        width = tol + SENTINEL_MARGIN
        edges, need = np.array([targets[0] - width, targets[-1] + width]), targets.size
    sentinel = _Sentinel(edges, b)
    for step in range(1, max_steps + 1):
        proc.advance()
        k = step - 1
        if sentinel is not None and not sentinel.extend(proc.alpha[k], proc.beta[k]):
            sentinel = None
        if step * b < targets.size or (
            sentinel is not None and (sentinel.count() < need).any()
        ):
            continue
        values = proc.ritz_values()
        idx = match_targets(values, targets, tol)
        if idx is not None:
            return step * b, values[idx]
    raise NoConvergenceError(max_steps * b)
