"""Block Lanczos with full reorthogonalization and Rayleigh-Ritz extraction.

The process builds an orthonormal basis of the block Krylov subspace
``range[Omega, A Omega, ..., A^(l-1) Omega]`` one block per step. A step
extends the basis by the QR of the previous step's remainder, then applies
the operator once to the new block and projects the result out of the
basis by classical Gram-Schmidt; the initial block costs no matvec. Cost
per entry point for ``l`` steps of width ``b``: :func:`block_lanczos`
``b * l`` matvecs (it also needs the last block's image, for ``T`` and the
remainder); :func:`krylov_basis` ``b * (l - 1)`` (the last block is never
applied); :func:`run_until_converged` ``b`` per step it runs.

The basis is stored as rows, one basis vector per row of a
``(b * capacity, n)`` buffer, so the blocks built so far are one contiguous
slab: each reorthogonalization pass streams exactly those rows, and the
rows of blocks not yet built are never touched, so the pages of a large
buffer beyond them are never faulted in. The ``n x (b * steps)`` basis the
entry points return is the transposed view of that buffer.

A step's projection reads the whole basis once, and a second time only
when it must. A first pass against the last two blocks removes the
three-term recurrence, where nearly all of the cancellation happens, and
gives the diagonal block of ``T``. One pass against the whole basis
follows. A second whole-basis pass runs only when the first one cancelled
most of some column, by the test of Daniel, Gragg, Kaufman & Stewart
(Math. Comp. 30, 1976) with ``DGKS_ETA = 1/sqrt(2)``, as in ARPACK; when
little cancels, one pass leaves the column orthogonal to working precision
(Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 2005). While the
basis has at most two blocks the first pass already covers all of it, so
those steps build the basis and remainder of two whole-basis passes, bit
for bit.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RankDeficientError, as_matrix, qr_factor

# DGKS re-orthogonalization threshold: a column that the whole-basis pass
# shrinks below ``DGKS_ETA`` of its norm has lost more than half its squared
# norm to cancellation, so its remainder may carry rounding errors of the
# size of what was cancelled and is projected again. 1/sqrt(2) is ARPACK's
# choice; by Pythagoras the test reads ``||h||^2 > DGKS_ETA^2 ||w||^2``,
# per column, on the pass's coefficients ``h = V^T w``.
DGKS_ETA = 1.0 / np.sqrt(2.0)


class BreakdownError(Exception):
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

    n: int
    b: int
    steps: int
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
    so far, and the passes read nothing beyond it. ``T`` is kept as its
    blocks: ``alpha[k]`` is the symmetrized diagonal block of step ``k`` and
    ``beta[k]`` the R factor coupling block ``k`` to block ``k - 1``
    (``beta[0]`` stays zero). ``tridiagonal()`` assembles the dense ``T``
    only when a caller reads it.
    """

    def __init__(self, op: LinearOperator, omega: np.ndarray, capacity: int):
        if omega.shape[0] != op.n:
            raise ValueError("initial block row count must match the operator")
        self.op = op
        self.n, self.b = omega.shape
        self.capacity = capacity
        try:
            q0, _ = qr_factor(omega)
        except RankDeficientError as exc:
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
        if self.steps >= self.capacity:
            raise ValueError("process capacity exhausted")
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
        except RankDeficientError as exc:
            raise BreakdownError(self.steps + 1) from exc
        if np.min(np.abs(np.diag(r))) < 1e-12 * self._remainder_scale:
            raise BreakdownError(self.steps + 1)
        self.Vt[self.steps * self.b:(self.steps + 1) * self.b] = q.T
        self.beta[self.steps] = r

    def project(self):
        """Apply the operator to block ``steps``; form ``alpha`` and the new remainder.

        One pass against the last two blocks (its last ``b`` coefficient rows
        are ``alpha``), one against the whole basis, and a second whole-basis
        pass only when the DGKS test fires; the test runs only once the local
        pass leaves older blocks out.
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


# Widening of a sentinel window beyond ``tol`` on each side: it absorbs the
# rounding of both the inertia count and ``eigvalsh``, so an empty sentinel
# means no Ritz value within ``tol`` of its target.
SENTINEL_MARGIN = 1e-8
# A pivot with an eigenvalue this close to zero (relative to max(1, ||A_k||)
# of its diagonal block) cannot be trusted to give the inertia; the sentinel
# is dropped.
PIVOT_RTOL = 1e-10


class _Sentinel:
    """Sylvester inertia of ``T - sI`` at the two edges of one target window.

    The block LDL^T pivots ``D_k(s) = A_k - sI - R_k D_(k-1)(s)^-1 R_k^T``
    are extended one block at a time; the number of negative pivot
    eigenvalues is the number of eigenvalues of ``T`` below ``s``. Equal
    counts at both edges mean the window holds no eigenvalue of ``T``.
    """

    def __init__(self, lo: float, hi: float, b: int):
        self.shifts = np.array([lo, hi])[:, None, None] * np.eye(b)
        self.pivot = None
        self.negatives = np.zeros(2, dtype=np.int64)

    def extend(self, alpha: np.ndarray, beta: np.ndarray) -> bool:
        """Append one block; False when a pivot is too close to singular to count."""
        d = alpha - self.shifts
        if self.pivot is not None:
            d = d - beta @ np.linalg.solve(self.pivot, beta.T)
            d = 0.5 * (d + d.transpose(0, 2, 1))
        # one batched call: the two pivots and, last, the diagonal block for the scale
        eig = np.linalg.eigvalsh(np.concatenate([d, alpha[None]]))
        scale = max(1.0, float(np.abs(eig[2]).max()))
        # written so that a NaN pivot trips the gate too
        if not np.abs(eig[:2]).min() > PIVOT_RTOL * scale:
            return False
        self.negatives += (eig[:2] < 0.0).sum(axis=1)
        self.pivot = d
        return True

    def empty(self) -> bool:
        return self.negatives[0] == self.negatives[1]


def _pick_sentinel(proc: _Process, values, targets, tol: float):
    """Sentinel on the widened window farthest from any Ritz value, or None if none is empty.

    Ties go to the lowest target index; a pivot tripping the gate also gives None.
    """
    gaps = np.abs(values[None, :] - targets[:, None]).min(axis=1)
    i = int(np.argmax(gaps))
    width = tol + SENTINEL_MARGIN
    if not gaps[i] > width:
        return None
    sentinel = _Sentinel(targets[i] - width, targets[i] + width, proc.b)
    for k in range(proc.steps):
        if not sentinel.extend(proc.alpha[k], proc.beta[k]):
            return None
    return sentinel


def _start(op: LinearOperator, omega, steps: int) -> _Process:
    omega = as_matrix(omega, "Omega")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if omega.shape[1] * steps > op.n:
        raise ValueError("requested subspace exceeds the operator dimension")
    return _Process(op, omega, capacity=steps)


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
    proc = _start(op, omega, steps)
    for _ in range(steps):
        proc.advance()
    # capacity == steps, so the basis buffer is exactly full
    return BlockKrylovBasis(
        n=proc.n, b=proc.b, steps=steps, V=proc.Vt.T, T=proc.tridiagonal(),
        remainder=proc.remainder,
    )


def krylov_basis(op: LinearOperator, omega, steps: int) -> np.ndarray:
    """Orthonormal basis ``V`` (n x b*steps) of the ``steps``-block Krylov subspace.

    The same ``V`` as ``block_lanczos(op, omega, steps).V``, bit for bit,
    without the last block's operator apply and projection: the counter
    increases by exactly ``b * (steps - 1)``. Breakdowns raise the same
    :class:`BreakdownError` at the same step.
    """
    proc = _start(op, omega, steps)
    for _ in range(steps - 1):
        proc.advance()
    if steps > 1:
        proc.extend()
    return proc.Vt.T


def rayleigh_ritz(basis: BlockKrylovBasis, how_many: int) -> RitzSet:
    """Extract the ``how_many`` largest Ritz pairs and lift them through the basis."""
    dim = basis.b * basis.steps
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
    is skipped on steps where it provably fails. After a failed comparison
    one target window, widened by ``SENTINEL_MARGIN`` on each side, is kept
    as a sentinel: the empty one whose target lies farthest from any Ritz
    value. Its two edges carry block LDL^T pivots of ``T - sI``, extended one
    block per step; while their negative-pivot counts agree, no Ritz value
    lies within ``tol`` of that target and the step is skipped. A pivot that
    trips the ``PIVOT_RTOL`` gate drops the sentinel, and steps compare until
    a new one is built. The returned count and values are those of the
    every-step comparison.
    """
    omega = as_matrix(omega, "Omega")
    targets = np.sort(np.asarray(targets, dtype=np.float64).reshape(-1))
    if targets.size == 0:
        raise ValueError("need at least one target eigenvalue")
    b = omega.shape[1]
    full_budget = b * (op.n // b)
    if max_matvecs is None:
        max_matvecs = full_budget
    max_steps = min(max_matvecs, full_budget) // b
    if targets.size > max_steps * b:
        raise ValueError("more targets than the subspace budget allows")
    proc = _Process(op, omega, capacity=max_steps)
    sentinel = None
    for step in range(1, max_steps + 1):
        proc.advance()
        if step * b < targets.size:
            continue
        if sentinel is not None:
            k = step - 1
            if sentinel.extend(proc.alpha[k], proc.beta[k]) and sentinel.empty():
                continue
        values = proc.ritz_values()
        idx = match_targets(values, targets, tol)
        if idx is not None:
            return step * b, values[idx]
        sentinel = _pick_sentinel(proc, values, targets, tol)
    raise NoConvergenceError(max_steps * b)
