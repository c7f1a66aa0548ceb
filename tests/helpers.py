"""Shared oracles for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: naive power sums instead of Horner, classical Lagrange formulas
instead of chain factorizations, dense decompositions instead of iterative
ones. It also holds the test-only helpers the package itself never calls
(the symmetric eigensolver and the operator symmetry spot-check).
"""
import importlib
import math
import sys
from pathlib import Path

import numpy as np

from rsbl.lanczos import NoConvergenceError, _Process, match_targets
from rsbl.linalg import as_matrix, spectral_norm
from rsbl.matpoly import MatrixPolynomial, NodeSet, fundamental_via_chain


class NotSymmetricError(Exception):
    """Input to the symmetric eigensolver failed the symmetry test."""


def sym_eig(s) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix: ascending values, orthonormal vectors."""
    s = as_matrix(s)
    if s.shape[0] != s.shape[1]:
        raise ValueError("sym_eig requires a square matrix")
    scale = spectral_norm(s)
    defect = spectral_norm(s - s.T)
    if defect > 1e-12 * scale:
        raise NotSymmetricError(f"asymmetry {defect:.3e} exceeds 1e-12 * ||S||")
    values, vectors = np.linalg.eigh(0.5 * (s + s.T))
    return values, vectors


def symmetry_defect(op, rng, probes: int = 3) -> float:
    """Max of ``|x'(Ay) - y'(Ax)| / (|x||y|)`` over random probe pairs.

    Spot-check helper for the operator contract; the caller scales the
    result by its own estimate of ``||A||``.
    """
    worst = 0.0
    for _ in range(probes):
        x = rng.standard_normal(op.n, 1)
        y = rng.standard_normal(op.n, 1)
        ax = op.apply(x)
        ay = op.apply(y)
        defect = abs((x.T @ ay).item() - (y.T @ ax).item())
        worst = max(worst, defect / (np.linalg.norm(x) * np.linalg.norm(y)))
    return worst


def block_vandermonde_loop(mats, d: int) -> np.ndarray:
    """Per-node reference for the batched Vandermonde rows ``[I, M, ..., M^(d-1)]``."""
    rows = []
    for m in mats:
        power = np.eye(m.shape[0])
        blocks = [power]
        for _ in range(d - 1):
            power = power @ m
            blocks.append(power)
        rows.append(np.hstack(blocks))
    return np.vstack(rows)


def import_perfbench(name: str):
    """Import a module of the benchmark harness in ``perfbench/`` (read-only use)."""
    path = str(Path(__file__).resolve().parent.parent / "perfbench")
    if path not in sys.path:
        sys.path.insert(0, path)
    return importlib.import_module(name)


def run_until_converged_reference(op, omega, targets, tol: float = 1e-10, max_matvecs=None):
    """Every-step reference for ``run_until_converged``: a Ritz check after each block step.

    It writes the projected matrix into one preallocated dense ``T`` as the
    steps come, and runs ``eigvalsh`` and ``match_targets`` on its leading
    part after every step, with no inertia prefilter.
    """
    omega = as_matrix(omega, "Omega")
    targets = np.sort(np.asarray(targets, dtype=np.float64).reshape(-1))
    b = omega.shape[1]
    full_budget = b * (op.n // b)
    max_steps = min(full_budget if max_matvecs is None else max_matvecs, full_budget) // b
    proc = _Process(op, omega, capacity=max_steps)
    t = np.zeros((b * max_steps, b * max_steps))
    for step in range(1, max_steps + 1):
        proc.advance()
        lo, hi = (step - 1) * b, step * b
        t[lo:hi, lo:hi] = proc.alpha[step - 1]
        if step > 1:
            t[lo:hi, lo - b:lo] = proc.beta[step - 1]
            t[lo - b:lo, lo:hi] = proc.beta[step - 1].T
        if hi < targets.size:
            continue
        values = np.linalg.eigvalsh(t[:hi, :hi])
        idx = match_targets(values, targets, tol)
        if idx is not None:
            return hi, values[idx]
    raise NoConvergenceError(max_steps * b)


def tangent_all_columns(v, bd: int) -> float:
    """All-columns CS oracle for the largest principal-angle tangent of span(v).

    With ``top = v[:bd] = U S W^T`` every tangent ``||v[bd:] @ W[:, i]|| / S[i]``
    is formed and the largest returned; ``inf`` when ``S[-1] < 1e-14``.
    """
    _, svals, wt = np.linalg.svd(v[:bd, :], full_matrices=False)
    if svals[-1] < 1e-14:
        return math.inf
    return float(np.max(np.linalg.norm(v[bd:, :] @ wt.T, axis=0) / svals))


def naive_eval(p: MatrixPolynomial, x: np.ndarray) -> np.ndarray:
    """Power-sum evaluation sum_i X^i C_i without Horner."""
    b = p.block_size
    acc = np.zeros((b, b))
    power = np.eye(b)
    for i, c in enumerate(p.coeffs):
        if i > 0:
            power = power @ x
        acc = acc + power @ c
    return acc


def lagrange_scalar(nodes, k: int, lam: float) -> float:
    """Classical Lagrange basis polynomial for scalar nodes."""
    val = 1.0
    for j, node in enumerate(nodes):
        if j != k:
            val *= (lam - node) / (nodes[k] - node)
    return val


def random_nodeset(rng, b: int, d: int, separation: float = 0.1) -> NodeSet:
    """Random nodes whose block spectra are separated by at least ``separation``.

    Block k draws b sorted values from ``[k*(separation + w), ...]`` with an
    in-block width w, so cross-block gaps stay at or above the separation.
    """
    width = 0.3
    lams = []
    for k in range(d):
        lo = k * (separation + width)
        lams.append(np.sort(rng.uniform(lo, lo + width, b)))
    omegas = [rng.standard_normal((b, b)) for _ in range(d)]
    return NodeSet(tuple(lams), tuple(omegas))


def random_polynomial(rng, b: int, degree: int) -> MatrixPolynomial:
    return MatrixPolynomial(tuple(rng.standard_normal((b, b)) for _ in range(degree + 1)))


def eval_lambda_grid(p: MatrixPolynomial, lams: np.ndarray) -> np.ndarray:
    """Stacked lambda-matrix values p(lam * I) for a whole grid at once."""
    acc = np.broadcast_to(p.coeffs[-1], (lams.size, p.block_size, p.block_size)).copy()
    for c in p.coeffs[-2::-1]:
        acc = c[None, :, :] + lams[:, None, None] * acc
    return acc


def fundamental_norms_loop(chains, lams) -> np.ndarray:
    """Per-point reference for the batched norm grid, as a (chains, points) array.

    One scalar chain evaluation and one spectral norm per (chain, point).
    """
    return np.array(
        [[spectral_norm(fundamental_via_chain(chain, float(lam))) for lam in lams] for chain in chains]
    )


def random_cluster_spec(rng, b: int, d: int, m: int = 16):
    """Random diagonal-spectrum spec: separated cluster blocks over [-1, 0] noise."""
    from rsbl.robustness import ClusterSpec

    n = m * b
    blocks = tuple(np.sort(rng.uniform(1.0 + 0.3 * k, 1.15 + 0.3 * k, b)) for k in range(d))
    perp = rng.uniform(-1.0, 0.0, n - b * d)
    return ClusterSpec(
        n=n,
        b=b,
        d=d,
        lambda_blocks=blocks,
        lambda_perp=perp,
        cluster_min=1.0,
        cluster_max=1.15 + 0.3 * (d - 1),
    )


def eigenhull_bound_pair(p: MatrixPolynomial, omega0, lam0, grid_size: int = 1000):
    """Left and right side of the scaled eigenvalue-hull norm bound.

    The right side is ``sqrt(b) * ||inv(Omega0)|| * ||Omega0||`` times the
    max of ``||p(lam)||`` over a dense grid on the eigenvalue hull of
    ``B0 = inv(Omega0) diag(lam0) Omega0``, refined with the eigenvalues
    themselves.
    """
    lam0 = np.asarray(lam0, dtype=np.float64)
    b = lam0.size
    b0 = np.linalg.solve(omega0, lam0[:, None] * omega0)
    lhs = float(np.linalg.norm(naive_eval(p, b0), 2))
    grid = np.concatenate([np.linspace(lam0.min(), lam0.max(), grid_size), lam0])
    norms = np.linalg.svd(eval_lambda_grid(p, grid), compute_uv=False)[:, 0]
    sv = np.linalg.svd(omega0, compute_uv=False)
    rhs = float(np.sqrt(b) * (sv[0] / sv[-1]) * norms.max())
    return lhs, rhs
