"""Shared oracles for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: naive power sums instead of Horner, classical Lagrange formulas
instead of chain factorizations, dense decompositions instead of iterative
ones. The package computes the fundamental polynomials only through the
chain of solvents; the brute-force block Vandermonde solve
(:func:`fundamental_via_solve`, with the :class:`MatrixPolynomial` it
returns), the one-node-at-a-time chain recurrence, the growth-inequality
check and the Chebyshev depth reference live here as the oracles that
check it. So do the test-only helpers the
package itself never calls (the dense operator, the operator symmetry
spot-check and the stream-id recorder).
"""
import importlib
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from rsbl.config import sample_stream
from rsbl.lanczos import LinearOperator, NoConvergenceError, _Process, krylov_basis, match_targets
from rsbl.linalg import SingularMatrixError, as_matrix, solve_linear, spectral_norm
from rsbl.matpoly import (
    NodeSet,
    block_vandermonde,
    chi_quantities,
    conjugate,
    fundamental_via_chain,
    min_separation,
    solvent_chain,
)
from rsbl.robustness import ClusterSpec, _tangent_from_basis


def symmetry_defect(op, rng, probes: int = 3) -> float:
    """Max of ``|x'(Ay) - y'(Ax)| / (|x||y|)`` over random probe pairs.

    Spot-check helper for the operator contract; the caller scales the
    result by its own estimate of ``||A||``.
    """
    worst = 0.0
    for _ in range(probes):
        x = rng.standard_normal((op.n, 1))
        y = rng.standard_normal((op.n, 1))
        ax = op.apply(x)
        ay = op.apply(y)
        defect = abs((x.T @ ay).item() - (y.T @ ax).item())
        worst = max(worst, defect / (np.linalg.norm(x) * np.linalg.norm(y)))
    return worst


def record_stream_ids(monkeypatch, module) -> list:
    """Patch ``module.sample_stream`` to log each stream id it opens; return the log."""
    opened = []

    def recording(seed, stream_id):
        opened.append(stream_id)
        return sample_stream(seed, stream_id)

    monkeypatch.setattr(module, "sample_stream", recording)
    return opened


def dense_operator(a) -> LinearOperator:
    """Operator that applies a dense square matrix."""
    a = as_matrix(a, "A")
    if a.shape[0] != a.shape[1]:
        raise ValueError("dense operator must be square")
    return LinearOperator(a.shape[0], lambda block: a @ block)


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


def textbook_block_lanczos_count(diag, omega, targets, tol: float = 1e-10, max_matvecs=None):
    """Matvec count at which block Lanczos on ``diag(diag)`` first matches every target, or None.

    The textbook block Lanczos of Golub & Underwood (1977), written apart
    from the package: Householder QR with a sign fix for every block, two
    full classical Gram-Schmidt passes against the whole basis every step, a
    dense ``T`` grown block by block, and ``eigvalsh`` plus ``match_targets``
    after every step. Of ``rsbl.lanczos`` it uses only ``match_targets``.
    """
    diag = np.asarray(diag, dtype=np.float64)[:, None]
    omega = np.asarray(omega, dtype=np.float64)
    targets = np.sort(np.asarray(targets, dtype=np.float64).reshape(-1))
    n, b = omega.shape
    steps = min(n if max_matvecs is None else max_matvecs, n) // b

    def householder(m):
        q, r = np.linalg.qr(m)
        signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
        return q * signs, signs[:, None] * r

    # the basis as rows, so that each pass streams one contiguous slab
    rows = np.empty((b * steps, n))
    rows[:b] = householder(omega)[0].T
    t = np.zeros((b * steps, b * steps))
    for step in range(1, steps + 1):
        lo, hi = (step - 1) * b, step * b
        v = rows[:hi]
        w = diag * rows[lo:hi].T
        coeffs = np.zeros((hi, b))
        for _ in range(2):
            h = v @ w
            w = w - v.T @ h
            coeffs += h
        alpha = coeffs[lo:hi]
        t[lo:hi, lo:hi] = 0.5 * (alpha + alpha.T)
        if hi >= targets.size and match_targets(np.linalg.eigvalsh(t[:hi, :hi]), targets,
                                                tol) is not None:
            return hi
        if step < steps:
            q, r = householder(w)
            rows[hi:hi + b] = q.T
            t[hi:hi + b, lo:hi] = r
            t[lo:hi, hi:hi + b] = r.T
    return None


def cholesky_qr2(m):
    """The two CholeskyQR passes as matrix formulas, ``(Q, R)``, with no gate or fallback."""
    r1 = np.linalg.cholesky(m.T @ m).T
    q1 = m @ np.linalg.inv(r1)
    r2 = np.linalg.cholesky(q1.T @ q1).T
    return q1 @ np.linalg.inv(r2), r2 @ r1


class SingularVandermondeError(Exception):
    """The block Vandermonde matrix is singular at the gate."""


@dataclass(frozen=True)
class MatrixPolynomial:
    """Degree-d polynomial ``X -> sum_i X^i C_i`` with square coefficient blocks."""

    coeffs: tuple

    def __post_init__(self):
        if not self.coeffs:
            raise ValueError("a matrix polynomial needs at least one coefficient")
        mats = tuple(as_matrix(c, "coefficient") for c in self.coeffs)
        b = mats[0].shape[0]
        for c in mats:
            if c.shape != (b, b):
                raise ValueError("coefficient blocks must share one square size")
        object.__setattr__(self, "coeffs", mats)

    @property
    def block_size(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def eval_matrix(p: MatrixPolynomial, x) -> np.ndarray:
    """Evaluate ``sum_i X^i C_i`` by right-coefficient Horner recursion."""
    x = as_matrix(x, "X")
    b = p.block_size
    if x.shape != (b, b):
        raise ValueError(f"X must be {b}x{b}, got {x.shape}")
    acc = p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = c + x @ acc
    return acc


def eval_lambda(p: MatrixPolynomial, lam) -> np.ndarray:
    """Evaluate the lambda-matrix ``p(lam * I)``: b x b for a scalar, (G, b, b) for a 1-D grid."""
    lam = np.asarray(lam, dtype=np.float64)
    acc = np.broadcast_to(p.coeffs[-1], lam.shape + p.coeffs[-1].shape)
    for c in p.coeffs[-2::-1]:
        acc = c + lam[..., None, None] * acc
    return acc


def fundamental_via_solve(nodes: NodeSet, k: int) -> MatrixPolynomial:
    """Fundamental polynomial for node ``k`` by a block Vandermonde solve.

    This is the brute-force oracle for the chain construction: it solves
    ``Van @ [C_0; ...; C_{d-1}] = e_k (x) I`` directly.
    """
    d, b = nodes.d, nodes.b
    if not 0 <= k < d:
        raise IndexError(f"node index {k} out of range for {d} nodes")
    van = block_vandermonde(nodes)
    rhs = np.zeros((b * d, b))
    rhs[k * b:(k + 1) * b] = np.eye(b)
    try:
        coeffs = solve_linear(van, rhs)
    except SingularMatrixError as exc:
        raise SingularVandermondeError(str(exc)) from exc
    return MatrixPolynomial(tuple(coeffs[j * b:(j + 1) * b] for j in range(d)))


def spectrum_bounds(nodes: NodeSet) -> tuple[float, float]:
    """Smallest and largest eigenvalue over all node spectra."""
    return float(nodes.lambdas.min()), float(nodes.lambdas.max())


@dataclass(frozen=True)
class ChainView:
    """One chain, indexed by position: ``b_hats[i]`` is the companion at position i.

    ``s_full`` holds the fully absorbed difference products; only the
    recurrence oracle forms them.
    """

    order: tuple
    lambdas: np.ndarray
    b_hats: np.ndarray
    s_head_inv: np.ndarray
    s_full: tuple = ()


def chain_view(chains, k: int) -> ChainView:
    """Chain ``k`` of a stacked :func:`solvent_chain` record."""
    return ChainView(
        order=tuple(chains.order[:, k].tolist()),
        lambdas=chains.lambdas[:, k],
        b_hats=chains.b_hats[:, k],
        s_head_inv=chains.s_head_inv[k],
    )


def chain_by_recurrence(nodes: NodeSet, k: int) -> ChainView:
    """Chain ``k`` built one node and one absorbed companion at a time.

    The reference for the stacked pass: pivot ``k`` first, then the other
    nodes in order; from the last position down, ``S <- B_i S - S b_hats[j]``
    for j descending, and ``b_hats[i] = conjugate(Omega_i S, lam_i)``.
    """
    d, b = nodes.d, nodes.b
    order = (k, *range(k), *range(k + 1, d))
    b_hats, s_full = [None] * d, [None] * d
    for i in range(d - 1, -1, -1):
        node = order[i]
        acc = np.eye(b)
        for j in range(d - 1, i, -1):
            acc = nodes.bs[node] @ acc - acc @ b_hats[j]
        s_full[i] = acc
        b_hats[i] = conjugate(nodes.omegas[node] @ acc, nodes.lambdas[node])
    return ChainView(
        order=order,
        lambdas=nodes.lambdas[list(order)],
        b_hats=np.stack(b_hats),
        s_head_inv=np.linalg.solve(s_full[0], np.eye(b)),
        s_full=tuple(s_full),
    )


def fundamental_by_recurrence(chain: ChainView, lam: float) -> np.ndarray:
    """``F_k(lam)`` of one chain at one scalar: one b x b product per factor."""
    acc = np.eye(chain.s_head_inv.shape[0])
    for i in range(len(chain.b_hats) - 1, 0, -1):
        acc = lam * acc - acc @ chain.b_hats[i]
    return acc @ chain.s_head_inv


def assert_chains_match_recurrence(grid_size: int = 1001):
    """Stacked chains and grids equal the per-chain recurrence bit for bit, b 1..3, d 1..4.

    Run it under each BLAS thread count in a fresh process: OpenBLAS reads
    its thread count at load time, and a threaded GEMM splits its rows.
    """
    rng = np.random.default_rng(2024)
    lams = np.linspace(-3.0, 5.0, grid_size)
    for b in (1, 2, 3):
        for d in (1, 2, 3, 4):
            nodes = random_nodeset(rng, b, d)
            chains = solvent_chain(nodes)
            grid = fundamental_via_chain(chains, lams)
            assert grid.shape == (d, grid_size, b, b)
            for k in range(d):
                ref = chain_by_recurrence(nodes, k)
                assert tuple(chains.order[:, k].tolist()) == ref.order
                assert np.array_equal(chains.lambdas[:, k], ref.lambdas)
                assert np.array_equal(chains.b_hats[:, k], ref.b_hats), (b, d, k)
                assert np.array_equal(chains.s_head_inv[k], ref.s_head_inv), (b, d, k)
                for lam, got in zip(lams.tolist(), grid[k]):
                    assert np.array_equal(got, fundamental_by_recurrence(ref, lam)), (b, d, k, lam)


@dataclass(frozen=True)
class GrowthSample:
    """One evaluation point of the growth inequality."""

    lam: float
    lhs: float
    rhs: float
    holds: bool


def growth_bound_check(nodes: NodeSet, chains, interval, lam_samples, rel_tol: float = 1e-10):
    """Check the fundamental-polynomial growth inequality outside the interval.

    For each sample point the left side is ``max_k ||F_k(lam)||^(1/(d-1))``
    and the right side is the distance-to-interval factor over the minimal
    node gap, times ``chi_mono * chi_coef``. Returns the per-sample records;
    any violation is flagged on the record.
    """
    d = nodes.d
    lo, hi = float(interval[0]), float(interval[1])
    chi_mono, chi_coef = chi_quantities(nodes, chains, interval)
    gap = min_separation(nodes.lambdas)
    lams = np.asarray(lam_samples, dtype=np.float64).reshape(-1)
    inside = (lo <= lams) & (lams <= hi)
    if inside.any():
        raise ValueError(f"sample {float(lams[inside][0])} lies inside the interval")
    norms = spectral_norm(fundamental_via_chain(chains, lams)).max(axis=0)
    out = []
    for lam, norm in zip(lams.tolist(), norms.tolist()):
        lhs = norm ** (1.0 / (d - 1))
        rhs = max(hi - lam, lam - lo) / gap * chi_mono * chi_coef
        out.append(GrowthSample(lam, lhs, rhs, lhs <= rhs * (1.0 + rel_tol)))
    return out


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


def fundamental_norms_loop(chains, lams) -> np.ndarray:
    """Per-point reference for the batched norm grid, as a (chains, points) array.

    One scalar evaluation of all chains per point, one spectral norm per (chain, point).
    """
    values = [fundamental_via_chain(chains, float(lam)) for lam in lams]
    return np.array([[spectral_norm(v[k]) for v in values] for k in range(len(chains.order))])


def random_cluster_spec(rng, b: int, d: int, m: int = 16):
    """Random diagonal-spectrum spec: separated cluster blocks over [-1, 0] noise."""
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
    norms = np.linalg.svd(eval_lambda(p, grid), compute_uv=False)[:, 0]
    sv = np.linalg.svd(omega0, compute_uv=False)
    rhs = float(np.sqrt(b) * (sv[0] / sv[-1]) * norms.max())
    return lhs, rhs


class ZeroGapError(Exception):
    """The eigenvalue gap required by the Chebyshev bound vanishes."""


def chebyshev_value(degree: int, x: float) -> float:
    """Chebyshev polynomial of the first kind at ``x >= 1`` via the closed form."""
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    if x < 1.0:
        raise ValueError("closed form requires x >= 1")
    t = x + math.sqrt(x * x - 1.0)
    return 0.5 * (t**degree + t**-degree)


def chebyshev_accel_check(
    spec: ClusterSpec, omega, steps: int
) -> tuple[float, float, bool]:
    """Compare the deep-subspace angle against the Chebyshev-accelerated reference.

    The cluster must hold the largest ``b*d`` eigenvalues with a positive
    gap to the rest; the reference divides the d-step angle by the
    Chebyshev factor at ``1 + 2 * gap / spectral width``. Krylov spaces nest,
    so the d-step angle comes from the leading ``b*d`` columns of the one basis.
    """
    if steps < spec.d:
        raise ValueError("steps must be at least d")
    lam_bd = min(float(blk.min()) for blk in spec.lambda_blocks)
    lam_next = float(spec.lambda_perp.max()) if spec.lambda_perp.size else -math.inf
    gap = lam_bd - lam_next
    if not gap > 0.0:
        raise ZeroGapError("cluster must hold the strictly largest eigenvalues")
    gamma = gap / (spec.lambda_max - spec.lambda_min)
    bd = spec.b * spec.d
    v = krylov_basis(spec.operator(), omega, steps)
    measured = _tangent_from_basis(v, bd)
    base = _tangent_from_basis(v[:, :bd], bd)
    reference = base / chebyshev_value(steps - spec.d, 1.0 + 2.0 * gamma)
    holds = measured <= reference * (1.0 + 1e-6)
    return measured, reference, holds
