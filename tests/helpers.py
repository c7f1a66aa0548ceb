"""Shared oracles for the test suite.

Everything here is deliberately independent of the implementation paths it
checks: naive power sums instead of Horner, classical Lagrange formulas
instead of chain factorizations, dense decompositions instead of iterative
ones.
"""
import numpy as np

from rsbl.linalg import spectral_norm
from rsbl.matpoly import MatrixPolynomial, NodeSet, fundamental_via_chain


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
