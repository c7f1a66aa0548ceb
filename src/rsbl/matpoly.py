"""Block Vandermonde interpolation nodes and solvent chains.

A matrix polynomial here is ``Phi(X) = C_0 + X C_1 + ... + X^d C_d`` with
b-by-b coefficient blocks to the *right* of the variable. The fundamental
polynomials ``F_k``, the block analogue of Lagrange basis polynomials, have
degree d-1 and ``F_k(B_j) = delta_kj * I``. The package computes them one
way, through the chain-of-solvents factorization (:func:`solvent_chain`,
:func:`fundamental_via_chain`) that the structural bound rests on.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SingularMatrixError,
    as_stack,
    gated_svals,
    spectral_norm,
)


def conjugate(omega, lam, rtol: float = 1e-14) -> np.ndarray:
    """Conjugated nodes ``inv(Omega) diag(lam) Omega`` over any leading stack axes.

    ``omega`` is (..., b, b) and ``lam`` is (..., b) or broadcasts against
    it. Every Omega passes the ``rtol`` singular-value gate first, at every
    b, else :class:`SingularMatrixError`. For b = 1 the conjugation cancels
    exactly, so the spectrum itself comes back as a (..., 1, 1) array.
    """
    omega = np.asarray(omega, dtype=np.float64)
    lam = np.asarray(lam, dtype=np.float64)
    gated_svals(omega, rtol)
    if omega.shape[-1] == 1:
        return np.broadcast_to(lam[..., None], omega.shape).copy()
    return np.linalg.solve(omega, lam[..., :, None] * omega)


def separations(spectra) -> np.ndarray:
    """Per row of a (d, b) spectra array, its smallest ``|lam_i - lam_j|`` to any other row.

    One broadcast over every (row, row, b, b) pair; a single row gets inf.
    """
    lams = np.asarray(spectra, dtype=np.float64)
    gaps = np.abs(lams[:, None, :, None] - lams[None, :, None, :])
    gaps[np.diag_indices(len(lams))] = np.inf
    return gaps.min(axis=(1, 2, 3))


def min_separation(spectra) -> float:
    """Smallest ``|lam_i - lam_j|`` between eigenvalues of different rows of a (d, b) array; inf for one."""
    return float(separations(spectra).min())


@dataclass(frozen=True)
class NodeSet:
    """Interpolation nodes ``B_i = inv(Omega_i) diag(lam_i) Omega_i``.

    The diagonal spectra are supplied explicitly, one length-b row per node,
    and must be pairwise disjoint across nodes. Each eigenvector matrix must
    pass the ``1e-12 * ||Omega_i||`` nonsingularity gate. The set keeps
    ``lambdas`` as a (d, b) array and ``omegas`` and the conjugated nodes
    ``bs`` as (d, b, b) arrays.
    """

    lambdas: np.ndarray
    omegas: np.ndarray
    bs: np.ndarray = field(init=False, compare=False)

    def __post_init__(self):
        lams = [np.asarray(l, dtype=np.float64).reshape(-1) for l in self.lambdas]
        if len(lams) != len(self.omegas) or not lams:
            raise ValueError("need matching, nonempty spectra and eigenvector matrices")
        b = lams[0].size
        if any(l.size != b for l in lams) or any(np.shape(o) != (b, b) for o in self.omegas):
            raise ValueError("all nodes must share one block size")
        lams, oms = np.stack(lams), np.asarray(self.omegas, dtype=np.float64)
        if not np.isfinite(lams).all():
            raise ValueError("node spectrum contains non-finite entries")
        bs = conjugate(oms, lams, rtol=1e-12)
        if min_separation(lams) == 0.0:
            raise ValueError("two nodes share an eigenvalue")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "omegas", oms)
        object.__setattr__(self, "bs", bs)

    @property
    def b(self) -> int:
        return self.lambdas.shape[1]

    @property
    def d(self) -> int:
        return self.lambdas.shape[0]


def block_vandermonde(nodes) -> np.ndarray:
    """The square bd-by-bd block Vandermonde matrix, block rows ``[I, B_i, ..., B_i^(d-1)]``.

    Accepts a :class:`NodeSet`, a sequence of d square matrices or a
    (d, b, b) stack. The powers of all nodes are taken as one batched
    product per degree.
    """
    mats = as_stack(nodes.bs if isinstance(nodes, NodeSet) else nodes, "Vandermonde nodes")
    d, b = len(mats), mats.shape[-1]
    if mats.ndim != 3 or mats.shape[1] != b:
        raise ValueError("Vandermonde nodes must share one square size")
    powers = [np.broadcast_to(np.eye(b), mats.shape)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ mats)
    return np.concatenate(powers, axis=2).reshape(-1, b * d)


@dataclass(frozen=True)
class SolventChains:
    """Recursive factorization data for the fundamental polynomials of all d nodes.

    Chain ``k`` permutes the nodes so the pivot node ``k`` sits at position
    0, followed by the remaining nodes in their original order;
    ``order[i, k]`` is the node at position i of chain k. Working backwards
    from the last position, node ``B_i`` absorbs the companions of the later
    positions into its difference product, starting from ``S = I``:

        S <- B_i @ S - S @ b_hats[j]    for j descending from d-1 to i+1,

    i.e. companions are absorbed from the tail of the chain first.
    (Absorbing in ascending order is *not* equivalent for b > 1 and breaks
    the interpolation property; the descending order is the one consistent
    with peeling degree-one factors off the highest position first, and the
    test suite checks it against a block Vandermonde solve.) The fully
    absorbed product ``S`` must be nonsingular; it conjugates the node into
    its companion ``b_hats[i] = conjugate(Omega_i @ S, lambdas[i])``. Arrays
    are indexed (position, chain): ``lambdas`` is (d, d, b), ``b_hats`` is
    (d, d, b, b), and ``s_head_inv``, the inverse of each chain's position-0
    product, is (d, b, b).
    """

    order: np.ndarray
    lambdas: np.ndarray
    b_hats: np.ndarray
    s_head_inv: np.ndarray


def solvent_chain(nodes: NodeSet) -> SolventChains:
    """Build the chain factorizations of all d nodes in one stacked pass.

    The recurrence runs level by level, from position d-2 down to 0, over a
    (d, b, b) stack that holds each chain's node at that position; every
    stacked product, gate, conjugation and solve treats each chain alone,
    so chain ``k`` is bit for bit the chain a per-node loop gives.
    Position d-1 absorbs nothing, so its product is ``I`` and its companion
    is the node itself, already conjugated and gated in ``nodes.bs``.
    Raises :class:`SingularMatrixError` ``chain breakdown at position i``
    at the first level i, counting down, where any chain's fully absorbed
    difference product fails the ``1e-12`` nonsingularity gate or its
    conjugation fails the ``1e-14`` one; such draws are measure-zero for
    Gaussian eigenvector matrices and callers resample.
    """
    d, b = nodes.d, nodes.b
    order = np.array([(k, *range(k), *range(k + 1, d)) for k in range(d)]).T
    ident = np.broadcast_to(np.eye(b), (d, b, b))
    b_hats = np.empty((d, d, b, b))
    b_hats[d - 1] = nodes.bs[order[d - 1]]
    acc = ident
    for i in range(d - 2, -1, -1):
        b_i, acc = nodes.bs[order[i]], ident
        for j in range(d - 1, i, -1):
            acc = b_i @ acc - acc @ b_hats[j]
        try:
            gated_svals(acc, 1e-12)
            b_hats[i] = conjugate(nodes.omegas[order[i]] @ acc, nodes.lambdas[order[i]])
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"chain breakdown at position {i}") from exc
    # the position-0 product is I (d = 1) or passed the 1e-12 gate above, so the
    # inversion needs no second one
    s_head_inv = np.linalg.solve(acc, ident)
    return SolventChains(order, nodes.lambdas[order], b_hats, s_head_inv)


def fundamental_via_chain(chains: SolventChains, lam) -> np.ndarray:
    """Evaluate the chain form of every node's fundamental polynomial at scalars.

    A scalar ``lam`` gives a (d, b, b) stack, one value per chain; a 1-D
    array of G points gives a (d, G, b, b) grid, held as (d, G*b, b) rows.
    Starting from ``I``, each factor ``lam * acc - acc @ b_hats[i]``, from
    the last position down to 1, and then the inverse head are one stacked
    matmul: one (G*b, b) @ (b, b) GEMM per chain. ``I @ B == B`` exactly, so
    d = 1 needs no branch; a scalar call runs the same code on one point, so
    every grid point equals it bit for bit. Its speed depends on the allocator
    policy: ``rsbl.cli.main`` fixes glibc's thresholds, and a library caller
    that keeps the defaults gets fresh pages on every call.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 1:
        raise ValueError(f"lam must be a scalar or a 1-D array, got shape {lam.shape}")
    heads = chains.s_head_inv
    d, b = heads.shape[:2]
    lam_rows = np.repeat(lam, b)[:, None]
    acc = np.tile(np.eye(b), (lam.size, 1))
    for i in range(d - 1, 0, -1):
        acc = lam_rows * acc - acc @ chains.b_hats[i]
    return (acc @ heads).reshape((d,) + lam.shape + (b, b))


def chi_quantities(nodes: NodeSet, chains: SolventChains, interval) -> tuple[float, float]:
    """Scaling-invariant growth factors of the chain factorizations.

    ``chi_mono`` compares companion matrices against their diagonal spectra
    at both interval endpoints; ``chi_coef`` measures the inverse head
    products, normalized by the pivot node's closest eigenvalue gap and the
    chain length. Both are maxima over all chains.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise ValueError("interval endpoints out of order")
    d, b = nodes.d, nodes.b
    if d < 2:
        raise ValueError("chi quantities need at least two nodes")
    if chains.s_head_inv.shape[0] != d:
        raise ValueError("need one chain per node")
    if nodes.lambdas.min() < lo or nodes.lambdas.max() > hi:
        raise ValueError("node spectra must lie inside the interval")
    # (endpoint, position 1..d-1, chain) stacks. Scalars commute, so at b = 1
    # every companion equals its spectrum and the endpoint ratios are
    # identically one: the stacks stay empty.
    ends = np.array([lo, hi] if b > 1 else [])[:, None, None, None]
    dens = np.abs(ends - chains.lambdas[1:]).max(axis=-1)
    if (dens == 0.0).any():
        endpoint = ends.ravel()[np.nonzero(dens == 0.0)[0][0]]
        raise ValueError(f"endpoint {endpoint} equals the full spectrum of a node")
    mats = ends[..., None] * np.eye(b) - chains.b_hats[1:]
    # one stacked norm: the endpoint companions first, then the inverse heads
    norms = spectral_norm(np.concatenate([mats.reshape(-1, b, b), chains.s_head_inv]))
    chi_mono = max([1.0] + (norms[: dens.size] / dens.ravel()).tolist())
    chi_coef = max(
        head ** (1.0 / (d - 1)) * gap
        for head, gap in zip(norms[dens.size:].tolist(), separations(nodes.lambdas).tolist())
    )
    return chi_mono, chi_coef
