"""Block Vandermonde interpolation nodes and solvent chains.

A matrix polynomial here is ``Phi(X) = C_0 + X C_1 + ... + X^d C_d`` with
b-by-b coefficient blocks sitting to the *right* of the variable. The
fundamental polynomials ``F_k`` are the block analogue of Lagrange basis
polynomials: degree d-1 with ``F_k(B_j) = delta_kj * I``. The package
computes them one way, through the recursive chain-of-solvents
factorization (:func:`solvent_chain` + :func:`fundamental_via_chain`) that
the structural bound rests on. Both stack their work (all d chains, all
grid points) with the bits of a one-at-a-time computation. The test suite
checks that route against an independent one, a brute-force solve against
the block Vandermonde matrix.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import (
    SingularMatrixError,
    as_matrix,
    as_stack,
    gated_svals,
    spectral_norm,
)


class DimensionMismatchError(Exception):
    """Operand dimensions are incompatible with the block size."""


class ChainBreakdownError(Exception):
    """A chain difference product became singular (degenerate draw; resample)."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"chain breakdown at position {position}")


class DegenerateEndpointError(Exception):
    """An interval endpoint coincides with a full node spectrum."""


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


def min_separation(spectra) -> float:
    """Smallest ``|lam_i - lam_j|`` between eigenvalues of different spectra; inf for one."""
    gap = math.inf
    for i in range(len(spectra)):
        for j in range(i + 1, len(spectra)):
            gap = min(gap, float(np.min(np.abs(spectra[i][:, None] - spectra[j][None, :]))))
    return gap


@dataclass(frozen=True)
class NodeSet:
    """Interpolation nodes ``B_i = inv(Omega_i) diag(lam_i) Omega_i``.

    The diagonal spectra are supplied explicitly, one 1-D array of length b
    per node, and must be pairwise disjoint across nodes. Each eigenvector
    matrix must pass the ``1e-12 * ||Omega_i||`` nonsingularity gate.
    """

    lambdas: tuple
    omegas: tuple
    bs: tuple = field(init=False, compare=False)

    def __post_init__(self):
        lams = tuple(np.asarray(l, dtype=np.float64).reshape(-1) for l in self.lambdas)
        oms = tuple(as_matrix(o, "Omega") for o in self.omegas)
        if len(lams) != len(oms) or not lams:
            raise ValueError("need matching, nonempty spectra and eigenvector matrices")
        b = lams[0].size
        for lam, om in zip(lams, oms):
            if lam.size != b or om.shape != (b, b):
                raise DimensionMismatchError("all nodes must share one block size")
            if not np.isfinite(lam).all():
                raise ValueError("node spectrum contains non-finite entries")
        bs = tuple(conjugate(np.stack(oms), np.stack(lams), rtol=1e-12))
        if min_separation(lams) == 0.0:
            raise ValueError("two nodes share an eigenvalue")
        object.__setattr__(self, "lambdas", lams)
        object.__setattr__(self, "omegas", oms)
        object.__setattr__(self, "bs", bs)

    @property
    def b(self) -> int:
        return self.lambdas[0].size

    @property
    def d(self) -> int:
        return len(self.lambdas)



def block_vandermonde(nodes, d: int | None = None) -> np.ndarray:
    """Stack the block rows ``[I, B_i, ..., B_i^(d-1)]``, one per node ``B_i``.

    Accepts a :class:`NodeSet`, a sequence of square matrices or a
    (count, b, b) stack. ``d`` defaults to the node count, which gives the
    square bd-by-bd block Vandermonde matrix. The powers of all nodes are
    taken as one batched product per degree.
    """
    mats = as_stack(nodes.bs if isinstance(nodes, NodeSet) else nodes, "Vandermonde nodes")
    b = mats.shape[-1]
    if mats.ndim != 3 or mats.shape[1] != b:
        raise DimensionMismatchError("Vandermonde nodes must share one square size")
    d = len(mats) if d is None else d
    powers = [np.broadcast_to(np.eye(b), mats.shape)]
    for _ in range(d - 1):
        powers.append(powers[-1] @ mats)
    return np.concatenate(powers, axis=2).reshape(-1, b * d)


@dataclass(frozen=True)
class SolventChain:
    """Recursive factorization data for the fundamental polynomial of one node.

    Nodes are permuted so the pivot node ``k`` sits at position 0, followed
    by the remaining nodes in their original order. Working backwards from
    the last position, node ``B_i`` absorbs the companions of the later
    positions into its difference product, starting from ``S = I``:

        S <- B_i @ S - S @ b_hats[j]    for j descending from d-1 to i+1,

    i.e. companions are absorbed from the tail of the chain first.
    (Absorbing in ascending order is *not* equivalent for b > 1 and breaks
    the interpolation property; the descending order is the one consistent
    with peeling degree-one factors off the highest position first, and the
    test suite checks it against a block Vandermonde solve.) The fully absorbed
    product ``s_full[i]`` must be nonsingular; it conjugates the node into
    its companion ``b_hats[i] = conjugate(Omega_i @ s_full[i], lambdas[i])``.
    """

    nodes: NodeSet
    k: int
    order: tuple
    lambdas: tuple
    b_hats: tuple
    s_full: tuple
    s_head_inv: np.ndarray

    @property
    def b(self) -> int:
        return self.nodes.b

    @property
    def d(self) -> int:
        return self.nodes.d


def solvent_chain(nodes: NodeSet) -> tuple:
    """Build the chain factorizations of all d nodes in one stacked pass.

    Entry ``k`` of the returned tuple is the :class:`SolventChain` of node
    ``k``. The recurrence runs level by level, from position d-2 down to 0,
    over a (d, b, b) stack that holds each chain's node at that position;
    every stacked product, gate, conjugation and solve treats each chain
    alone, so entry ``k`` is bit for bit the chain a per-node loop gives.
    Position d-1 absorbs nothing, so its product is ``I`` and its companion
    is the node itself, already conjugated and gated in ``nodes.bs``.
    Raises :class:`ChainBreakdownError` at the first level, counting down,
    where any chain's fully absorbed difference product fails the ``1e-12``
    nonsingularity gate or its conjugation fails the ``1e-14`` one; such
    draws are measure-zero for Gaussian eigenvector matrices and callers
    resample.
    """
    d, b = nodes.d, nodes.b
    orders = [(k, *range(k), *range(k + 1, d)) for k in range(d)]
    idx = np.array(orders).T  # idx[i, k]: node at position i of chain k
    lams, oms, bs = np.stack(nodes.lambdas), np.stack(nodes.omegas), np.stack(nodes.bs)
    eye = np.eye(b)
    b_hats: list = [None] * (d - 1) + [bs[idx[d - 1]]]
    s_full: list = [None] * (d - 1) + [np.broadcast_to(eye, bs.shape)]
    for i in range(d - 2, -1, -1):
        b_i = bs[idx[i]]
        acc = np.broadcast_to(eye, b_i.shape)
        for j in range(d - 1, i, -1):
            acc = b_i @ acc - acc @ b_hats[j]
        s_full[i] = acc
        try:
            gated_svals(acc, 1e-12)
            b_hats[i] = conjugate(oms[idx[i]] @ acc, lams[idx[i]])
        except SingularMatrixError as exc:
            raise ChainBreakdownError(i) from exc
    # s_full[0] is I (d = 1) or passed the 1e-12 gate above, so the inversion needs no
    # second one
    s_head_inv = np.linalg.solve(s_full[0], np.broadcast_to(eye, s_full[0].shape))
    return tuple(
        SolventChain(
            nodes=nodes,
            k=k,
            order=order,
            lambdas=tuple(lams[idx[:, k]]),
            b_hats=tuple(bh[k] for bh in b_hats),
            s_full=tuple(sf[k] for sf in s_full),
            s_head_inv=s_head_inv[k],
        )
        for k, order in enumerate(orders)
    )


def fundamental_via_chain(chain: SolventChain, lam) -> np.ndarray:
    """Evaluate the chain form of the fundamental polynomial at scalars.

    A scalar ``lam`` gives one b-by-b value; a 1-D array of G points gives a
    (G, b, b) stack. The factors ``(lam I - b_hats[i])`` multiply
    left-to-right from the last position down to position 1, then the
    inverse head product is applied. Each factor is one GEMM over all
    points, ``lam * acc - acc @ b_hats[i]`` with ``acc`` flattened to
    (G*b, b) rows, and a scalar call runs the same code on one point, so
    every point of a stack equals the scalar call bit for bit.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 1:
        raise ValueError(f"lam must be a scalar or a 1-D array, got shape {lam.shape}")
    b, lam = chain.b, lam[..., None, None]
    if chain.d == 1:
        return np.broadcast_to(chain.s_head_inv, lam.shape[:-2] + (b, b))
    acc = lam * np.eye(b) - chain.b_hats[chain.d - 1]
    for i in range(chain.d - 2, 0, -1):
        acc = lam * acc - (acc.reshape(-1, b) @ chain.b_hats[i]).reshape(acc.shape)
    return acc @ chain.s_head_inv


def chi_quantities(nodes: NodeSet, chains, interval) -> tuple[float, float]:
    """Scaling-invariant growth factors of the chain factorizations.

    ``chi_mono`` compares companion matrices against their diagonal spectra
    at both interval endpoints; ``chi_coef`` measures the inverse head
    products, normalized by the pivot node's closest eigenvalue gap and the
    chain length. Both are maxima over all supplied chains.
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not lo <= hi:
        raise ValueError("interval endpoints out of order")
    d = nodes.d
    if d < 2:
        raise ValueError("chi quantities need at least two nodes")
    if len(chains) != d:
        raise ValueError("need one chain per node")
    for lam in nodes.lambdas:
        if lam.min() < lo or lam.max() > hi:
            raise ValueError("node spectra must lie inside the interval")
    eye = np.eye(nodes.b)
    mats, dens, gaps = [], [], []
    for chain in chains:
        # scalars commute, so every companion equals its spectrum and the
        # endpoint ratios are identically one
        for i in range(1, d) if nodes.b > 1 else ():
            for endpoint in (lo, hi):
                den = float(np.max(np.abs(endpoint - chain.lambdas[i])))
                if den == 0.0:
                    raise DegenerateEndpointError(
                        f"endpoint {endpoint} equals the full spectrum of a node"
                    )
                mats.append(endpoint * eye - chain.b_hats[i])
                dens.append(den)
        gaps.append(min_separation((chain.lambdas[0], np.concatenate(chain.lambdas[1:]))))
    # one stacked norm: the endpoint companions first, then the inverse heads
    norms = spectral_norm(np.stack(mats + [chain.s_head_inv for chain in chains])).tolist()
    chi_mono = max([1.0] + [num / den for num, den in zip(norms, dens)])
    chi_coef = max(
        head ** (1.0 / (d - 1)) * gap for head, gap in zip(norms[len(dens):], gaps)
    )
    return chi_mono, chi_coef
