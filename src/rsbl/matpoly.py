"""Matrix polynomials, block Vandermonde interpolation, and solvent chains.

A matrix polynomial here is ``Phi(X) = C_0 + X C_1 + ... + X^d C_d`` with
b-by-b coefficient blocks sitting to the *right* of the variable. The
fundamental polynomials ``F_k`` are the block analogue of Lagrange basis
polynomials: degree d-1 with ``F_k(B_j) = delta_kj * I``. They can be
computed two ways, by solving against the block Vandermonde matrix
(:func:`fundamental_via_solve`, the brute-force route) or through the
recursive chain-of-solvents factorization (:func:`solvent_chain` +
:func:`fundamental_via_chain`); the two routes cross-check each other.
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
    solve_linear,
    spectral_norm,
)


class DimensionMismatchError(Exception):
    """Operand dimensions are incompatible with the polynomial's block size."""


class SingularVandermondeError(Exception):
    """The block Vandermonde matrix is singular at the gate."""


class ChainBreakdownError(Exception):
    """A chain difference product became singular (degenerate draw; resample)."""

    def __init__(self, position: int):
        self.position = position
        super().__init__(f"chain breakdown at position {position}")


class DegenerateEndpointError(Exception):
    """An interval endpoint coincides with a full node spectrum."""


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
                raise DimensionMismatchError("coefficient blocks must share one square size")
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
        raise DimensionMismatchError(f"X must be {b}x{b}, got {x.shape}")
    acc = p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = c + x @ acc
    return acc


def eval_lambda(p: MatrixPolynomial, lam: float) -> np.ndarray:
    """Evaluate the lambda-matrix ``p(lam * I)``."""
    acc = p.coeffs[-1]
    for c in p.coeffs[-2::-1]:
        acc = c + lam * acc
    return acc


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

    def spectrum_bounds(self) -> tuple[float, float]:
        allv = np.concatenate(self.lambdas)
        return float(allv.min()), float(allv.max())


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
    with peeling degree-one factors off the highest position first, and is
    verified against :func:`fundamental_via_solve`.) The fully absorbed
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


def solvent_chain(nodes: NodeSet, k: int) -> SolventChain:
    """Build the chain factorization for node ``k``.

    Raises :class:`ChainBreakdownError` when a fully absorbed difference
    product fails the ``1e-12`` nonsingularity gate; such draws are
    measure-zero for Gaussian eigenvector matrices and callers resample.
    """
    d, b = nodes.d, nodes.b
    if not 0 <= k < d:
        raise IndexError(f"node index {k} out of range for {d} nodes")
    order = (k, *range(k), *range(k + 1, d))
    lam_p = [nodes.lambdas[i] for i in order]
    om_p = [nodes.omegas[i] for i in order]
    b_p = [nodes.bs[i] for i in order]
    eye = np.eye(b)
    b_hats: list = [None] * d
    s_full: list = [None] * d
    for i in range(d - 1, -1, -1):
        acc = eye
        for j in range(d - 1, i, -1):
            acc = b_p[i] @ acc - acc @ b_hats[j]
        s_full[i] = acc
        try:
            gated_svals(acc, 1e-12)
            b_hats[i] = conjugate(om_p[i] @ acc, lam_p[i])
        except SingularMatrixError as exc:
            raise ChainBreakdownError(i) from exc
    # s_full[0] passed the 1e-12 gate above, so the inversion needs no second one
    s_head_inv = np.linalg.solve(s_full[0], eye)
    return SolventChain(
        nodes=nodes,
        k=k,
        order=order,
        lambdas=tuple(lam_p),
        b_hats=tuple(b_hats),
        s_full=tuple(s_full),
        s_head_inv=s_head_inv,
    )


def fundamental_via_chain(chain: SolventChain, lam) -> np.ndarray:
    """Evaluate the chain form of the fundamental polynomial at scalars.

    A scalar ``lam`` gives one b-by-b value; a 1-D array of G points gives a
    (G, b, b) stack. The factors ``(lam I - b_hats[i])`` multiply
    left-to-right from the last position down to position 1, then the
    inverse head product is applied. Every point of a stack goes through
    the same products in the same order as a scalar call.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if lam.ndim > 1:
        raise ValueError(f"lam must be a scalar or a 1-D array, got shape {lam.shape}")
    shifts = lam[..., None, None] * np.eye(chain.b)
    if chain.d == 1:
        return np.broadcast_to(chain.s_head_inv, shifts.shape)
    acc = shifts - chain.b_hats[chain.d - 1]
    for i in range(chain.d - 2, 0, -1):
        acc = acc @ (shifts - chain.b_hats[i])
    return acc @ chain.s_head_inv


def solvent_residual(p: MatrixPolynomial, b_mat) -> float:
    """Spectral norm of ``p`` evaluated at a candidate solvent."""
    return spectral_norm(eval_matrix(p, b_mat))


def bezout_quotient(p: MatrixPolynomial, b_mat) -> tuple[MatrixPolynomial, np.ndarray]:
    """Divide off a degree-one factor: ``p(lam) = (lam I - B) q(lam) + R``.

    The remainder equals ``eval_matrix(p, B)``, so it vanishes exactly when
    B is a solvent of p.
    """
    b_mat = as_matrix(b_mat, "B")
    b = p.block_size
    if b_mat.shape != (b, b):
        raise DimensionMismatchError(f"B must be {b}x{b}, got {b_mat.shape}")
    d = p.degree
    if d == 0:
        return MatrixPolynomial((np.zeros((b, b)),)), p.coeffs[0].copy()
    quot: list = [None] * d
    quot[d - 1] = p.coeffs[d]
    for i in range(d - 1, 0, -1):
        quot[i - 1] = p.coeffs[i] + b_mat @ quot[i]
    remainder = p.coeffs[0] + b_mat @ quot[0]
    return MatrixPolynomial(tuple(quot)), remainder


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


@dataclass(frozen=True)
class GrowthSample:
    """One evaluation point of the growth inequality."""

    lam: float
    lhs: float
    rhs: float
    holds: bool


def growth_bound_check(chains, interval, lam_samples, rel_tol: float = 1e-10):
    """Check the fundamental-polynomial growth inequality outside the interval.

    For each sample point the left side is ``max_k ||F_k(lam)||^(1/(d-1))``
    and the right side is the distance-to-interval factor over the minimal
    node gap, times ``chi_mono * chi_coef``. Returns the per-sample records;
    any violation is flagged on the record.
    """
    if not chains:
        raise ValueError("need at least one chain")
    nodes = chains[0].nodes
    d = nodes.d
    lo, hi = float(interval[0]), float(interval[1])
    chi_mono, chi_coef = chi_quantities(nodes, chains, interval)
    gap = min_separation(nodes.lambdas)
    lams = np.asarray(lam_samples, dtype=np.float64).reshape(-1)
    inside = (lo <= lams) & (lams <= hi)
    if inside.any():
        raise ValueError(f"sample {float(lams[inside][0])} lies inside the interval")
    norms = spectral_norm(np.stack([fundamental_via_chain(c, lams) for c in chains])).max(axis=0)
    out = []
    for lam, norm in zip(lams.tolist(), norms.tolist()):
        lhs = norm ** (1.0 / (d - 1))
        rhs = max(hi - lam, lam - lo) / gap * chi_mono * chi_coef
        out.append(GrowthSample(lam, lhs, rhs, lhs <= rhs * (1.0 + rel_tol)))
    return out
