"""Cluster-robustness quantities for randomized small-block Lanczos.

The central object is the tangent of the largest principal angle between
the invariant subspace of a targeted eigenvalue cluster and the block
Krylov subspace built from a Gaussian initial block. The angle is computed
by two independent routes (a Lanczos basis split and an explicit block
Vandermonde factorization), compared against the structural bound
``c_Omega * G_d``, and swept over synthetic spectra in Monte Carlo
experiments.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .config import derive_stream_id, sample_stream
from .lanczos import LinearOperator, block_lanczos, krylov_basis, rayleigh_ritz
from .linalg import (
    SingularMatrixError,
    as_matrix,
    gated_svals,
    gaussian_matrix,
    max_spectral_norm,
    smallest_singular,
    solve_linear,
    spectral_norm,
)
from .matpoly import (
    NodeSet,
    SolventChains,
    block_vandermonde,
    chi_quantities,
    conjugate,
    fundamental_via_chain,
    min_separation,
    solvent_chain,
)


@dataclass(frozen=True)
class ClusterSpec:
    """Synthetic diagonal spectrum with a targeted eigenvalue cluster.

    The cluster consists of ``d`` diagonal blocks of size ``b`` inside
    ``[cluster_min, cluster_max]``; all remaining eigenvalues sit outside
    that interval. The test matrix is diagonal with the cluster leading,
    which loses no generality for Gaussian initial blocks (rotation
    invariance); the targeted invariant subspace is then spanned by the
    leading ``b*d`` coordinates.
    """

    n: int
    b: int
    d: int
    lambda_blocks: tuple
    lambda_perp: np.ndarray
    cluster_min: float
    cluster_max: float
    lambda_min: float = field(init=False)
    lambda_max: float = field(init=False)
    relgap: float = field(init=False)

    def __post_init__(self):
        blocks = tuple(
            np.asarray(blk, dtype=np.float64).reshape(-1) for blk in self.lambda_blocks
        )
        perp = np.asarray(self.lambda_perp, dtype=np.float64).reshape(-1)
        if len(blocks) != self.d or any(blk.size != self.b for blk in blocks):
            raise ValueError("need d cluster blocks of size b")
        if perp.size != self.n - self.b * self.d:
            raise ValueError("lambda_perp must have n - b*d entries")
        allv = np.concatenate(blocks + (perp,))
        if not np.isfinite(allv).all():
            raise ValueError("spectrum contains non-finite entries")
        lo, hi = float(self.cluster_min), float(self.cluster_max)
        if not lo <= hi:
            raise ValueError("cluster interval endpoints out of order")
        for blk in blocks:
            if blk.min() < lo or blk.max() > hi:
                raise ValueError("cluster blocks must lie inside the cluster interval")
        if perp.size and np.any((perp >= lo) & (perp <= hi)):
            raise ValueError("lambda_perp entries must lie outside the cluster interval")
        gap = min_separation(blocks)
        width = float(allv.max() - allv.min())
        relgap = gap / width if width > 0.0 else math.inf
        object.__setattr__(self, "lambda_blocks", blocks)
        object.__setattr__(self, "lambda_perp", perp)
        object.__setattr__(self, "lambda_min", float(allv.min()))
        object.__setattr__(self, "lambda_max", float(allv.max()))
        object.__setattr__(self, "relgap", float(relgap))

    def spectrum(self) -> np.ndarray:
        return np.concatenate(self.lambda_blocks + (self.lambda_perp,))

    def operator(self) -> LinearOperator:
        return LinearOperator.from_diagonal(self.spectrum())

    def omega_blocks(self, omega) -> np.ndarray:
        """The ``(m, b, b)`` partition blocks of Omega, a view of its rows."""
        omega = as_matrix(omega, "Omega")
        if omega.shape != (self.n, self.b):
            raise ValueError(f"Omega must be {self.n} x {self.b}")
        if self.n % self.b != 0:
            raise ValueError("n must be a multiple of b for the block partition")
        return omega.reshape(-1, self.b, self.b)


def tan_angle_krylov(spec: ClusterSpec, omega, steps: int) -> float:
    """Tangent of the largest principal angle via a block Lanczos basis.

    The orthonormal Krylov basis is split into its leading ``b*d`` rows and
    the remainder (``_tangent_from_basis``). Returns ``inf`` when the
    smallest cosine is below ``1e-14``, the correct tangent whenever an
    in-cluster eigenvalue has multiplicity above b.
    """
    bd = spec.b * spec.d
    if spec.b * steps < bd:
        raise ValueError("need at least d block steps to resolve the cluster")
    return _tangent_from_basis(krylov_basis(spec.operator(), omega, steps), bd)


def _tangent_from_basis(v: np.ndarray, bd: int) -> float:
    """Largest principal-angle tangent of span(v) against the leading bd coordinates.

    CS form (Bjorck & Golub, Math. Comp. 1973): the tangents are the
    singular values of ``bottom @ pinv(top)``, and the cosines those of
    ``top``. The smallest cosine ``c`` comes from a values-only SVD. Where
    the angle is at least 45 degrees the tangent is ``sqrt(1 - c^2) / c``,
    as the columns of v are orthonormal; below it the norm of
    ``bottom @ pinv(top)`` takes the angle from its sine (Knyazev &
    Argentati, SISC 2002). The cosine counts whenever it clears the
    ``1e-14`` gate.
    """
    c = np.linalg.svd(v[:bd, :], compute_uv=False)[-1]
    if c < 1e-14:
        return math.inf
    # 45 degrees: up to here sin >= c, so a sine taken from c keeps c's
    # relative accuracy; past it the error grows as (c / sin)^2
    if c <= 1.0 / math.sqrt(2.0):
        return float(math.sqrt((1.0 - c) * (1.0 + c)) / c)
    # every singular value of top lies in (1/sqrt(2), 1], far above
    # lstsq's default cutoff, so rcond=None truncates nothing
    return spectral_norm(np.linalg.lstsq(v[:bd].T, v[bd:].T, rcond=None)[0])


def tan_angle_vandermonde(spec: ClusterSpec, blocks, nodes: NodeSet):
    """Tangent of the largest principal angle via the explicit factorization.

    ``blocks`` are ``spec.omega_blocks(omega)`` and ``nodes`` the
    :class:`NodeSet` of their d leading blocks. The Krylov matrix
    ``[Omega, A Omega, ..., A^(d-1) Omega]`` has block row
    ``[Omega_j, L_j Omega_j, ..., L_j^(d-1) Omega_j]`` for partition block j
    with spectrum ``L_j``. Since ``Omega_j B_j^p = L_j^p Omega_j`` for the
    node ``B_j = inv(Omega_j) L_j Omega_j``, the leading rows factor as
    ``K = D * Van`` with D the block diagonal of the first d partition
    blocks and Van the block Vandermonde of the nodes; the trailing rows
    ``K_perp`` are formed from ``lambda_perp`` directly, with no node.
    Returns ``(||K_perp @ inv(K)||, K)``; ``solve_linear`` gates ``K.T``,
    whose singular values are K's, at ``1e-14``.
    """
    b, d = spec.b, spec.d
    k_mat = (blocks[:d] @ block_vandermonde(nodes).reshape(d, b, b * d)).reshape(b * d, b * d)
    k_perp = [blocks[d:].reshape(-1, b)]
    for _ in range(d - 1):
        k_perp.append(spec.lambda_perp[:, None] * k_perp[-1])
    coeffs = solve_linear(k_mat.T, np.hstack(k_perp).T)
    return spectral_norm(coeffs.T), k_mat


def c_omega(spec: ClusterSpec, omega) -> float:
    """Initial-block conditioning factor of the structural bound.

    Product of ``sqrt(d*n - b*d^2)``, the worst inverse norm over the d
    leading partition blocks, the worst norm over the trailing blocks, and
    the worst norm*inverse-norm over the trailing blocks. The trailing-norm
    factor enters twice, once alone and once inside the conditioning term,
    exactly as the bound is defined.
    """
    blocks = spec.omega_blocks(omega)
    if len(blocks) <= spec.d:
        raise ValueError("need at least one out-of-cluster block (m > d)")
    svals = gated_svals(blocks, 1e-14)
    top, low = svals[:, 0], svals[:, -1]
    inv_lead = (1.0 / low[: spec.d]).max()
    norm_tail = top[spec.d:].max()
    cond_tail = (top[spec.d:] / low[spec.d:]).max()
    return math.sqrt(spec.d * spec.n - spec.b * spec.d**2) * inv_lead * norm_tail * cond_tail


def outside_grid(spec: ClusterSpec, grid_size: int = 1000) -> np.ndarray:
    """Sample points on the spectrum range minus the cluster interval.

    All out-of-cluster eigenvalues are always included; a uniform grid over
    the two complement segments (sized proportionally to their lengths)
    adds a safety margin for the continuous supremum.
    """
    lo, hi = spec.cluster_min, spec.cluster_max
    segments = []
    if spec.lambda_min < lo:
        segments.append((spec.lambda_min, lo))
    if hi < spec.lambda_max:
        segments.append((hi, spec.lambda_max))
    total = sum(b - a for a, b in segments)
    pts = [spec.lambda_perp]
    for a, b_end in segments:
        pts.append(np.linspace(a, b_end, max(2, int(round(grid_size * (b_end - a) / total)))))
    cand = np.concatenate(pts)
    return cand[(cand < lo) | (cand > hi)]


def growth_Gd(spec: ClusterSpec, chains: SolventChains, grid_size: int = 1000) -> float:
    """Largest fundamental-polynomial norm over the out-of-cluster sample set.

    One ``(d, G, b, b)`` grid; only points whose Frobenius norm can reach it get an SVD.
    """
    samples = outside_grid(spec, grid_size)
    if samples.size == 0:
        raise ValueError("no sample points outside the cluster interval")
    return max_spectral_norm(fundamental_via_chain(chains, samples))


@dataclass(frozen=True)
class RobustnessReport:
    """Per-trial record of the structural-bound experiment.

    The fields are the columns of ``bound_reports.csv`` after ``b, d, trial``, in order.
    """

    tan_angle_krylov: float
    tan_angle_vandermonde: float
    c_omega: float
    chi_mono: float
    chi_coef: float
    g_d: float
    bound: float
    bound_holds: bool
    cond_k: float
    retries: int


# Resamples of a degenerate draw before a structural-bound trial gives up.
MAX_RETRIES = 8


def structural_bound_trial(
    spec: ClusterSpec,
    seed: int,
    base_stream: int = 0,
    grid_size: int = 1000,
) -> RobustnessReport:
    """Sample a Gaussian initial block and evaluate the structural bound.

    Draws that hit a measure-zero degeneracy, any :class:`SingularMatrixError`
    (singular partition block, chain breakdown, singular K), are resampled on
    fresh stream ids up to ``MAX_RETRIES`` times; the retry count is recorded.
    A trial whose every draw was degenerate raises :class:`SingularMatrixError`
    chained from the last draw's error.
    """
    if spec.d >= 2 and not spec.relgap > 0.0:
        raise ValueError("structural bound requires a positive relgap")
    last_exc: Exception | None = None
    for attempt in range(MAX_RETRIES + 1):
        rng = sample_stream(seed, base_stream + attempt)
        omega = gaussian_matrix(spec.n, spec.b, rng)
        try:
            blocks = spec.omega_blocks(omega)
            c_om = c_omega(spec, omega)
            nodes = NodeSet(spec.lambda_blocks, blocks[: spec.d])
            chains = solvent_chain(nodes)
            tan_van, k_mat = tan_angle_vandermonde(spec, blocks, nodes)
        except SingularMatrixError as exc:
            last_exc = exc
            continue
        tan_kry = tan_angle_krylov(spec, omega, spec.d)
        if spec.d >= 2:
            chi_mono, chi_coef = chi_quantities(
                nodes, chains, (spec.cluster_min, spec.cluster_max)
            )
        else:
            chi_mono, chi_coef = 1.0, 1.0
        g_d = growth_Gd(spec, chains, grid_size)
        bound = c_om * g_d
        return RobustnessReport(
            tan_angle_krylov=tan_kry,
            tan_angle_vandermonde=tan_van,
            c_omega=c_om,
            chi_mono=chi_mono,
            chi_coef=chi_coef,
            g_d=g_d,
            bound=bound,
            bound_holds=bool(tan_van <= bound * (1.0 + 1e-8)),
            cond_k=float(np.linalg.cond(k_mat, 1)),
            retries=attempt,
        )
    raise SingularMatrixError(
        f"persistent degeneracy after {MAX_RETRIES} retries: {last_exc}"
    ) from last_exc


@dataclass(frozen=True)
class ExperimentFamily:
    """One of the two synthetic sweep designs for the conjecture experiments.

    Cluster blocks sit at uniformly spaced eigenvalues in
    ``[alpha*k + beta*(k-1), alpha*k + beta*(k+1)] / cluster_dim`` for
    ``k = 1..d``, so ``beta`` controls the cluster radius and ``alpha`` the
    gap between neighboring blocks. The beta sweep fixes ``alpha = 1`` and
    halves beta twelve times; the alpha sweep fixes ``beta = 1e-4`` and
    halves alpha ten times. The out-of-cluster spectrum makes the cluster
    either exterior (all other eigenvalues below) or interior (half below,
    half above, the odd one above). Every d divides ``cluster_dim``, which is at most ``n``.
    """

    sweep: str
    variant: str
    n: int
    cluster_dim: int

    def __post_init__(self):
        if self.sweep not in ("beta", "alpha"):
            raise ValueError("sweep must be 'beta' or 'alpha'")
        if self.variant not in ("exterior", "interior"):
            raise ValueError("variant must be 'exterior' or 'interior'")
        if any(self.cluster_dim % d for d in self.d_values):
            d_text = ", ".join(map(str, self.d_values))
            raise ValueError(
                f"cluster_dim must be divisible by d = {d_text}, got {self.cluster_dim}"
            )
        if self.n < self.cluster_dim:
            raise ValueError(f"n must be >= cluster_dim = {self.cluster_dim}, got {self.n}")

    @property
    def d_values(self) -> tuple:
        return (2, 3, 4, 5) if self.sweep == "beta" else (2, 3, 4)

    @property
    def sweep_values(self) -> tuple:
        count = 12 if self.sweep == "beta" else 10
        return tuple(2.0 ** -i for i in range(1, count + 1))

    def spec_for(self, d: int, value: float) -> ClusterSpec:
        b = self.cluster_dim // d
        alpha, beta = (1.0, value) if self.sweep == "beta" else (value, 1e-4)
        blocks = tuple(
            np.linspace(
                (alpha * k + beta * (k - 1)) / self.cluster_dim,
                (alpha * k + beta * (k + 1)) / self.cluster_dim,
                b,
            )
            for k in range(1, d + 1)
        )
        rest = self.n - self.cluster_dim
        if self.variant == "exterior":
            perp = -1.0 - np.arange(1, rest + 1) / rest
        else:
            below = rest // 2
            above = rest - below
            perp = np.concatenate(
                [-1.0 - np.arange(1, below + 1) / below, 4.0 + np.arange(1, above + 1) / above]
            )
        return ClusterSpec(
            n=self.n,
            b=b,
            d=d,
            lambda_blocks=blocks,
            lambda_perp=perp,
            cluster_min=float(blocks[0][0]),
            cluster_max=float(blocks[-1][-1]),
        )


@dataclass(frozen=True)
class QuantileSummary:
    """Median and quartiles of the measured angle for one sweep configuration.

    The fields are the columns of a ``cluster_*.csv`` row, in order.
    """

    d: int
    sweep_value: float
    relgap: float
    median: float
    q25: float
    q75: float
    trials: int


def quantile(sorted_samples: np.ndarray, q: float) -> float:
    """Linear-interpolation quantile that stays total when samples hit inf."""
    pos = q * (sorted_samples.size - 1)
    lo, hi = int(math.floor(pos)), int(math.ceil(pos))
    if sorted_samples[lo] == sorted_samples[hi]:
        return float(sorted_samples[lo])
    frac = pos - lo
    return float((1.0 - frac) * sorted_samples[lo] + frac * sorted_samples[hi])


def conjecture_experiment(
    family: ExperimentFamily,
    trials: int,
    master_seed: int,
) -> list:
    """Monte Carlo sweep of the measured tangent over one experiment family.

    Per configuration the tangent is sampled over independent Gaussian
    initial blocks; the trial streams are derived from the configuration
    key, so results are deterministic given the master seed and
    independent of scheduling.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    summaries = []
    for d in family.d_values:
        for value in family.sweep_values:
            spec = family.spec_for(d, value)
            key = (
                f"cluster-robustness|{family.variant}|{family.sweep}"
                f"|n={family.n}|bd={family.cluster_dim}|d={d}|v={value!r}"
            )
            samples = np.empty(trials)
            for t in range(trials):
                rng = sample_stream(master_seed, derive_stream_id(key, t))
                omega = gaussian_matrix(spec.n, spec.b, rng)
                samples[t] = tan_angle_krylov(spec, omega, d)
            samples.sort()
            summaries.append(
                QuantileSummary(
                    d=d,
                    sweep_value=value,
                    relgap=spec.relgap,
                    median=quantile(samples, 0.5),
                    q25=quantile(samples, 0.25),
                    q75=quantile(samples, 0.75),
                    trials=trials,
                )
            )
    return summaries


def sandwich_d2(b1, b2) -> tuple[float, float, float, bool]:
    """Two-sided bound linking ``||inv(B1 - B2)||`` to the stacked 2x2 block matrix.

    Returns ``(lower, middle, upper, holds)`` where the middle term is the
    squared inverse norm of ``[[I, B1], [I, B2]]`` and the outer terms are
    ``(3 -/+ sqrt(5))/2`` multiples of the squared inverse difference norm
    (the upper one with the ``1 + (||B1||^2 + 1) ...`` correction).
    """
    b1 = as_matrix(b1, "B1")
    b2 = as_matrix(b2, "B2")
    if b1.shape != b2.shape or b1.shape[0] != b1.shape[1]:
        raise ValueError("B1 and B2 must be square with equal shapes")
    b = b1.shape[0]
    sv = gated_svals(b1 - b2, 1e-12)
    inv_sq = (1.0 / sv[-1]) ** 2
    stacked = np.block([[np.eye(b), b1], [np.eye(b), b2]])
    middle = (1.0 / smallest_singular(stacked)) ** 2
    lower = (3.0 - math.sqrt(5.0)) / 2.0 * inv_sq
    upper = (3.0 + math.sqrt(5.0)) / 2.0 * (1.0 + (spectral_norm(b1) ** 2 + 1.0) * inv_sq)
    holds = lower <= middle * (1.0 + 1e-8) and middle <= upper * (1.0 + 1e-8)
    return lower, middle, upper, holds


PROBE_QUANTILES = (0.01, 0.25, 0.5, 0.75, 0.99)


def probe_solvent_difference(
    lam_i,
    lam_j,
    trials: int,
    master_seed: int,
    key: str,
) -> dict:
    """Empirical ``PROBE_QUANTILES`` of the smallest singular value of ``B_i - B_j``.

    Both solvents share deterministic diagonal spectra but carry fresh
    independent Gaussian eigenvector matrices per trial, drawn from the
    stream ``derive_stream_id(key, t)`` of trial ``t``. Purely an
    observational probe of the non-commuting difficulty; nothing is
    asserted about the distribution.
    """
    lam_i = np.asarray(lam_i, dtype=np.float64).reshape(-1)
    lam_j = np.asarray(lam_j, dtype=np.float64).reshape(-1)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if lam_i.size != lam_j.size:
        raise ValueError("spectra must have equal size")
    if min_separation((lam_i, lam_j)) == 0.0:
        raise ValueError("spectra must be disjoint")
    b = lam_i.size
    om_i = np.empty((trials, b, b))
    om_j = np.empty((trials, b, b))
    for t in range(trials):
        rng = sample_stream(master_seed, derive_stream_id(key, t))
        om_i[t] = gaussian_matrix(b, b, rng)
        om_j[t] = gaussian_matrix(b, b, rng)
    samples = np.sort(smallest_singular(conjugate(om_i, lam_i) - conjugate(om_j, lam_j)))
    return {float(q): quantile(samples, q) for q in PROBE_QUANTILES}


@dataclass(frozen=True)
class LowRankReport:
    """Observed low-rank approximation quality against the dense-SVD optimum.

    The fields are the rows of ``lowrank.csv``, in order.
    """

    spectral_error: float
    frobenius_error: float
    best_spectral: float
    best_frobenius: float
    eps: float
    spectral_within: bool
    frobenius_within: bool
    rayleigh_threshold: float
    max_rayleigh_error: float
    rayleigh_within: bool


def lowrank_check(
    a_hat, b: int, d: int, steps: int, eps: float, rng: np.random.Generator
) -> LowRankReport:
    """Measure block-Krylov low-rank approximation quality (report only).

    Runs block Lanczos on the Gram operator of ``a_hat``, projects onto the
    top ``b*d`` Ritz vectors, and reports spectral / Frobenius errors
    against ``(1 + eps)`` times the best rank-``b*d`` errors from a dense
    SVD, plus the per-vector Rayleigh quotient accuracy. The inequalities
    rest on a conjectured bound, so they are recorded, not asserted.
    """
    a_hat = as_matrix(a_hat, "A_hat")
    n_rows, n_cols = a_hat.shape
    if n_rows < n_cols:
        raise ValueError("a_hat must have at least as many rows as columns")
    rank = b * d
    if rank > n_cols:
        raise ValueError("target rank exceeds the column count")
    op = LinearOperator(n_cols, lambda block: a_hat.T @ (a_hat @ block))
    omega = gaussian_matrix(n_cols, b, rng)
    basis = block_lanczos(op, omega, steps)
    ritz = rayleigh_ritz(basis, rank)
    v = ritz.vectors
    resid = a_hat - (a_hat @ v) @ v.T
    spectral_error = spectral_norm(resid)
    frobenius_error = float(np.linalg.norm(resid))
    svals = np.linalg.svd(a_hat, compute_uv=False)
    best_spectral = float(svals[rank]) if rank < svals.size else 0.0
    best_frobenius = float(np.sqrt(np.sum(svals[rank:] ** 2)))
    eigs_desc = svals**2
    lam_next = float(eigs_desc[rank]) if rank < eigs_desc.size else 0.0
    col_norms_sq = np.sum((a_hat @ v) ** 2, axis=0)
    max_rayleigh_error = float(np.abs(col_norms_sq[::-1] - eigs_desc[:rank]).max())
    threshold = eps * lam_next
    return LowRankReport(
        spectral_error=spectral_error,
        frobenius_error=frobenius_error,
        best_spectral=best_spectral,
        best_frobenius=best_frobenius,
        eps=eps,
        spectral_within=bool(spectral_error <= (1.0 + eps) * best_spectral + 1e-12),
        frobenius_within=bool(frobenius_error <= (1.0 + eps) * best_frobenius + 1e-12),
        rayleigh_threshold=threshold,
        max_rayleigh_error=max_rayleigh_error,
        rayleigh_within=bool(max_rayleigh_error <= threshold + 1e-12),
    )
