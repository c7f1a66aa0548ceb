import dataclasses
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import helpers
from helpers import (
    ZeroGapError,
    chebyshev_accel_check,
    chebyshev_value,
    fundamental_norms_loop,
    lagrange_scalar,
    record_stream_ids,
    stream_draws,
)
from rsbl.config import ExperimentConfig, sample_stream
from rsbl.experiments import bound_verify_spec, run_cluster_robustness, run_probe
from rsbl.lanczos import BreakdownError, block_lanczos
from rsbl.linalg import SingularMatrixError, gaussian_matrix, smallest_singular
from rsbl.matpoly import NodeSet, conjugate, solvent_chain
from rsbl.robustness import (
    ClusterSpec,
    ExperimentFamily,
    _tangent_from_basis,
    c_omega,
    growth_Gd,
    lowrank_check,
    outside_grid,
    sandwich_d2,
    structural_bound_trial,
    tan_angle_krylov,
    tan_angle_vandermonde,
)


def make_spec(rng, b, d, m=16):
    """Random spec with well-separated cluster blocks in [1, ...] over [-1, 0] noise."""
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


def vandermonde_tangent(spec, omega):
    """The Vandermonde-route tangent of one initial block, nodes built as the trial builds them."""
    blocks = spec.omega_blocks(omega)
    return tan_angle_vandermonde(spec, blocks, NodeSet(spec.lambda_blocks, blocks[: spec.d]))[0]


def _tiny_spec(n=4, b=1, d=2, blocks=((1.0,), (2.0,)), perp=(4.0, 5.0), lo=0.0, hi=3.0):
    return ClusterSpec(n, b, d, tuple(map(np.array, blocks)), np.array(perp), lo, hi)


# each input check of ClusterSpec and the robustness entry points: an input
# that trips it, and its message
INPUT_CHECKS = {
    "block-count": (lambda: _tiny_spec(blocks=((1.0,),)), "need d cluster blocks of size b"),
    "perp-size": (lambda: _tiny_spec(perp=(4.0,)), "lambda_perp must have n - b*d entries"),
    "non-finite": (lambda: _tiny_spec(perp=(4.0, math.nan)), "spectrum contains non-finite"),
    "interval-order": (lambda: _tiny_spec(lo=3.0, hi=0.0), "endpoints out of order"),
    "block-outside": (lambda: _tiny_spec(hi=1.5), "cluster blocks must lie inside"),
    "perp-inside": (lambda: _tiny_spec(perp=(1.5, 4.0)), "lambda_perp entries must lie outside"),
    "omega-shape": (lambda: _tiny_spec().omega_blocks(np.ones((3, 1))), "Omega must be 4 x 1"),
    "block-partition": (
        lambda: _tiny_spec(n=5, b=2, blocks=((1.0, 1.1), (2.0, 2.1)), perp=(4.0,))
        .omega_blocks(np.ones((5, 2))),
        "n must be a multiple of b",
    ),
    "krylov-steps": (
        lambda: tan_angle_krylov(_tiny_spec(), np.ones((4, 1)), 1),
        "need at least d block steps",
    ),
    "no-tail-block": (
        lambda: c_omega(_tiny_spec(n=2, perp=()), np.ones((2, 1))),
        "need at least one out-of-cluster block (m > d)",
    ),
    "empty-grid": (
        lambda: growth_Gd(_tiny_spec(n=2, perp=(), lo=1.0, hi=2.0), None),
        "no sample points outside the cluster interval",
    ),
    # a zero gap is a valid spectrum, but the bound at d >= 2 needs a positive one
    "bound-zero-relgap": (
        lambda: structural_bound_trial(_tiny_spec(blocks=((1.0,), (1.0,))), stream_draws(0)),
        "structural bound requires a positive relgap",
    ),
    "bound-no-draws": (
        lambda: structural_bound_trial(_tiny_spec(), iter(())),
        "draws must yield at least one Generator",
    ),
}


@pytest.mark.parametrize("check", INPUT_CHECKS)
def test_cluster_spec_validation(check):
    trip, message = INPUT_CHECKS[check]
    with pytest.raises(ValueError, match=re.escape(message)):
        trip()


def test_cluster_spec_fields():
    spec = ClusterSpec(
        4, 1, 2, (np.array([1.0]), np.array([1.0])), np.array([3.0, 4.0]), 0.0, 2.0
    )
    assert spec.relgap == 0.0
    good = ClusterSpec(4, 1, 2, (np.array([1.0]), np.array([2.0])), np.array([4.0, 5.0]), 0.0, 3.0)
    assert good.lambda_min == 1.0 and good.lambda_max == 5.0
    assert good.relgap == pytest.approx(1.0 / 4.0)


def test_tan_angle_zero_for_contained_krylov_space():
    rng = np.random.default_rng(0)
    spec = make_spec(rng, 2, 2)
    omega = np.zeros((spec.n, 2))
    omega[:4] = rng.standard_normal((4, 2))
    assert tan_angle_krylov(spec, omega, 2) <= 1e-10


def test_multiplicity_obstruction_returns_infinity():
    blocks = (np.array([1.0, 1.0]), np.array([1.0, 1.3]))
    spec = ClusterSpec(
        n=20, b=2, d=2, lambda_blocks=blocks,
        lambda_perp=np.linspace(-1.0, 0.0, 16),
        cluster_min=0.9, cluster_max=1.4,
    )
    for trial in range(5):
        omega = gaussian_matrix(20, 2, sample_stream(trial, 0))
        for steps in (2, 3, 4):
            assert tan_angle_krylov(spec, omega, steps) == math.inf


def test_krylov_tangent_counts_cosines_below_least_squares_cutoff():
    # smallest cosine 1.03e-14: above the 1e-14 inf gate, below the
    # 60 * eps * s_max cut-off a least-squares solve with rcond=None applies
    family = ExperimentFamily(sweep="alpha", variant="exterior", n=1000, cluster_dim=60)
    spec = family.spec_for(4, 2.0**-5)
    omega = gaussian_matrix(spec.n, spec.b, sample_stream(1, 78))
    v = block_lanczos(spec.operator(), omega, 4).V
    c = np.linalg.svd(v[:60], compute_uv=False)[-1]
    assert 1e-14 <= c < 60 * np.finfo(np.float64).eps
    expected = math.sqrt(1.0 - c * c) / c
    assert tan_angle_krylov(spec, omega, 4) == pytest.approx(expected, rel=1e-6)


def _angle_basis(rng, theta, k: int, n: int) -> np.ndarray:
    """Orthonormal n x k basis whose principal angles to the leading coordinates are theta.

    ``V = [U1 cos(Theta); U2 sin(Theta)] W^T`` with random orthogonal U1, W
    and orthonormal U2; the ``k - bd`` extra columns of U2 have no leading
    rows. Cosines and sines are both taken from theta, so the angles hold
    to rounding even where a cosine is within ulps of 1.
    """
    bd = theta.size
    top = np.zeros((bd, k))
    top[:, :bd] = np.linalg.qr(rng.standard_normal((bd, bd)))[0] * np.cos(theta)
    bottom = np.linalg.qr(rng.standard_normal((n - bd, n - bd)))[0] @ np.eye(n - bd, k)
    bottom[:, :bd] *= np.sin(theta)
    w = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return np.vstack([top, bottom]) @ w.T


@st.composite
def _angle_case(draw, theta_max):
    """(basis, bd, largest angle) with the other angles equal to it, within a
    relative 1e-15 to 1e-6 below it, spread below it, or zero."""
    t_max = draw(theta_max)
    bd = draw(st.integers(1, 8))
    k = bd + draw(st.integers(0, 6))
    n = bd + k + draw(st.integers(0, 40))
    rest = draw(st.lists(st.one_of(
        st.just(t_max),
        st.floats(-15.0, -6.0).map(lambda e: t_max * (1.0 - 10.0**e)),
        st.floats(0.0, 1.0).map(lambda t: t_max * t),
        st.just(0.0),
    ), min_size=bd - 1, max_size=bd - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _angle_basis(rng, np.array([t_max, *rest]), k, n), bd, t_max


def _assert_tangent_matches_angle(case):
    v, bd, t_max = case
    got = _tangent_from_basis(v, bd)
    if t_max == 0.0:
        assert got == 0.0
        return
    # rounding V moves an angle by a few eps, and d(tan)/tan = dtheta / (sin cos);
    # C = 128 is four times the worst C (31) over 12,000 random draws of these cases
    tol = 128 * np.finfo(np.float64).eps / (math.sin(t_max) * math.cos(t_max))
    assert got == pytest.approx(math.tan(t_max), rel=tol)


def _zero_angle_case(bd: int, n: int):
    # bottom rows exactly zero (or absent at n = bd): the tangent is exactly 0
    rng = np.random.default_rng(bd + n)
    return _angle_basis(rng, np.zeros(bd), bd, n), bd, 0.0


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_angle_case(st.floats(-9.0, math.log10(0.7)).map(lambda e: 10.0**e)))
@example(case=_zero_angle_case(3, 11))
@example(case=_zero_angle_case(4, 4))
def test_tangent_from_basis_matches_prescribed_angles(case):
    _assert_tangent_matches_angle(case)


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_angle_case(st.one_of(
    st.integers(-4, 4).map(lambda steps: _ulps_from(math.pi / 4, steps)),
    st.sampled_from([math.pi / 4 - 1e-9, math.pi / 4 + 1e-9]),
    st.floats(1e-4, math.pi / 2 - 1e-12),
    st.floats(-12.0, -1.0).map(lambda e: math.pi / 2 - 10.0**e),
)))
def test_tangent_branches_match_prescribed_angles_across_switch(case):
    """Largest angle at the 45-degree switch (a few ulps or 1e-9 either side),
    spread over (0, 90) degrees, or within 1e-12 of 90 degrees."""
    _assert_tangent_matches_angle(case)


def test_tangent_cosine_branch_inf_gate():
    # diag(cos) as the top rows, so the SVD returns the cosines themselves
    rng = np.random.default_rng(30)
    for c, expected in ((5e-15, math.inf), (2e-14, math.sqrt(1.0 - 2e-14**2) / 2e-14)):
        cos = np.array([0.5, c, 0.3])
        bottom = np.linalg.qr(rng.standard_normal((9, 3)))[0] * np.sqrt(1.0 - cos**2)
        v = np.vstack([np.diag(cos), bottom])
        assert _tangent_from_basis(v, 3) == pytest.approx(expected, rel=1e-6)


def test_route_equivalence():
    rng = np.random.default_rng(1)
    for trial in range(30):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(1, 4))
        spec = make_spec(rng, b, d, m=int(rng.integers(d + 2, 16)))
        omega = gaussian_matrix(spec.n, b, sample_stream(100 + trial, 0))
        t_k = tan_angle_krylov(spec, omega, d)
        t_v = vandermonde_tangent(spec, omega)
        assert t_k == pytest.approx(t_v, rel=1e-6)


def test_vandermonde_route_d1_reduction():
    rng = np.random.default_rng(2)
    spec = make_spec(rng, 3, 1, m=6)
    omega = gaussian_matrix(spec.n, 3, sample_stream(3, 0))
    blocks = spec.omega_blocks(omega)
    expected = np.linalg.norm(np.vstack(blocks[1:]) @ np.linalg.inv(blocks[0]), 2)
    assert vandermonde_tangent(spec, omega) == pytest.approx(expected, rel=1e-10)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 3),
    dm=st.integers(1, 3).flatmap(lambda d: st.tuples(st.just(d), st.integers(d + 2, 16))),
    seed=st.integers(0, 2**32 - 1),
)
def test_route_equivalence_property(b, dm, seed):
    # criterion 6's bar: the routes agree to 1e-6 wherever cond_1(K) < 1e8
    d, m = dm
    spec = make_spec(np.random.default_rng(seed), b, d, m=m)
    omega = gaussian_matrix(spec.n, b, sample_stream(seed, 0))
    blocks = spec.omega_blocks(omega)
    nodes = NodeSet(spec.lambda_blocks, tuple(blocks[:d]))
    t_v, k_mat = tan_angle_vandermonde(spec, blocks, nodes)
    assume(np.linalg.cond(k_mat, 1) < 1e8)
    assert tan_angle_krylov(spec, omega, d) == pytest.approx(t_v, rel=1e-6)


@pytest.mark.parametrize("b, d", [(1, 2), (2, 2), (2, 3), (3, 3)])
def test_vandermonde_route_zero_trailing_block(b, d):
    # the trailing rows are diag(lambda_perp)^p Omega_perp, so a zero trailing block
    # is just zero rows of K_perp
    spec = make_spec(np.random.default_rng(40 + b + d), b, d, m=8)
    omega = gaussian_matrix(spec.n, b, sample_stream(41, 0))
    omega[-b:] = 0.0
    lam = spec.spectrum()[:, None]
    k_full = np.hstack([lam**p * omega for p in range(d)])
    bd = b * d
    expected = np.linalg.norm(k_full[bd:] @ np.linalg.inv(k_full[:bd]), 2)
    assert vandermonde_tangent(spec, omega) == pytest.approx(expected, rel=1e-10)


def _affine_image(spec: ClusterSpec, scale: float, shift: float) -> ClusterSpec:
    return ClusterSpec(
        n=spec.n, b=spec.b, d=spec.d,
        lambda_blocks=tuple(scale * blk + shift for blk in spec.lambda_blocks),
        lambda_perp=scale * spec.lambda_perp + shift,
        cluster_min=scale * spec.cluster_min + shift,
        cluster_max=scale * spec.cluster_max + shift,
    )


def test_affine_invariance_of_angle():
    rng = np.random.default_rng(4)
    spec = make_spec(rng, 2, 3, m=12)
    omega = gaussian_matrix(spec.n, 2, sample_stream(5, 0))
    t1 = tan_angle_krylov(spec, omega, 3)
    t2 = tan_angle_krylov(_affine_image(spec, 2.5, -0.4), omega, 3)
    assert t1 == pytest.approx(t2, rel=1e-8)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 3),
    d=st.integers(2, 3),
    scale=st.floats(0.1, 10.0),
    shift=st.floats(-5.0, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_affine_invariance_of_angle_property(b, d, scale, shift, seed):
    # span{A^j Omega} = span{(aA + sI)^j Omega} for a != 0
    spec = make_spec(np.random.default_rng(seed), b, d)
    omega = gaussian_matrix(spec.n, b, sample_stream(seed, 0))
    t1 = tan_angle_krylov(spec, omega, d)
    t2 = tan_angle_krylov(_affine_image(spec, scale, shift), omega, d)
    assert t1 == pytest.approx(t2, rel=1e-8)


def test_monotone_improvement_with_depth():
    rng = np.random.default_rng(6)
    spec = make_spec(rng, 2, 2, m=14)
    omega = gaussian_matrix(spec.n, 2, sample_stream(7, 0))
    tans = [tan_angle_krylov(spec, omega, steps) for steps in (2, 3, 4, 5)]
    for prev, nxt in zip(tans, tans[1:]):
        assert nxt <= prev * (1.0 + 1e-10)


def test_c_omega_orthogonal_blocks():
    rng = np.random.default_rng(8)
    spec = make_spec(rng, 2, 2, m=6)
    omega = np.vstack([np.eye(2)] * 6)
    expected = math.sqrt(spec.d * spec.n - spec.b * spec.d**2)
    assert c_omega(spec, omega) == pytest.approx(expected, rel=1e-12)


def test_c_omega_matches_direct_recomputation():
    rng = np.random.default_rng(9)
    spec = make_spec(rng, 2, 2, m=6)
    omega = gaussian_matrix(spec.n, 2, sample_stream(10, 0))
    blocks = [omega[2 * i:2 * i + 2] for i in range(6)]
    inv_lead = max(np.linalg.norm(np.linalg.inv(blk), 2) for blk in blocks[:2])
    norm_tail = max(np.linalg.norm(blk, 2) for blk in blocks[2:])
    cond_tail = max(
        np.linalg.norm(blk, 2) * np.linalg.norm(np.linalg.inv(blk), 2) for blk in blocks[2:]
    )
    expected = math.sqrt(2 * 12 - 2 * 4) * inv_lead * norm_tail * cond_tail
    assert c_omega(spec, omega) == pytest.approx(expected, rel=1e-10)


def test_c_omega_rejects_missing_tail():
    rng = np.random.default_rng(11)
    spec = make_spec(rng, 2, 2, m=2)
    omega = gaussian_matrix(4, 2, sample_stream(12, 0))
    with pytest.raises(ValueError):
        c_omega(spec, omega)


def test_c_omega_rejects_singular_block():
    rng = np.random.default_rng(24)
    spec = make_spec(rng, 2, 2, m=6)
    for block in (np.ones((2, 2)), np.zeros((2, 2))):
        omega = gaussian_matrix(spec.n, 2, sample_stream(25, 0))
        omega[6:8] = block
        with pytest.raises(SingularMatrixError, match="1e-14"):
            c_omega(spec, omega)


def test_growth_gd_single_node_is_one():
    rng = np.random.default_rng(13)
    spec = make_spec(rng, 2, 1, m=8)
    omega = gaussian_matrix(spec.n, 2, sample_stream(14, 0))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:1]))
    chains = solvent_chain(nodes)
    assert growth_Gd(spec, chains) == pytest.approx(1.0, rel=1e-12)


def test_growth_gd_scalar_matches_lagrange():
    rng = np.random.default_rng(15)
    spec = make_spec(rng, 1, 3, m=10)
    omega = gaussian_matrix(spec.n, 1, sample_stream(16, 0))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:3]))
    chains = solvent_chain(nodes)
    got = growth_Gd(spec, chains, grid_size=500)
    vals = [blk[0] for blk in spec.lambda_blocks]
    samples = outside_grid(spec, 500)
    expected = max(
        abs(lagrange_scalar(vals, k, lam)) for k in range(3) for lam in samples
    )
    assert got == pytest.approx(expected, rel=1e-10)


def test_growth_gd_matches_pointwise_loop():
    rng = np.random.default_rng(20)
    for b, d in ((1, 3), (2, 2), (3, 3)):
        spec = make_spec(rng, b, d, m=10)
        omega = gaussian_matrix(spec.n, b, sample_stream(21, 0))
        nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:d]))
        chains = solvent_chain(nodes)
        expected = fundamental_norms_loop(chains, outside_grid(spec, 300)).max()
        assert growth_Gd(spec, chains, grid_size=300) == expected


def test_growth_gd_rejects_non_finite_values():
    rng = np.random.default_rng(22)
    spec = make_spec(rng, 2, 2, m=8)
    omega = gaussian_matrix(spec.n, 2, sample_stream(23, 0))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:2]))
    chains = solvent_chain(nodes)
    bad = chains.s_head_inv.copy()
    bad[1, 0, 1] = np.nan
    chains = dataclasses.replace(chains, s_head_inv=bad)
    # match the gate's message: a bare SVD of NaN input raises LinAlgError, a ValueError too
    with pytest.raises(ValueError, match="NaN or Inf"):
        growth_Gd(spec, chains)


def test_growth_gd_grid_refinement_stable():
    rng = np.random.default_rng(17)
    spec = make_spec(rng, 2, 2, m=10)
    omega = gaussian_matrix(spec.n, 2, sample_stream(18, 0))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:2]))
    chains = solvent_chain(nodes)
    g1 = growth_Gd(spec, chains, grid_size=1000)
    g2 = growth_Gd(spec, chains, grid_size=4000)
    assert abs(g1 - g2) <= 0.01 * g2


def test_structural_bound_trials_hold():
    rng = np.random.default_rng(19)
    for trial in range(12):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        spec = make_spec(rng, b, d, m=12)
        report = structural_bound_trial(spec, stream_draws(trial), 400)
        assert report.bound_holds
        assert report.tan_angle_vandermonde <= report.bound * (1.0 + 1e-8)
        if b == 1:
            assert report.chi_mono == 1.0
        if math.isfinite(report.tan_angle_krylov) and report.cond_k < 1e8:
            assert report.tan_angle_krylov == pytest.approx(
                report.tan_angle_vandermonde, rel=1e-6
            )


def test_structural_bound_trial_at_d1_has_unit_chi():
    # one node has no chain to grow: both chi factors are 1 by definition
    spec = make_spec(np.random.default_rng(24), 2, 1, m=8)
    report = structural_bound_trial(spec, stream_draws(25), 200)
    assert (report.chi_mono, report.chi_coef) == (1.0, 1.0)
    assert report.bound_holds and report.bound == report.c_omega * report.g_d


def test_outside_grid_samples_both_segments():
    # an interior cluster: the grid splits grid_size over [-1, 1) and (2, 5] by length
    spec = _tiny_spec(perp=(-1.0, 5.0), lo=1.0, hi=2.0)
    expected = np.concatenate([[-1.0, 5.0], np.linspace(-1.0, 1.0, 4)[:-1],
                               np.linspace(2.0, 5.0, 6)[1:]])
    assert np.array_equal(outside_grid(spec, 10), expected)


# c_omega's gate is the only gate on the trailing blocks: it trips on both, the
# zero 1 x 1 block at b = 1 included
@pytest.mark.parametrize("tail", [np.ones((2, 2)), np.zeros((1, 1))])
def test_structural_bound_trial_resamples_singular_trailing_block(monkeypatch, tail):
    import rsbl.robustness

    b = tail.shape[0]
    spec = make_spec(np.random.default_rng(26), b, 2, m=8)
    draws = []

    def first_draw_singular_tail(rows, cols, rng):
        omega = gaussian_matrix(rows, cols, rng)
        if not draws:
            omega[-b:] = tail
        draws.append(omega)
        return omega

    monkeypatch.setattr(rsbl.robustness, "gaussian_matrix", first_draw_singular_tail)
    report = structural_bound_trial(spec, stream_draws(27), 200)
    assert report.retries == 1
    assert len(draws) == 2
    assert report.bound_holds


def test_structural_bound_trial_resamples_chain_breakdown(monkeypatch):
    import rsbl.robustness

    # the first draw puts the singular-difference fixture of test_matpoly in the leading
    # blocks: NodeSet and c_omega accept it, the stacked chain pass breaks down at level 0
    spec = ClusterSpec(8, 2, 2, ([0.0, 1.0], [2.0, 3.0]), [-4.0, -3.0, -2.0, -1.0], 0.0, 3.0)
    lead = np.array([[1.0, 0.0], [0.0, 1.0], [-3.0, 2.0], [2.0, -1.0]])
    expected = structural_bound_trial(spec, stream_draws(5, 1), 200)
    draws = []

    def first_draw_breaks_chain(rows, cols, rng):
        omega = gaussian_matrix(rows, cols, rng)
        if not draws:
            omega[:4] = lead
        draws.append(omega)
        return omega

    monkeypatch.setattr(rsbl.robustness, "gaussian_matrix", first_draw_breaks_chain)
    report = structural_bound_trial(spec, stream_draws(5), 200)
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(draws[0])[:2]))
    c_omega(spec, draws[0])
    with pytest.raises(SingularMatrixError, match="^chain breakdown at position 0$"):
        solvent_chain(nodes)
    assert len(draws) == 2 and expected.retries == 0
    assert report == dataclasses.replace(expected, retries=1)


def test_structural_bound_trial_gives_up_on_persistent_degeneracy(monkeypatch):
    import rsbl.robustness

    spec = bound_verify_spec(2, 3, sample_stream(41, 0))
    streams = record_stream_ids(monkeypatch, helpers)

    def zero_draw(rows, cols, rng):
        return np.zeros((rows, cols))

    monkeypatch.setattr(rsbl.robustness, "gaussian_matrix", zero_draw)
    # an all-zero Omega trips c_omega's 1e-14 partition-block gate on every draw
    with pytest.raises(
        SingularMatrixError, match=r"^persistent degeneracy after 8 retries: .*1e-14"
    ) as info:
        structural_bound_trial(spec, stream_draws(5, 3))
    assert isinstance(info.value.__cause__, SingularMatrixError)
    assert streams == list(range(3, 12))


def test_structural_bound_trial_resample_is_the_next_stream(monkeypatch):
    import rsbl.robustness

    spec = bound_verify_spec(2, 3, sample_stream(42, 0))
    expected = structural_bound_trial(spec, stream_draws(5, 1))
    streams = record_stream_ids(monkeypatch, helpers)

    def first_draw_zero(rows, cols, rng):
        omega = gaussian_matrix(rows, cols, rng)
        return np.zeros_like(omega) if len(streams) == 1 else omega

    monkeypatch.setattr(rsbl.robustness, "gaussian_matrix", first_draw_zero)
    report = structural_bound_trial(spec, stream_draws(5))
    assert streams == [0, 1]
    assert report.retries == 1 and expected.retries == 0
    assert report == dataclasses.replace(expected, retries=1)


def test_structural_bound_trial_redraws_a_krylov_breakdown(monkeypatch):
    # a Lanczos breakdown on the Krylov route is a degenerate draw like a singular K
    import rsbl.robustness

    spec = bound_verify_spec(2, 3, sample_stream(43, 0))
    expected = structural_bound_trial(spec, stream_draws(5, 1))
    krylov = rsbl.robustness.tan_angle_krylov
    calls = []

    def first_call_breaks_down(spec, omega, steps):
        calls.append(steps)
        if len(calls) == 1:
            raise BreakdownError(steps)
        return krylov(spec, omega, steps)

    monkeypatch.setattr(rsbl.robustness, "tan_angle_krylov", first_call_breaks_down)
    report = structural_bound_trial(spec, stream_draws(5))
    assert calls == [3, 3]
    assert report.retries == 1 and expected.retries == 0
    assert report == dataclasses.replace(expected, retries=1)


def test_vandermonde_route_k_gate():
    # at d = 1 the Vandermonde matrix is I, so K is the leading partition block
    spec = make_spec(np.random.default_rng(28), 2, 1, m=6)
    omega = gaussian_matrix(spec.n, 2, sample_stream(29, 0))
    nodes = NodeSet(spec.lambda_blocks, (np.eye(2),))
    omega[:2] = np.diag([1.0, 1e-14])
    with pytest.raises(SingularMatrixError, match="1e-14"):
        tan_angle_vandermonde(spec, spec.omega_blocks(omega), nodes)
    omega[:2] = np.diag([1.0, 2e-14])
    tangent, k_mat = tan_angle_vandermonde(spec, spec.omega_blocks(omega), nodes)
    assert np.isfinite(tangent)
    assert np.array_equal(k_mat, omega[:2])


def test_sandwich_difference_gate():
    with pytest.raises(SingularMatrixError, match="1e-12"):
        sandwich_d2(np.diag([1.0, 1e-12]), np.zeros((2, 2)))
    _, _, _, holds = sandwich_d2(np.diag([1.0, 2e-12]), np.zeros((2, 2)))
    assert holds


def test_sandwich_anchor_case():
    lower, middle, upper, holds = sandwich_d2(np.eye(2), -np.eye(2))
    assert middle == pytest.approx(0.5, rel=1e-12)
    assert lower == pytest.approx((3.0 - math.sqrt(5.0)) / 8.0, rel=1e-12)
    assert upper == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0 * 1.5, rel=1e-12)
    assert holds


def test_sandwich_scalar_closed_form():
    lower, middle, upper, holds = sandwich_d2(np.array([[1.0]]), np.array([[0.0]]))
    assert middle == pytest.approx((3.0 + math.sqrt(5.0)) / 2.0, rel=1e-10)
    assert holds and lower <= middle <= upper


def test_sandwich_random_pairs():
    rng = np.random.default_rng(20)
    for _ in range(200):
        b = int(rng.integers(1, 5))
        _, _, _, holds = sandwich_d2(rng.standard_normal((b, b)), rng.standard_normal((b, b)))
        assert holds


def test_probe_scalar_multiple_blocks():
    # a scalar spectrum conjugates to itself whatever the eigenvectors, so the
    # probe's difference of two such solvents is the spectra's difference
    rng = sample_stream(0, 0)
    om_i, om_j = rng.standard_normal((2, 50, 2, 2))
    diff = conjugate(om_i, 2.0 * np.ones(2)) - conjugate(om_j, 5.0 * np.ones(2))
    assert smallest_singular(diff) == pytest.approx(np.full(50, 3.0), rel=1e-10)


def _probe_values(**config) -> list:
    (_, header, rows), = run_probe(ExperimentConfig(**config)).outputs
    assert header == ("quantile", "value")
    assert [q for q, _ in rows] == [0.01, 0.25, 0.5, 0.75, 0.99]
    return [v for _, v in rows]


def test_probe_b1_exact():
    # at b = 1 the solvents are the scalars 1 and 3 whatever the draws
    assert _probe_values(b_list=(1,), trials=50, seed=1) == pytest.approx([2.0] * 5, abs=1e-12)


def test_probe_quantiles_monotone():
    values = _probe_values(b_list=(2,), trials=300, seed=2)
    assert values == sorted(values)
    assert values[0] > 0.0


def test_chebyshev_value_closed_form():
    for degree in range(6):
        assert chebyshev_value(degree, 1.0) == pytest.approx(1.0)
    assert chebyshev_value(2, 2.0) == pytest.approx(7.0, rel=1e-12)  # 2*4 - 1


def test_chebyshev_accel_equality_at_d():
    rng = np.random.default_rng(21)
    spec = make_spec(rng, 2, 2, m=10)
    omega = gaussian_matrix(spec.n, 2, sample_stream(22, 0))
    measured, reference, holds = chebyshev_accel_check(spec, omega, 2)
    assert holds
    assert measured == pytest.approx(reference, rel=1e-12)


def test_chebyshev_accel_random_specs():
    rng = np.random.default_rng(23)
    for trial in range(15):
        b = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        spec = make_spec(rng, b, d, m=14)
        omega = gaussian_matrix(spec.n, b, sample_stream(200 + trial, 0))
        measured, reference, holds = chebyshev_accel_check(spec, omega, d + 5)
        assert holds, (measured, reference)


def test_chebyshev_accel_zero_gap():
    blocks = (np.array([1.0]), np.array([2.0]))
    spec = ClusterSpec(4, 1, 2, blocks, np.array([2.5, 3.0]), 1.0, 2.0)
    omega = gaussian_matrix(4, 1, sample_stream(24, 0))
    with pytest.raises(ZeroGapError):
        chebyshev_accel_check(spec, omega, 3)


def test_lowrank_orthogonal_full_rank():
    rng = np.random.default_rng(25)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    report = lowrank_check(q, b=6, d=1, steps=1, eps=0.1, rng=sample_stream(26, 0))
    assert report.spectral_error <= 1e-10
    assert report.best_spectral == 0.0
    assert report.frobenius_error <= 1e-10


def test_lowrank_full_space_matches_best():
    rng = np.random.default_rng(27)
    sigma = np.linspace(9.0, 1.0, 6)
    u, _ = np.linalg.qr(rng.standard_normal((8, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a_hat = (u * sigma) @ v.T
    report = lowrank_check(a_hat, b=2, d=1, steps=3, eps=0.1, rng=sample_stream(28, 0))
    assert report.spectral_error == pytest.approx(report.best_spectral, rel=1e-9)
    assert report.frobenius_error == pytest.approx(report.best_frobenius, rel=1e-9)


def test_lowrank_diag_preset_observed_within():
    a_hat = np.vstack([np.diag(np.linspace(10.0, 1.0, 10)), np.zeros((6, 10))])
    report = lowrank_check(a_hat, b=2, d=2, steps=5, eps=0.1, rng=sample_stream(29, 0))
    assert report.spectral_within
    assert report.frobenius_within


def test_conjecture_experiment_single_trial_is_observation():
    # one trial per sweep point: its median and quartiles are that trial's tangent
    config = ExperimentConfig(n=72, cluster_dim=60, variant="exterior", trials=1, seed=3)
    result = run_cluster_robustness(config)
    for sweep in ("beta", "alpha"):
        family = ExperimentFamily(sweep=sweep, variant="exterior", n=72, cluster_dim=60)
        name, header, rows = result.outputs[("beta", "alpha").index(sweep)]
        assert name == f"cluster_exterior_{sweep}.csv"
        assert header == ("d", "abscissa", "relgap", "median", "q25", "q75", "trials")
        assert [row[:2] for row in rows] == [
            (d, value) for d in family.d_values for value in family.sweep_values
        ]
        assert all(row[3] == row[4] == row[5] and row[6] == 1 for row in rows)
    assert run_cluster_robustness(config).outputs[:2] == result.outputs[:2]


def test_experiment_family_spec_layout():
    # at n = 1001 the 941 eigenvalues outside the cluster split 470 below, 471 above
    for n, below, above in ((1000, 470, 470), (1001, 470, 471)):
        family = ExperimentFamily(sweep="alpha", variant="interior", n=n, cluster_dim=60)
        spec = family.spec_for(3, 0.25)
        assert spec.n == n and spec.b * spec.d == 60
        assert spec.lambda_perp.size == below + above
        assert (spec.lambda_perp < spec.cluster_min).sum() == below
        assert (spec.lambda_perp > spec.cluster_max).sum() == above
    family = ExperimentFamily(sweep="beta", variant="exterior", n=1000, cluster_dim=60)
    exterior = family.spec_for(2, 0.5)
    assert np.all(exterior.lambda_perp < exterior.cluster_min)
