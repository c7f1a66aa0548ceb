import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    ZeroGapError,
    chebyshev_accel_check,
    chebyshev_value,
    fundamental_norms_loop,
    lagrange_scalar,
    tangent_all_columns,
)
from rsbl.experiments import bound_verify_spec
from rsbl.lanczos import block_lanczos
from rsbl.linalg import RngStream, gaussian_matrix
from rsbl.matpoly import NodeSet, solvent_chain
from rsbl.robustness import (
    ClusterSpec,
    ExperimentFamily,
    SingularBlockError,
    SingularDifferenceError,
    SingularKError,
    _tangent_from_basis,
    _vandermonde_route,
    c_omega,
    conjecture_experiment,
    growth_Gd,
    lowrank_check,
    outside_grid,
    probe_solvent_difference,
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


def test_cluster_spec_validation():
    with pytest.raises(ValueError):  # perp value inside the cluster interval
        ClusterSpec(4, 1, 2, (np.array([1.0]), np.array([2.0])), np.array([1.5, 3.0]), 1.0, 2.0)
    with pytest.raises(ValueError):  # zero relgap
        ClusterSpec(4, 1, 2, (np.array([1.0]), np.array([1.0])), np.array([3.0, 4.0]), 0.0, 2.0)
    spec = ClusterSpec(
        4, 1, 2, (np.array([1.0]), np.array([1.0])), np.array([3.0, 4.0]), 0.0, 2.0,
        allow_zero_relgap=True,
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
        cluster_min=0.9, cluster_max=1.4, allow_zero_relgap=True,
    )
    for trial in range(5):
        omega = gaussian_matrix(20, 2, RngStream(trial))
        for steps in (2, 3, 4):
            assert tan_angle_krylov(spec, omega, steps) == math.inf


def test_krylov_tangent_counts_cosines_below_least_squares_cutoff():
    # smallest cosine 1.03e-14: above the 1e-14 inf gate, below the
    # 60 * eps * s_max cut-off a least-squares solve with rcond=None applies
    spec = ExperimentFamily(sweep="alpha", variant="exterior").spec_for(4, 2.0**-5)
    omega = gaussian_matrix(spec.n, spec.b, RngStream(1, 78))
    v = block_lanczos(spec.operator(), omega, 4).V
    c = np.linalg.svd(v[:60], compute_uv=False)[-1]
    assert 1e-14 <= c < 60 * np.finfo(np.float64).eps
    expected = math.sqrt(1.0 - c * c) / c
    assert tan_angle_krylov(spec, omega, 4) == pytest.approx(expected, rel=1e-6)


@st.composite
def _basis_with_cosines(draw):
    """Orthonormal n x k basis whose leading bd rows have prescribed cosines.

    Cosines are log-uniform in [1e-16, 0.99], with clusters: repeats of a few
    values, some nudged by 1e-15 relative. ``k - bd`` extra columns lie in
    the trailing rows only, so the top rows have exactly bd singular values.
    """
    bd = draw(st.integers(1, 8))
    k = bd + draw(st.integers(0, 6))
    n = bd + k + draw(st.integers(0, 10))
    centers = draw(st.lists(st.floats(-16.0, math.log10(0.99)), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(centers) - 1), min_size=bd, max_size=bd))
    nudges = draw(st.lists(st.sampled_from([0.0, 1.0, -1.0]), min_size=bd, max_size=bd))
    cos = np.array([10.0 ** centers[i] * (1.0 + 1e-15 * e) for i, e in zip(picks, nudges)])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _rotated_basis(rng, cos, k, n), bd


def _rotated_basis(rng, cos, k: int, n: int) -> np.ndarray:
    """Orthonormal n x k basis whose leading len(cos) rows have singular values cos.

    The top rows are a random rotation of ``diag(cos)`` padded by zero
    columns; the whole basis is then turned by a random k x k rotation.
    """
    bd = cos.size
    top = np.zeros((bd, k))
    top[:, :bd] = np.linalg.qr(rng.standard_normal((bd, bd)))[0] * cos
    sines = np.ones(k)
    sines[:bd] = np.sqrt(1.0 - cos**2)
    bottom = np.linalg.qr(rng.standard_normal((n - bd, k)))[0] * sines
    w = np.linalg.qr(rng.standard_normal((k, k)))[0]
    return np.vstack([top, bottom]) @ w.T


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_basis_with_cosines())
def test_tangent_from_basis_matches_all_columns_oracle(case):
    v, bd = case
    got, expected = _tangent_from_basis(v, bd), tangent_all_columns(v, bd)
    if math.isfinite(got) or math.isfinite(expected):
        assert got == pytest.approx(expected, rel=1e-12)


_SWITCH = 1.0 / math.sqrt(2.0)


def _ulps_from(x: float, steps: int) -> float:
    for _ in range(abs(steps)):
        x = float(np.nextafter(x, math.copysign(math.inf, steps)))
    return x


@st.composite
def _basis_near_branch_switch(draw):
    """Orthonormal basis whose smallest cosine sits at the 1/sqrt(2) switch.

    The smallest cosine is exactly 1/sqrt(2), a few ulps either side of it,
    uniform below it, or above it with ``1 - c`` down to 1e-7, where a sine
    taken from the cosine would have lost six digits.
    """
    c_min = draw(st.one_of(
        st.integers(-4, 4).map(lambda steps: _ulps_from(_SWITCH, steps)),
        st.floats(0.05, _SWITCH),
        st.floats(-7.0, math.log10(1.0 - _SWITCH)).map(lambda e: 1.0 - 10.0**e),
    ))
    bd = draw(st.integers(1, 8))
    k = bd + draw(st.integers(0, 6))
    n = bd + k + draw(st.integers(0, 10))
    rest = draw(st.lists(st.floats(0.0, 0.9), min_size=bd - 1, max_size=bd - 1))
    cos = np.array([c_min] + [c_min + (1.0 - c_min) * t for t in rest])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return _rotated_basis(rng, cos, k, n), bd


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_basis_near_branch_switch())
def test_tangent_branches_agree_with_oracle_across_switch(case):
    v, bd = case
    assert _tangent_from_basis(v, bd) == pytest.approx(tangent_all_columns(v, bd), rel=1e-12)


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
        omega = gaussian_matrix(spec.n, b, RngStream(100 + trial))
        t_k = tan_angle_krylov(spec, omega, d)
        t_v = tan_angle_vandermonde(spec, omega)
        assert t_k == pytest.approx(t_v, rel=1e-6)


def test_vandermonde_route_d1_reduction():
    rng = np.random.default_rng(2)
    spec = make_spec(rng, 3, 1, m=6)
    omega = gaussian_matrix(spec.n, 3, RngStream(3))
    blocks = spec.omega_blocks(omega)
    expected = np.linalg.norm(np.vstack(blocks[1:]) @ np.linalg.inv(blocks[0]), 2)
    assert tan_angle_vandermonde(spec, omega) == pytest.approx(expected, rel=1e-10)


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
    omega = gaussian_matrix(spec.n, 2, RngStream(5))
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
    omega = gaussian_matrix(spec.n, b, RngStream(seed))
    t1 = tan_angle_krylov(spec, omega, d)
    t2 = tan_angle_krylov(_affine_image(spec, scale, shift), omega, d)
    assert t1 == pytest.approx(t2, rel=1e-8)


def test_monotone_improvement_with_depth():
    rng = np.random.default_rng(6)
    spec = make_spec(rng, 2, 2, m=14)
    omega = gaussian_matrix(spec.n, 2, RngStream(7))
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
    omega = gaussian_matrix(spec.n, 2, RngStream(10))
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
    omega = gaussian_matrix(4, 2, RngStream(12))
    with pytest.raises(ValueError):
        c_omega(spec, omega)


def test_c_omega_rejects_singular_block():
    rng = np.random.default_rng(24)
    spec = make_spec(rng, 2, 2, m=6)
    for block in (np.ones((2, 2)), np.zeros((2, 2))):
        omega = gaussian_matrix(spec.n, 2, RngStream(25))
        omega[6:8] = block
        with pytest.raises(SingularBlockError):
            c_omega(spec, omega)


def test_growth_gd_single_node_is_one():
    rng = np.random.default_rng(13)
    spec = make_spec(rng, 2, 1, m=8)
    omega = gaussian_matrix(spec.n, 2, RngStream(14))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:1]))
    chains = [solvent_chain(nodes, 0)]
    assert growth_Gd(spec, chains) == pytest.approx(1.0, rel=1e-12)


def test_growth_gd_scalar_matches_lagrange():
    rng = np.random.default_rng(15)
    spec = make_spec(rng, 1, 3, m=10)
    omega = gaussian_matrix(spec.n, 1, RngStream(16))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:3]))
    chains = [solvent_chain(nodes, k) for k in range(3)]
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
        omega = gaussian_matrix(spec.n, b, RngStream(21))
        nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:d]))
        chains = [solvent_chain(nodes, k) for k in range(d)]
        expected = fundamental_norms_loop(chains, outside_grid(spec, 300)).max()
        assert growth_Gd(spec, chains, grid_size=300) == expected


def test_growth_gd_rejects_non_finite_values():
    rng = np.random.default_rng(22)
    spec = make_spec(rng, 2, 2, m=8)
    omega = gaussian_matrix(spec.n, 2, RngStream(23))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:2]))
    chains = [solvent_chain(nodes, k) for k in range(2)]
    bad = chains[1].s_head_inv.copy()
    bad[0, 1] = np.nan
    chains[1] = dataclasses.replace(chains[1], s_head_inv=bad)
    # match the gate's message: a bare SVD of NaN input raises LinAlgError, a ValueError too
    with pytest.raises(ValueError, match="NaN or Inf"):
        growth_Gd(spec, chains)


def test_growth_gd_grid_refinement_stable():
    rng = np.random.default_rng(17)
    spec = make_spec(rng, 2, 2, m=10)
    omega = gaussian_matrix(spec.n, 2, RngStream(18))
    nodes = NodeSet(spec.lambda_blocks, tuple(spec.omega_blocks(omega)[:2]))
    chains = [solvent_chain(nodes, k) for k in range(2)]
    g1 = growth_Gd(spec, chains, grid_size=1000)
    g2 = growth_Gd(spec, chains, grid_size=4000)
    assert abs(g1 - g2) <= 0.01 * g2


def test_structural_bound_trials_hold():
    rng = np.random.default_rng(19)
    for trial in range(12):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        spec = make_spec(rng, b, d, m=12)
        report = structural_bound_trial(spec, seed=trial, grid_size=400)
        assert report.bound_holds
        assert report.tan_angle_vandermonde <= report.bound * (1.0 + 1e-8)
        if b == 1:
            assert report.chi_mono == 1.0
        if math.isfinite(report.tan_angle_krylov) and report.cond_k < 1e8:
            assert report.tan_angle_krylov == pytest.approx(
                report.tan_angle_vandermonde, rel=1e-6
            )


# c_omega's gate trips on both blocks first; the trailing conjugation's gate
# would reject them too, the zero 1 x 1 block at b = 1 included
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
    report = structural_bound_trial(spec, seed=27, grid_size=200)
    assert report.retries == 1
    assert len(draws) == 2
    assert report.bound_holds


def test_structural_bound_trial_gives_up_on_persistent_degeneracy(monkeypatch):
    import rsbl.robustness

    spec = bound_verify_spec(2, 3, RngStream(41))
    streams = []

    def zero_draw(rows, cols, rng):
        streams.append(rng.stream_id)
        return np.zeros((rows, cols))

    monkeypatch.setattr(rsbl.robustness, "gaussian_matrix", zero_draw)
    # an all-zero Omega trips c_omega's 1e-14 partition-block gate on every draw
    with pytest.raises(RuntimeError, match=r"^persistent degeneracy after 8 retries: .*1e-14"):
        structural_bound_trial(spec, seed=5, base_stream=3)
    assert streams == list(range(3, 12))


def test_structural_bound_trial_resample_is_the_next_stream(monkeypatch):
    import rsbl.robustness

    spec = bound_verify_spec(2, 3, RngStream(42))
    expected = structural_bound_trial(spec, seed=5, base_stream=1)
    streams = []

    def first_draw_zero(rows, cols, rng):
        streams.append(rng.stream_id)
        omega = gaussian_matrix(rows, cols, rng)
        return np.zeros_like(omega) if len(streams) == 1 else omega

    monkeypatch.setattr(rsbl.robustness, "gaussian_matrix", first_draw_zero)
    report = structural_bound_trial(spec, seed=5)
    assert streams == [0, 1]
    assert report.retries == 1 and expected.retries == 0
    assert report == dataclasses.replace(expected, retries=1)


def test_vandermonde_route_k_gate():
    # at d = 1 the Vandermonde matrix is I, so K is the leading partition block
    spec = make_spec(np.random.default_rng(28), 2, 1, m=6)
    omega = gaussian_matrix(spec.n, 2, RngStream(29))
    nodes = NodeSet(spec.lambda_blocks, (np.eye(2),))
    omega[:2] = np.diag([1.0, 1e-14])
    with pytest.raises(SingularKError, match="1e-14"):
        _vandermonde_route(spec, spec.omega_blocks(omega), nodes)
    omega[:2] = np.diag([1.0, 2e-14])
    tangent, k_mat = _vandermonde_route(spec, spec.omega_blocks(omega), nodes)
    assert np.isfinite(tangent)
    assert np.array_equal(k_mat, omega[:2])


def test_sandwich_difference_gate():
    with pytest.raises(SingularDifferenceError, match="1e-12"):
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
    q = probe_solvent_difference(
        2.0 * np.ones(2), 5.0 * np.ones(2), 50, master_seed=0, key="probe"
    )
    for v in q.values():
        assert v == pytest.approx(3.0, rel=1e-10)


def test_probe_b1_exact():
    q = probe_solvent_difference([1.0], [4.5], 50, master_seed=1, key="probe")
    values = list(q.values())
    assert all(v == pytest.approx(3.5, abs=1e-12) for v in values)


def test_probe_quantiles_monotone():
    q = probe_solvent_difference([1.0, 2.0], [3.0, 4.0], 300, master_seed=2, key="probe")
    ordered = [q[k] for k in sorted(q)]
    assert ordered == sorted(ordered)
    assert ordered[0] > 0.0


def test_chebyshev_value_closed_form():
    for degree in range(6):
        assert chebyshev_value(degree, 1.0) == pytest.approx(1.0)
    assert chebyshev_value(2, 2.0) == pytest.approx(7.0, rel=1e-12)  # 2*4 - 1


def test_chebyshev_accel_equality_at_d():
    rng = np.random.default_rng(21)
    spec = make_spec(rng, 2, 2, m=10)
    omega = gaussian_matrix(spec.n, 2, RngStream(22))
    measured, reference, holds = chebyshev_accel_check(spec, omega, 2)
    assert holds
    assert measured == pytest.approx(reference, rel=1e-12)


def test_chebyshev_accel_random_specs():
    rng = np.random.default_rng(23)
    for trial in range(15):
        b = int(rng.integers(1, 3))
        d = int(rng.integers(2, 4))
        spec = make_spec(rng, b, d, m=14)
        omega = gaussian_matrix(spec.n, b, RngStream(200 + trial))
        measured, reference, holds = chebyshev_accel_check(spec, omega, d + 5)
        assert holds, (measured, reference)


def test_chebyshev_accel_zero_gap():
    blocks = (np.array([1.0]), np.array([2.0]))
    spec = ClusterSpec(4, 1, 2, blocks, np.array([2.5, 3.0]), 1.0, 2.0)
    omega = gaussian_matrix(4, 1, RngStream(24))
    with pytest.raises(ZeroGapError):
        chebyshev_accel_check(spec, omega, 3)


def test_lowrank_orthogonal_full_rank():
    rng = np.random.default_rng(25)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    report = lowrank_check(q, b=6, d=1, steps=1, eps=0.1, rng=RngStream(26))
    assert report.spectral_error <= 1e-10
    assert report.best_spectral == 0.0
    assert report.frobenius_error <= 1e-10


def test_lowrank_full_space_matches_best():
    rng = np.random.default_rng(27)
    sigma = np.linspace(9.0, 1.0, 6)
    u, _ = np.linalg.qr(rng.standard_normal((8, 6)))
    v, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    a_hat = (u * sigma) @ v.T
    report = lowrank_check(a_hat, b=2, d=1, steps=3, eps=0.1, rng=RngStream(28))
    assert report.spectral_error == pytest.approx(report.best_spectral, rel=1e-9)
    assert report.frobenius_error == pytest.approx(report.best_frobenius, rel=1e-9)


def test_lowrank_diag_preset_observed_within():
    a_hat = np.vstack([np.diag(np.linspace(10.0, 1.0, 10)), np.zeros((6, 10))])
    report = lowrank_check(a_hat, b=2, d=2, steps=5, eps=0.1, rng=RngStream(29))
    assert report.spectral_within
    assert report.frobenius_within


def test_conjecture_experiment_single_trial_is_observation():
    family = ExperimentFamily(sweep="beta", variant="exterior", n=120, cluster_dim=12)
    out = conjecture_experiment(family, 1, master_seed=3, d_values=(2,), sweep_values=(0.5,))
    assert len(out) == 1
    assert out[0].median == out[0].q25 == out[0].q75
    again = conjecture_experiment(family, 1, master_seed=3, d_values=(2,), sweep_values=(0.5,))
    assert out[0].median == again[0].median


def test_experiment_family_spec_layout():
    family = ExperimentFamily(sweep="alpha", variant="interior")
    spec = family.spec_for(3, 0.25)
    assert spec.n == 1000 and spec.b * spec.d == 60
    assert spec.lambda_perp.size == 940
    assert (spec.lambda_perp < spec.cluster_min).sum() == 470
    assert (spec.lambda_perp > spec.cluster_max).sum() == 470
    exterior = ExperimentFamily(sweep="beta", variant="exterior").spec_for(2, 0.5)
    assert np.all(exterior.lambda_perp < exterior.cluster_min)
