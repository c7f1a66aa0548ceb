import numpy as np
import pytest

from helpers import symmetry_defect
from rsbl.lanczos import (
    BreakdownError,
    LinearOperator,
    NoConvergenceError,
    block_lanczos,
    match_targets,
    rayleigh_ritz,
    run_until_converged,
)
from rsbl.linalg import RankDeficientError, RngStream, gaussian_matrix


def diag_operator(values):
    return LinearOperator.from_diagonal(np.asarray(values, dtype=np.float64))


def test_identity_operator_single_step():
    op = diag_operator(np.ones(10))
    omega = gaussian_matrix(10, 2, RngStream(0))
    basis = block_lanczos(op, omega, 1)
    assert op.matvec_count == 2
    assert np.allclose(basis.T, np.eye(2), atol=1e-14)
    ritz = rayleigh_ritz(basis, 2, "largest")
    assert np.allclose(ritz.values, 1.0)
    assert np.all(ritz.residual_norms <= 1e-12)


def test_full_dimension_matches_dense_eig():
    values = np.arange(1.0, 11.0)
    op = diag_operator(values)
    omega = gaussian_matrix(10, 1, RngStream(1))
    basis = block_lanczos(op, omega, 10)
    ritz = rayleigh_ritz(basis, 10, "smallest")
    assert np.allclose(ritz.values, values, atol=1e-9)
    assert op.matvec_count == 10


def test_basis_invariants():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    op = LinearOperator.from_dense(a)
    omega = gaussian_matrix(40, 3, RngStream(3))
    basis = block_lanczos(op, omega, 5)
    v = basis.V
    dim = 15
    norm_a = np.linalg.norm(a, 2)
    assert np.linalg.norm(v.T @ v - np.eye(dim), 2) <= 1e-10 * np.sqrt(dim)
    assert np.linalg.norm(v.T @ a @ v - basis.T, 2) <= 1e-9 * norm_a
    # Krylov containment: [Omega, A Omega] projects onto the basis
    span = np.hstack([omega, a @ omega])
    resid = span - v @ (v.T @ span)
    assert np.linalg.norm(resid, 2) <= 1e-9 * np.linalg.norm(span, 2)


def test_projected_matrix_is_block_tridiagonal():
    op = diag_operator(np.linspace(-1.0, 1.0, 30))
    omega = gaussian_matrix(30, 2, RngStream(4))
    basis = block_lanczos(op, omega, 5)
    t = basis.T
    for i in range(5):
        for j in range(5):
            if abs(i - j) > 1:
                blk = t[2 * i:2 * i + 2, 2 * j:2 * j + 2]
                assert np.max(np.abs(blk)) <= 1e-12


def test_breakdown_on_invariant_subspace():
    # the remainder vanishes to roundoff: the scale gate in advance trips,
    # not the rank gate inside qr_factor
    op = diag_operator(np.ones(10))
    omega = gaussian_matrix(10, 2, RngStream(5))
    with pytest.raises(BreakdownError) as info:
        block_lanczos(op, omega, 2)
    assert info.value.step == 2
    assert info.value.__cause__ is None


def test_breakdown_on_rank_deficient_block():
    # the Krylov space of diag(1, 2, 3, 0, ...) from two columns has
    # dimension 5, so the third block keeps one direction of norm O(1)
    # and loses the other: qr_factor's rank gate trips
    op = diag_operator([1.0, 2.0, 3.0] + [0.0] * 9)
    omega = gaussian_matrix(12, 2, RngStream(16))
    with pytest.raises(BreakdownError) as info:
        block_lanczos(op, omega, 3)
    assert info.value.step == 3
    assert isinstance(info.value.__cause__, RankDeficientError)


def test_breakdown_on_rank_deficient_initial_block():
    op = diag_operator(np.arange(6.0))
    omega = np.ones((6, 2))
    with pytest.raises(BreakdownError):
        block_lanczos(op, omega, 2)


def test_matvec_counter_is_exact():
    for steps in (1, 3, 7):
        op = diag_operator(np.linspace(1.0, 2.0, 50))
        omega = gaussian_matrix(50, 4, RngStream(6))
        block_lanczos(op, omega, steps)
        assert op.matvec_count == 4 * steps


def test_rayleigh_ritz_selection():
    op = diag_operator(np.arange(1.0, 13.0))
    omega = gaussian_matrix(12, 2, RngStream(7))
    basis = block_lanczos(op, omega, 6)
    full = rayleigh_ritz(basis, 12, "largest")
    assert np.all(np.diff(full.values) >= 0.0)
    assert np.allclose(full.values, np.arange(1.0, 13.0), atol=1e-8)
    top = rayleigh_ritz(basis, 3, "largest")
    assert np.allclose(top.values, [10.0, 11.0, 12.0], atol=1e-8)
    bottom = rayleigh_ritz(basis, 3, "smallest")
    assert np.allclose(bottom.values, [1.0, 2.0, 3.0], atol=1e-8)
    lifted = top.vectors
    assert np.allclose(lifted.T @ lifted, np.eye(3), atol=1e-10)


def test_ritz_residual_estimates_match_true_residuals():
    values = np.linspace(0.0, 3.0, 25)
    op = diag_operator(values)
    omega = gaussian_matrix(25, 1, RngStream(8))
    basis = block_lanczos(op, omega, 6)
    ritz = rayleigh_ritz(basis, 6, "largest")
    a = np.diag(values)
    for val, vec, res in zip(ritz.values, ritz.vectors.T, ritz.residual_norms):
        true_res = np.linalg.norm(a @ vec - val * vec)
        assert res == pytest.approx(true_res, rel=1e-6, abs=1e-10)


def test_match_targets_greedy():
    vals = np.array([0.0, 1.0, 1.0, 2.0])
    assert match_targets(vals, np.array([1.0, 1.0]), 1e-12) == [1, 2]
    assert match_targets(vals, np.array([1.0, 1.5]), 0.01) is None
    assert match_targets(vals, np.array([0.999, 2.001]), 0.01) == [1, 3]


def test_run_until_converged_identity():
    op = diag_operator(np.ones(12))
    omega = gaussian_matrix(12, 3, RngStream(9))
    count, ritz_values = run_until_converged(op, omega, [1.0, 1.0, 1.0])
    assert count == 3
    assert np.allclose(ritz_values, 1.0)


def test_run_until_converged_counts_multiple_of_b():
    values = np.concatenate([np.linspace(1.0, 1.5, 6), np.linspace(-1.0, 0.0, 30)])
    op = diag_operator(values)
    omega = gaussian_matrix(36, 2, RngStream(10))
    count, ritz_values = run_until_converged(op, omega, np.linspace(1.0, 1.5, 6), tol=1e-10)
    assert count % 2 == 0
    assert np.allclose(np.sort(ritz_values), np.linspace(1.0, 1.5, 6), atol=1e-10)


def test_tightening_tolerance_never_lowers_count():
    values = np.concatenate([np.linspace(1.0, 1.2, 4), np.linspace(-1.0, 0.0, 36)])
    targets = np.linspace(1.0, 1.2, 4)
    counts = []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        op = diag_operator(values)
        omega = gaussian_matrix(40, 1, RngStream(11))
        count, _ = run_until_converged(op, omega, targets, tol=tol)
        counts.append(count)
    assert counts == sorted(counts)


def test_run_until_converged_budget():
    values = np.concatenate([np.linspace(1.0, 1.0001, 8), np.linspace(-1.0, 0.0, 40)])
    op = diag_operator(values)
    omega = gaussian_matrix(48, 1, RngStream(12))
    with pytest.raises(NoConvergenceError):
        run_until_converged(op, omega, np.linspace(1.0, 1.0001, 8), tol=1e-14, max_matvecs=9)


def test_shift_scale_invariance_of_span():
    values = np.linspace(-2.0, 2.0, 30)
    omega = gaussian_matrix(30, 2, RngStream(13))
    basis_a = block_lanczos(diag_operator(values), omega, 4)
    basis_b = block_lanczos(diag_operator(3.0 * values + 0.7), omega, 4)
    # sine of the largest principal angle between the two spans
    resid = basis_b.V - basis_a.V @ (basis_a.V.T @ basis_b.V)
    assert np.linalg.norm(resid, 2) <= 1e-8


def test_symmetry_defect_helper():
    rng = np.random.default_rng(14)
    a = rng.standard_normal((20, 20))
    a = a + a.T
    op = LinearOperator.from_dense(a)
    defect = symmetry_defect(op, RngStream(15), probes=4)
    assert defect <= 1e-10 * np.linalg.norm(a, 2)
