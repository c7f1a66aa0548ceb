import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import dense_operator, run_until_converged_reference, symmetry_defect
from rsbl.experiments import _table1_targets
from rsbl.lanczos import (
    SENTINEL_MARGIN,
    BreakdownError,
    LinearOperator,
    NoConvergenceError,
    _Process,
    _Sentinel,
    block_lanczos,
    krylov_basis,
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
    ritz = rayleigh_ritz(basis, 2)
    assert np.allclose(ritz.values, 1.0)


def test_full_dimension_matches_dense_eig():
    values = np.arange(1.0, 11.0)
    op = diag_operator(values)
    omega = gaussian_matrix(10, 1, RngStream(1))
    basis = block_lanczos(op, omega, 10)
    ritz = rayleigh_ritz(basis, 10)
    assert np.allclose(ritz.values, values, atol=1e-9)
    assert op.matvec_count == 10


def test_basis_invariants():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    op = dense_operator(a)
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


def _orthogonality_defects(basis):
    v, r = basis.V, basis.remainder
    gram = np.linalg.norm(v.T @ v - np.eye(v.shape[1]), 2)
    return gram, np.linalg.norm(v.T @ r, 2) / np.linalg.norm(r, 2)


@pytest.mark.parametrize("beta", [1.0, 0.001])
@pytest.mark.parametrize("b", [1, 2, 32])
def test_orthogonality_at_table1_depth(beta, b):
    # Table 1 scale: nearly every step projects against the last two blocks and
    # then once against the whole basis, and the basis must stay orthonormal
    n = 2000
    _, diag = _table1_targets(beta, n)
    steps = -(-400 // b)
    omega = gaussian_matrix(n, b, RngStream(30, b))
    basis = block_lanczos(diag_operator(diag), omega, steps)
    gram, remainder = _orthogonality_defects(basis)
    assert basis.V.shape[1] >= 400
    assert gram <= 1e-13
    assert remainder <= 1e-13


@pytest.mark.parametrize("b", [1, 2, 3])
def test_dgks_pass_restores_orthogonality(b):
    # a linear but deliberately non-symmetric operator: every image carries a
    # 1e8 component along u, which spans part of block 0. The local pass never
    # sees block 0, so the whole-basis pass cancels almost all of each column
    # and only the DGKS pass brings the remainder back to orthogonality
    n = 200
    rng = np.random.default_rng(31)
    diag = np.linspace(-1.0, 1.0, n)[:, None]
    u = rng.standard_normal((n, 1))
    u /= np.linalg.norm(u)
    g = rng.standard_normal((n, 1))
    op = LinearOperator(n, lambda block: diag * block + 1e8 * u @ (g.T @ block))
    omega = rng.standard_normal((n, b))
    omega[:, :1] = u
    gram, remainder = _orthogonality_defects(block_lanczos(op, omega, 6))
    assert gram <= 1e-13
    assert remainder <= 1e-13


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


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_krylov_basis_matches_block_lanczos_bitwise(b):
    rng = np.random.default_rng(20)
    a = rng.standard_normal((30, 30))
    a = a + a.T
    omega = gaussian_matrix(30, b, RngStream(21, b))
    for steps in range(1, 6):
        full = block_lanczos(dense_operator(a), omega, steps)
        op = dense_operator(a)
        v = krylov_basis(op, omega, steps)
        assert v.shape == (30, b * steps)
        assert np.array_equal(v, full.V)
        assert op.matvec_count == b * (steps - 1)


@pytest.mark.parametrize(
    "values, b, seed, steps",
    [
        (np.ones(10), 2, 5, 2),  # invariant subspace: the scale gate
        ([1.0, 2.0, 3.0] + [0.0] * 9, 2, 16, 3),  # rank-deficient block: qr_factor's gate
    ],
)
def test_krylov_basis_breaks_down_like_block_lanczos(values, b, seed, steps):
    omega = gaussian_matrix(len(values), b, RngStream(seed))
    errors = []
    for build in (block_lanczos, krylov_basis):
        with pytest.raises(BreakdownError) as info:
            build(diag_operator(values), omega, steps)
        errors.append(info.value)
    assert errors[0].step == errors[1].step == steps
    assert type(errors[0].__cause__) is type(errors[1].__cause__)


def test_rayleigh_ritz_selection():
    op = diag_operator(np.arange(1.0, 13.0))
    omega = gaussian_matrix(12, 2, RngStream(7))
    basis = block_lanczos(op, omega, 6)
    full = rayleigh_ritz(basis, 12)
    assert np.all(np.diff(full.values) >= 0.0)
    assert np.allclose(full.values, np.arange(1.0, 13.0), atol=1e-8)
    top = rayleigh_ritz(basis, 3)
    assert np.allclose(top.values, [10.0, 11.0, 12.0], atol=1e-8)
    lifted = top.vectors
    assert np.allclose(lifted.T @ lifted, np.eye(3), atol=1e-10)


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


def _outcome(run, op, omega, targets, **kwargs):
    try:
        count, values = run(op, omega, targets, **kwargs)
    except NoConvergenceError as exc:
        return "no convergence", exc.matvecs
    return count, values.tobytes()


def _equivalence_cases():
    """(operator diagonal, targets, b, seed, keyword arguments): 200 runs in all."""
    n = 90
    for beta in (1.0, 1e-3):
        # seven targets, a count none of b = 2, 3, 4 divides
        lam = np.linspace(1.0, 1.0 + beta, 7)
        values = np.concatenate([lam, np.linspace(-1.0, 0.0, n - 7)])
        for b in (1, 2, 3, 4):
            for seed in range(20):
                yield values, lam, b, seed, {}
    # overlapping windows: three targets at 1 against a triple inside tol
    triple = np.concatenate([[1.0 - 4e-11, 1.0, 1.0 + 4e-11], np.linspace(-1.0, 0.0, n - 3)])
    # budget exhaustion: a narrow cluster cannot converge within 12 steps
    lam = np.linspace(1.0, 1.001, 7)
    narrow = np.concatenate([lam, np.linspace(-1.0, 0.0, n - 7)])
    for b in (1, 2, 3, 4):
        for seed in range(5):
            yield triple, [1.0, 1.0, 1.0], b, seed, {}
            yield narrow, lam, b, seed, {"max_matvecs": 12 * b}


@pytest.fixture
def ritz_checks(monkeypatch):
    """The step of every Ritz check ``run_until_converged`` runs (the reference runs none)."""
    checks = []
    ritz_values = _Process.ritz_values

    def counted(self):
        checks.append(self.steps)
        return ritz_values(self)

    monkeypatch.setattr(_Process, "ritz_values", counted)
    return checks


def test_run_until_converged_matches_every_step_reference(ritz_checks):
    runs = steps = misses = 0
    for values, targets, b, seed, kwargs in _equivalence_cases():
        omega = gaussian_matrix(values.size, b, RngStream(seed, b))
        expected = _outcome(run_until_converged_reference, diag_operator(values), omega, targets,
                            **kwargs)
        op = diag_operator(values)
        got = _outcome(run_until_converged, op, omega, targets, **kwargs)
        assert got == expected, (b, seed, targets)
        runs += 1
        steps += op.matvec_count // b
        misses += expected[0] == "no convergence"
    assert runs >= 200
    assert misses >= 20
    # the prefilter must actually skip comparisons, not just agree
    assert len(ritz_checks) < steps / 4


def test_sentinel_gate_trips_on_singular_pivot(ritz_checks):
    # omega = e_1 makes the first diagonal block exactly a[0, 0]; the lower
    # edge of the first target's window sits on it, so the first pivot
    # there is exactly zero and must drop the sentinel
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 10))
    a = a + a.T
    omega = np.zeros((10, 1))
    omega[0, 0] = 1.0
    a00 = a[0, 0]
    width = 1e-10 + SENTINEL_MARGIN
    target = a00 + width
    while target - width != a00:
        target = np.nextafter(target, -np.inf if target - width > a00 else np.inf)
    theta = np.linalg.eigvalsh(block_lanczos(dense_operator(a), omega, 2).T)
    # at step 2 the first window is empty and the second is filled
    assert np.abs(theta - target).min() > width
    targets = [target, theta[1]]
    expected = _outcome(run_until_converged_reference, dense_operator(a), omega,
                        targets)
    got = _outcome(run_until_converged, dense_operator(a), omega, targets)
    assert got == expected == ("no convergence", 10)
    # the sentinel built after the step-2 comparison was dropped, so step 3 compares
    assert ritz_checks[:2] == [2, 3]


def test_sentinel_window_covers_the_whole_tolerance():
    # the target sits 0.9 tol above the top Ritz value of step 5, which
    # climbed from far below: only the full-width window sees it arrive
    values = np.linspace(-1.0, 1.0, 60)
    omega = gaussian_matrix(60, 1, RngStream(31))
    tol = 1e-4
    theta = [np.linalg.eigvalsh(block_lanczos(diag_operator(values), omega, k).T)[-1]
             for k in (4, 5)]
    target = theta[1] + 0.9 * tol
    assert theta[0] < target - 2 * tol
    expected = _outcome(run_until_converged_reference, diag_operator(values), omega, [target],
                        tol=tol)
    assert expected[0] == 5
    got = _outcome(run_until_converged, diag_operator(values), omega, [target], tol=tol)
    assert got == expected


def _block_tridiagonal(alpha, beta):
    k, b, _ = alpha.shape
    t = np.zeros((k * b, k * b))
    for j in range(k):
        t[j * b:(j + 1) * b, j * b:(j + 1) * b] = alpha[j]
        if j:
            t[j * b:(j + 1) * b, (j - 1) * b:j * b] = beta[j]
            t[(j - 1) * b:j * b, j * b:(j + 1) * b] = beta[j].T
    return t


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 4),
    k=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    shift=st.floats(-6.0, 6.0),
)
def test_sentinel_negative_pivots_count_eigenvalues_below_shift(b, k, seed, shift):
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((k, b, b))
    alpha = alpha + alpha.transpose(0, 2, 1)
    beta = rng.standard_normal((k, b, b))
    beta[0] = 0.0
    eig = np.linalg.eigvalsh(_block_tridiagonal(alpha, beta))
    assume(np.abs(eig - shift).min() >= 1e-6)
    sentinel = _Sentinel(shift, shift, b)
    if all(sentinel.extend(alpha[j], beta[j]) for j in range(k)):
        assert sentinel.negatives[0] == np.count_nonzero(eig < shift)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 4),
    k=st.integers(1, 6),
    extra=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_krylov_spaces_nest_bitwise(b, k, extra, seed):
    # the k-step process is the leading part of the (k + extra)-step one, bit
    # for bit, whatever the capacity of the buffer it is built in
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(64)
    omega = rng.standard_normal((64, b))
    dim = b * k
    v = krylov_basis(diag_operator(values), omega, k)
    assert np.array_equal(v, krylov_basis(diag_operator(values), omega, k + extra)[:, :dim])
    short = block_lanczos(diag_operator(values), omega, k)
    full = block_lanczos(diag_operator(values), omega, k + extra)
    assert np.array_equal(short.V, full.V[:, :dim])
    # the leading dim x dim block of T holds exactly the first k alpha and beta blocks
    assert np.array_equal(short.T, full.T[:dim, :dim])


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
    op = dense_operator(a)
    defect = symmetry_defect(op, RngStream(15), probes=4)
    assert defect <= 1e-10 * np.linalg.norm(a, 2)
