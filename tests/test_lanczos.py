import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    dense_operator,
    run_until_converged_reference,
    symmetry_defect,
    textbook_block_lanczos_count,
)
from rsbl.config import ExperimentConfig, derive_stream_id, sample_stream
from rsbl.experiments import TABLE1_STREAM_STRIDE, _matvecs_for_cell, _table1_targets
from rsbl.lanczos import (
    SENTINEL_MARGIN,
    STURM_MARGIN,
    BreakdownError,
    LinearOperator,
    NoConvergenceError,
    _Process,
    _Sentinel,
    _windows,
    block_lanczos,
    krylov_basis,
    match_targets,
    rayleigh_ritz,
    run_until_converged,
)
from rsbl.linalg import RankDeficientError, gaussian_matrix


def diag_operator(values):
    return LinearOperator.from_diagonal(np.asarray(values, dtype=np.float64))


def test_identity_operator_single_step():
    op = diag_operator(np.ones(10))
    omega = gaussian_matrix(10, 2, sample_stream(0, 0))
    basis = block_lanczos(op, omega, 1)
    assert op.matvec_count == 2
    assert np.allclose(basis.T, np.eye(2), atol=1e-14)
    ritz = rayleigh_ritz(basis, 2)
    assert np.allclose(ritz.values, 1.0)


def test_full_dimension_matches_dense_eig():
    values = np.arange(1.0, 11.0)
    op = diag_operator(values)
    omega = gaussian_matrix(10, 1, sample_stream(1, 0))
    basis = block_lanczos(op, omega, 10)
    ritz = rayleigh_ritz(basis, 10)
    assert np.allclose(ritz.values, values, atol=1e-9)
    assert op.matvec_count == 10


def test_basis_invariants():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((40, 40))
    a = a + a.T
    op = dense_operator(a)
    omega = gaussian_matrix(40, 3, sample_stream(3, 0))
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
    omega = gaussian_matrix(n, b, sample_stream(30, b))
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
    omega = gaussian_matrix(30, 2, sample_stream(4, 0))
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
    omega = gaussian_matrix(10, 2, sample_stream(5, 0))
    with pytest.raises(BreakdownError) as info:
        block_lanczos(op, omega, 2)
    assert info.value.step == 2
    assert info.value.__cause__ is None


def test_breakdown_on_rank_deficient_block():
    # the Krylov space of diag(1, 2, 3, 0, ...) from two columns has
    # dimension 5, so the third block keeps one direction of norm O(1)
    # and loses the other: qr_factor's rank gate trips
    op = diag_operator([1.0, 2.0, 3.0] + [0.0] * 9)
    omega = gaussian_matrix(12, 2, sample_stream(16, 0))
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
        omega = gaussian_matrix(50, 4, sample_stream(6, 0))
        block_lanczos(op, omega, steps)
        assert op.matvec_count == 4 * steps


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_krylov_basis_matches_block_lanczos_bitwise(b):
    rng = np.random.default_rng(20)
    a = rng.standard_normal((30, 30))
    a = a + a.T
    omega = gaussian_matrix(30, b, sample_stream(21, b))
    for steps in range(1, 6):
        full = block_lanczos(dense_operator(a), omega, steps)
        op = dense_operator(a)
        v = krylov_basis(op, omega, steps)
        assert v.shape == (30, b * steps)
        assert np.array_equal(v, full.V)
        assert op.matvec_count == b * (steps - 1)


@pytest.mark.parametrize("build", [block_lanczos, krylov_basis])
@pytest.mark.parametrize(
    "b, steps, message",
    [
        (2, 0, "steps must be >= 1"),
        (2, -1, "steps must be >= 1"),
        (2, 6, "requested subspace exceeds the operator dimension"),
        (1, 11, "requested subspace exceeds the operator dimension"),
        (3, 4, "requested subspace exceeds the operator dimension"),
    ],
)
def test_basis_builders_reject_bad_steps_before_the_first_matvec(build, b, steps, message):
    # n = 10; the oversize requests ask for b * steps = 12, 11 and 12 columns
    op = diag_operator(np.linspace(1.0, 2.0, 10))
    omega = gaussian_matrix(10, b, sample_stream(19, b))
    with pytest.raises(ValueError, match=f"^{message}$"):
        build(op, omega, steps)
    assert op.matvec_count == 0


@pytest.mark.parametrize(
    "values, b, seed, steps",
    [
        (np.ones(10), 2, 5, 2),  # invariant subspace: the scale gate
        ([1.0, 2.0, 3.0] + [0.0] * 9, 2, 16, 3),  # rank-deficient block: qr_factor's gate
    ],
)
def test_krylov_basis_breaks_down_like_block_lanczos(values, b, seed, steps):
    omega = gaussian_matrix(len(values), b, sample_stream(seed, 0))
    errors = []
    for build in (block_lanczos, krylov_basis):
        with pytest.raises(BreakdownError) as info:
            build(diag_operator(values), omega, steps)
        errors.append(info.value)
    assert errors[0].step == errors[1].step == steps
    assert type(errors[0].__cause__) is type(errors[1].__cause__)


def test_rayleigh_ritz_selection():
    op = diag_operator(np.arange(1.0, 13.0))
    omega = gaussian_matrix(12, 2, sample_stream(7, 0))
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
    omega = gaussian_matrix(12, 3, sample_stream(9, 0))
    count, ritz_values = run_until_converged(op, omega, [1.0, 1.0, 1.0])
    assert count == 3
    assert np.allclose(ritz_values, 1.0)


def test_run_until_converged_counts_multiple_of_b():
    values = np.concatenate([np.linspace(1.0, 1.5, 6), np.linspace(-1.0, 0.0, 30)])
    op = diag_operator(values)
    omega = gaussian_matrix(36, 2, sample_stream(10, 0))
    count, ritz_values = run_until_converged(op, omega, np.linspace(1.0, 1.5, 6), tol=1e-10)
    assert count % 2 == 0
    assert np.allclose(np.sort(ritz_values), np.linspace(1.0, 1.5, 6), atol=1e-10)


def test_tightening_tolerance_never_lowers_count():
    values = np.concatenate([np.linspace(1.0, 1.2, 4), np.linspace(-1.0, 0.0, 36)])
    targets = np.linspace(1.0, 1.2, 4)
    counts = []
    for tol in (1e-6, 1e-8, 1e-10, 1e-12):
        op = diag_operator(values)
        omega = gaussian_matrix(40, 1, sample_stream(11, 0))
        count, _ = run_until_converged(op, omega, targets, tol=tol)
        counts.append(count)
    assert counts == sorted(counts)


def test_run_until_converged_budget():
    values = np.concatenate([np.linspace(1.0, 1.0001, 8), np.linspace(-1.0, 0.0, 40)])
    op = diag_operator(values)
    omega = gaussian_matrix(48, 1, sample_stream(12, 0))
    with pytest.raises(NoConvergenceError):
        run_until_converged(op, omega, np.linspace(1.0, 1.0001, 8), tol=1e-14, max_matvecs=9)


@pytest.mark.parametrize(
    "targets, tol",
    [
        ([1.0, np.nan], 1e-10),
        ([1.0, np.inf], 1e-10),
        ([1.0, 1.2], np.nan),
        ([1.0, 1.2], np.inf),
        ([1.0, 1.2], 0.0),
        ([1.0, 1.2], -1e-10),
    ],
    ids=["nan-target", "inf-target", "nan-tol", "inf-tol", "zero-tol", "negative-tol"],
)
def test_run_until_converged_rejects_bad_input_before_the_first_step(targets, tol):
    op = diag_operator(np.linspace(-1.0, 1.2, 40))
    omega = gaussian_matrix(40, 2, sample_stream(18, 0))
    with pytest.raises(ValueError, match="finite"):
        run_until_converged(op, omega, targets, tol=tol)
    assert op.matvec_count == 0


def _outcome(run, op, omega, targets, **kwargs):
    try:
        count, values = run(op, omega, targets, **kwargs)
    except NoConvergenceError as exc:
        return "no convergence", exc.matvecs
    return count, values.tobytes()


def _equivalence_cases():
    """(operator diagonal, targets, b, seed, keyword arguments): 240 runs in all."""
    n = 90
    for beta in (1.0, 1e-3):
        # seven targets, a count none of b = 2, 3, 4 divides
        lam = np.linspace(1.0, 1.0 + beta, 7)
        values = np.concatenate([lam, np.linspace(-1.0, 0.0, n - 7)])
        # interior targets: eigenvalues above them too, so the hull's upper edge counts
        interior = np.concatenate([lam, np.linspace(-1.0, 0.0, n - 27), np.linspace(3.0, 4.0, 20)])
        for b in (1, 2, 3, 4):
            for seed in range(20):
                yield values, lam, b, seed, {}
            for seed in range(5):
                yield interior, lam, b, seed, {}
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
        omega = gaussian_matrix(values.size, b, sample_stream(seed, b))
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
    # edge of the first target's window sits on it, so the first pivot there
    # is exactly zero and the sentinel drops at step 1
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 10))
    a = a + a.T
    omega = np.zeros((10, 1))
    omega[0, 0] = 1.0
    a00 = a[0, 0]
    width = 1e-10 + STURM_MARGIN
    target = a00 + width
    while target - width != a00:
        target = np.nextafter(target, -np.inf if target - width > a00 else np.inf)
    theta = np.linalg.eigvalsh(block_lanczos(dense_operator(a), omega, 2).T)
    targets = [target, theta[1]]
    assert target < theta[1]
    edges, _ = _windows(np.array(targets), width)
    assert edges[0] == a00
    expected = _outcome(run_until_converged_reference, dense_operator(a), omega,
                        targets)
    got = _outcome(run_until_converged, dense_operator(a), omega, targets)
    assert got == expected == ("no convergence", 10)
    # step 1 holds fewer Ritz values than targets; every later step compares
    assert ritz_checks == list(range(2, 11))


def test_block_sentinel_gate_trips_on_singular_pivot(ritz_checks):
    # b = 2: omega = [e_1, e_2] makes the first diagonal block a[:2, :2]; the
    # lower hull edge sits on its smaller eigenvalue, so the first pivot's
    # eigenvalue there is zero to rounding and the sentinel drops at step 1
    rng = np.random.default_rng(17)
    a = rng.standard_normal((10, 10))
    a = a + a.T
    omega = np.eye(10)[:, :2]
    low = np.linalg.eigvalsh(a[:2, :2])[0]
    width = 1e-10 + SENTINEL_MARGIN
    # two targets 1e-6 apart, which no two eigenvalues of a match: no run
    # converges, and a sentinel that stayed would skip every step
    targets = [low + width, low + width + 1e-6]
    sentinel = _Sentinel(np.array([targets[0] - width, targets[1] + width]), 2)
    assert not sentinel.extend(a[:2, :2], np.zeros((2, 2)))
    expected = _outcome(run_until_converged_reference, dense_operator(a), omega, targets)
    got = _outcome(run_until_converged, dense_operator(a), omega, targets)
    assert got == expected == ("no convergence", 10)
    assert ritz_checks == [1, 2, 3, 4, 5]


def test_sturm_rounding_guard_drops_the_sentinel(ritz_checks):
    # b = 1 with ||T|| near 100: the rounding bound eps ((k + 5) G + 2 max|s|)
    # outgrows STURM_MARGIN part way through the run. The target sits in a gap
    # of the spectrum, so the sentinel skips every step before that and every
    # step compares after it
    n = 90
    values = np.linspace(-50.0, 50.0, n)
    target = 0.5 * (values[44] + values[45])
    omega = gaussian_matrix(n, 1, sample_stream(33, 0))
    proc = _Process(diag_operator(values), omega, capacity=n)
    eps = np.finfo(np.float64).eps
    shift = abs(target) + 1e-10 + STURM_MARGIN
    trip = None
    for step in range(1, n + 1):
        proc.advance()
        gershgorin = np.abs(proc.tridiagonal()).sum(axis=1).max()
        if eps * ((step + 5) * gershgorin + 2.0 * shift) > STURM_MARGIN:
            trip = step
            break
    assert trip is not None and 10 < trip < n - 10
    expected = _outcome(run_until_converged_reference, diag_operator(values), omega, [target])
    got = _outcome(run_until_converged, diag_operator(values), omega, [target])
    assert got == expected == ("no convergence", n)
    assert ritz_checks == list(range(trip, n + 1))


def test_windows_merge_overlapping_targets():
    targets = np.array([1.0, 1.0 + 1e-10, 2.0, 3.0, 3.0])
    edges, need = _windows(targets, 1e-10)
    assert edges.tolist() == [1.0 - 1e-10, 1.0 + 2e-10, 2.0 - 1e-10, 2.0 + 1e-10,
                              3.0 - 1e-10, 3.0 + 1e-10]
    assert need.tolist() == [2, 1, 2]


def test_table1_benchmark_b1_runs_make_one_ritz_check_each(ritz_checks):
    # the per-target windows let a b = 1 run compare only on the step where it
    # converges, on each of the 8 b = 1 runs of the benchmark config
    config = ExperimentConfig(trials=2, seed=1)
    counts = [c for beta in config.beta_list for c in _matvecs_for_cell(config, beta, 1)]
    assert len(counts) == 8 and min(counts) > 0
    assert ritz_checks == counts


@pytest.mark.parametrize("b", [1, 2, 4, 8])
@pytest.mark.parametrize("beta", [1.0, 0.001])
def test_run_until_converged_matches_textbook_block_lanczos(beta, b):
    # criterion 1's draws (first three trials): the textbook process shares no
    # step code with rsbl.lanczos, so it also guards the step itself
    config = ExperimentConfig(trials=11, seed=8064113)
    lam, diag = _table1_targets(beta, config.n)
    key = config.canonical_key("table1", f"beta={beta!r}", f"b={b}")
    for trial in range(3):
        stream_id = derive_stream_id(key, trial * TABLE1_STREAM_STRIDE)
        omega = gaussian_matrix(config.n, b, sample_stream(config.seed, stream_id))
        count, _ = run_until_converged(diag_operator(diag), omega, lam, max_matvecs=1024 * b)
        assert count == textbook_block_lanczos_count(diag, omega, lam, max_matvecs=1024 * b)


def test_table1_run_builds_one_sentinel_and_extends_it_once_per_step(monkeypatch):
    built, extended = [], []
    init, extend = _Sentinel.__init__, _Sentinel.extend

    def counted_init(self, *args):
        built.append(self)
        init(self, *args)

    def counted_extend(self, *args):
        extended.append(self)
        return extend(self, *args)

    monkeypatch.setattr(_Sentinel, "__init__", counted_init)
    monkeypatch.setattr(_Sentinel, "extend", counted_extend)
    b = 4
    lam, diag = _table1_targets(0.01, 2000)
    op = diag_operator(diag)
    omega = gaussian_matrix(2000, b, sample_stream(19, b))
    count, _ = run_until_converged(op, omega, lam, max_matvecs=1024 * b)
    assert count == op.matvec_count
    assert len(built) == 1
    assert extended == built * (count // b)


def test_sentinel_window_covers_the_whole_tolerance():
    # the target sits 0.9 tol above the top Ritz value of step 5, which
    # climbed from far below: only the full-width window sees it arrive
    values = np.linspace(-1.0, 1.0, 60)
    omega = gaussian_matrix(60, 1, sample_stream(31, 0))
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
    windows=st.lists(st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
                     min_size=1, max_size=32),
)
def test_sentinel_negative_pivots_count_eigenvalues_below_shift(b, k, seed, windows):
    # up to 64 shifts: the scalar Sturm path at b = 1, the batched blocks above
    shifts = np.sort(np.ravel(windows))
    rng = np.random.default_rng(seed)
    alpha = rng.standard_normal((k, b, b))
    alpha = alpha + alpha.transpose(0, 2, 1)
    beta = rng.standard_normal((k, b, b))
    beta[0] = 0.0
    eig = np.linalg.eigvalsh(_block_tridiagonal(alpha, beta))
    assume(np.abs(eig[:, None] - shifts).min() >= 1e-6)
    sentinel = _Sentinel(shifts, b)
    if all(sentinel.extend(alpha[j], beta[j]) for j in range(k)):
        below = (eig[:, None] < shifts).sum(axis=0)
        assert sentinel.negatives.tolist() == below.tolist()
        assert sentinel.count().tolist() == (below[1::2] - below[::2]).tolist()


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
    omega = gaussian_matrix(30, 2, sample_stream(13, 0))
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
    defect = symmetry_defect(op, sample_stream(15, 0), probes=4)
    assert defect <= 1e-10 * np.linalg.norm(a, 2)
