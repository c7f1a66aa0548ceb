import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cholesky_qr2
from rsbl import linalg
from rsbl.linalg import (
    RankDeficientError,
    RngStream,
    SingularMatrixError,
    gated_svals,
    gaussian_matrix,
    max_spectral_norm,
    qr_factor,
    smallest_singular,
    solve_linear,
    spectral_norm,
)


def test_gaussian_deterministic_per_stream():
    a = gaussian_matrix(8, 5, RngStream(7, 0))
    b = gaussian_matrix(8, 5, RngStream(7, 0))
    assert np.array_equal(a, b)
    c = gaussian_matrix(8, 5, RngStream(7, 1))
    assert not np.array_equal(a, c)


def test_gaussian_shape_and_finiteness():
    m = gaussian_matrix(2, 3, RngStream(0))
    assert m.shape == (2, 3)
    assert np.isfinite(m).all()
    with pytest.raises(ValueError):
        gaussian_matrix(0, 3, RngStream(0))


def test_gaussian_moments():
    samples = gaussian_matrix(1000, 1000, RngStream(42)).ravel()
    assert abs(samples.mean()) <= 4e-3
    assert abs(samples.var() - 1.0) <= 1e-2


def test_qr_identity():
    q, r = qr_factor(np.eye(3))
    assert np.allclose(q, np.eye(3))
    assert np.allclose(r, np.eye(3))


def test_qr_column_vector():
    _, r = qr_factor(np.array([[3.0], [4.0]]))
    assert abs(r[0, 0] - 5.0) <= 1e-14


def test_qr_random_rectangular():
    rng = np.random.default_rng(1)
    m = rng.standard_normal((50, 10))
    q, r = qr_factor(m)
    assert np.linalg.norm(q @ r - m, 2) <= 1e-13 * np.linalg.norm(m, 2)
    assert np.linalg.norm(q.T @ q - np.eye(10), 2) <= 1e-13 * np.sqrt(10)
    assert np.all(np.diag(r) >= 0.0)
    assert np.allclose(r, np.triu(r))


def test_qr_invariants_many_instances():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        rows = int(rng.integers(2, 30))
        cols = int(rng.integers(1, rows + 1))
        m = rng.standard_normal((rows, cols))
        q, r = qr_factor(m)
        assert np.linalg.norm(q.T @ q - np.eye(cols), 2) <= 1e-13 * np.sqrt(cols)
        assert np.linalg.norm(q @ r - m, 2) <= 1e-13 * np.linalg.norm(m, 2)


def test_qr_rank_deficient():
    with pytest.raises(RankDeficientError):
        qr_factor(np.array([[1.0, 1.0], [1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(RankDeficientError):
        qr_factor(np.zeros((4, 2)))


def _conditioned(kappa, rows=1000, cols=20, seed=0, last_alone=False):
    """rows x cols matrix with singular values log-spaced from 1 down to 1/kappa.

    With ``last_alone`` the smallest singular direction is the last column
    alone, so that column's distance to the others (the last diagonal entry
    of R) equals ``1/kappa``.
    """
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, cols)))
    k = cols - 1 if last_alone else cols
    v = np.eye(cols)
    v[:k, :k], _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (u * np.logspace(0.0, -np.log10(kappa), cols)) @ v.T


def _count_fallbacks_and_scans(monkeypatch):
    fallbacks, scans = [], []
    householder, require_finite = linalg._householder_qr, linalg._require_finite

    def counted_fallback(m):
        fallbacks.append(m.shape)
        return householder(m)

    def counted_scan(m, name):
        scans.append(m.shape)
        return require_finite(m, name)

    monkeypatch.setattr(linalg, "_householder_qr", counted_fallback)
    monkeypatch.setattr(linalg, "_require_finite", counted_scan)
    return fallbacks, scans


@pytest.mark.parametrize(
    "kappa, falls_back",
    [
        (1e3, False),
        (1e7, True),  # the Cholesky factor exists but its estimate exceeds the limit
        (1e9, True),  # the Cholesky factorization of the Gram matrix fails
        (1e11, True),
    ],
)
def test_qr_cholesky_fallback_gate(monkeypatch, kappa, falls_back):
    fallbacks, scans = _count_fallbacks_and_scans(monkeypatch)
    m = _conditioned(kappa)
    q, r = qr_factor(m)
    assert len(fallbacks) == falls_back
    # only the fallback scans for NaN and Inf
    assert len(scans) == falls_back
    assert np.linalg.norm(q.T @ q - np.eye(20), 2) <= 1e-13 * np.sqrt(20)
    assert np.linalg.norm(q @ r - m, 2) <= 1e-13 * np.linalg.norm(m, 2)
    assert np.all(np.diag(r) >= 0.0)
    assert np.array_equal(r, np.triu(r))
    # non-finite input still reaches the fallback, whose scan raises
    for bad in (np.nan, np.inf, -np.inf):
        m[3, 5] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            qr_factor(m)


@pytest.mark.parametrize("layout", ["C", "F", "strided"])
def test_qr_one_column_is_the_two_pass_formula_bit_for_bit(monkeypatch, layout):
    # the closed form keeps every bit of the matrix formulas, signed zeros too,
    # from 1e-150 to 1e150 and whatever the memory layout of the column
    fallbacks, scans = _count_fallbacks_and_scans(monkeypatch)
    rng = np.random.default_rng(40)
    cases = 0
    for rows in (1, 2, 24, 333, 2000):
        for exponent in range(-150, 151, 10):
            wide = rng.standard_normal((rows, 3)) * 10.0**exponent
            wide[rng.random(rows) < 0.3, 1] = -0.0
            if layout == "F":
                m = np.asfortranarray(wide)[:, 1:2]
            elif layout == "strided":
                m = wide[:, 1:2]
            else:
                m = np.ascontiguousarray(wide[:, 1:2])
            if not m.any():
                continue
            q, r = qr_factor(m)
            q_ref, r_ref = cholesky_qr2(np.ascontiguousarray(m))
            assert q.tobytes() == q_ref.tobytes(), (rows, exponent)
            assert r.tobytes() == r_ref.tobytes(), (rows, exponent)
            cases += 1
    assert cases >= 130
    assert fallbacks == scans == []


def test_qr_one_column_edges():
    with pytest.raises(RankDeficientError):
        qr_factor(np.zeros((5, 1)))
    for bad in (np.nan, np.inf, -np.inf):
        m = np.ones((5, 1))
        m[2, 0] = bad
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="NaN or Inf"):
            qr_factor(m)


@pytest.mark.parametrize("scale", [1e200, 1e-170, 1e-160])
def test_qr_one_column_out_of_range_takes_the_fallback(monkeypatch, scale):
    # 1e200: the Gram entry overflows; 1e-170: it underflows to zero; 1e-160: it
    # is subnormal, and the estimate's inv(R1) squared overflows
    fallbacks, _ = _count_fallbacks_and_scans(monkeypatch)
    m = np.random.default_rng(41).standard_normal((50, 1)) * scale
    with np.errstate(all="ignore"):
        q, r = qr_factor(m)
    assert fallbacks == [(50, 1)]
    assert abs(np.linalg.norm(q) - 1.0) <= 1e-15
    assert r[0, 0] > 0.0
    assert np.allclose(q * r[0, 0], m, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("b", [1, 3])
@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_qr_extreme_scales_factor_without_warnings(b, scale):
    # the Gram product or the estimate overflows (1e160), or inv(R1)'s norm
    # does (1e-160, b = 3); the fallback factors these inputs, warning-free
    m = np.random.default_rng(42).standard_normal((20, b)) * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        q, r = qr_factor(m)
    assert np.linalg.norm(q.T @ q - np.eye(b), 2) <= 1e-14
    assert np.linalg.norm(q @ r - m, 2) <= 1e-14 * np.linalg.norm(m, 2)


def test_qr_rank_gate_trips_past_the_fallback():
    with pytest.raises(RankDeficientError):
        qr_factor(_conditioned(1e13, last_alone=True))


def test_spectral_norm_cases():
    assert spectral_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0, rel=1e-14)
    assert spectral_norm(np.zeros((3, 2))) == 0.0
    rng = np.random.default_rng(4)
    m = rng.standard_normal((30, 20))
    gram = np.linalg.eigvalsh(m.T @ m)[-1]
    assert spectral_norm(m) == pytest.approx(np.sqrt(gram), rel=1e-10)


def test_smallest_singular_cases():
    assert smallest_singular(np.array([[1.0, 1.0], [1.0, 1.0]])) <= 1e-14
    assert smallest_singular(np.eye(4)) == pytest.approx(1.0, rel=1e-14)
    rng = np.random.default_rng(5)
    m = rng.standard_normal((10, 10))
    inv_norm = np.linalg.norm(np.linalg.inv(m), 2)
    assert smallest_singular(m) == pytest.approx(1.0 / inv_norm, rel=1e-8)


def test_solve_identity():
    b = np.arange(6.0).reshape(3, 2)
    x = solve_linear(np.eye(3), b)
    assert np.array_equal(x, b)


def test_solve_diagonal():
    x = solve_linear(np.diag([2.0, 4.0]), np.eye(2))
    assert np.allclose(x, np.diag([0.5, 0.25]))


def test_solve_random_residual():
    rng = np.random.default_rng(6)
    m = rng.standard_normal((15, 15)) + 5.0 * np.eye(15)
    b = rng.standard_normal((15, 3))
    x = solve_linear(m, b)
    cond = np.linalg.norm(m, 1) * np.linalg.norm(np.linalg.inv(m), 1)
    assert np.linalg.norm(m @ x - b, 2) <= 1e-10 * cond * np.linalg.norm(b, 2)


def test_solve_singular():
    with pytest.raises(SingularMatrixError):
        solve_linear(np.array([[1.0, 1.0], [1.0, 1.0]]), np.eye(2))


def test_solve_stack_matches_loop_and_trips_gate():
    rng = np.random.default_rng(7)
    m = rng.standard_normal((5, 3, 3))
    b = rng.standard_normal((5, 3, 2))
    x = solve_linear(m, b)
    for mi, bi, xi in zip(m, b, x):
        assert np.array_equal(xi, solve_linear(mi, bi))
    # one member just below the 1e-14 gate trips it for the whole stack
    m[3] = np.diag([1.0, 1.0, 0.5e-14])
    with pytest.raises(SingularMatrixError, match="below 1e-14"):
        solve_linear(m, b)
    m[3] = np.diag([1.0, 1.0, 2e-14])
    solve_linear(m, b)
    m[3, 0, 0] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        solve_linear(m, b)
    with pytest.raises(ValueError):
        solve_linear(m[:, :, :2], b)


def test_gated_svals_is_inclusive_and_names_the_values():
    assert np.array_equal(gated_svals(np.diag([2e-14, 1.0]), 1e-14), [1.0, 2e-14])
    with pytest.raises(SingularMatrixError, match=r"1\.000e-14 at or below 1e-14 \* largest \(1\.000e\+00\)"):
        gated_svals(np.diag([1.0, 1e-14]), 1e-14)
    # an all-zero matrix trips the same rule, no separate zero check
    with pytest.raises(SingularMatrixError):
        gated_svals(np.zeros((2, 2)), 1e-14)
    with pytest.raises(ZeroDivisionError, match="1e-12"):
        gated_svals(np.diag([1.0, 1e-12]), 1e-12, ZeroDivisionError)
    with pytest.raises(ValueError, match="NaN or Inf"):
        gated_svals(np.array([[np.nan, 0.0], [0.0, 1.0]]), 1e-14)


def test_gated_svals_stack_matches_loop_and_trips_on_any_member():
    rng = np.random.default_rng(8)
    m = rng.standard_normal((4, 3, 2))
    svals = gated_svals(m, 1e-14)
    for mi, si in zip(m, svals):
        assert np.array_equal(si, np.linalg.svd(mi, compute_uv=False))
    m[2] = 0.0
    with pytest.raises(SingularMatrixError, match="0.000e"):
        gated_svals(m, 1e-14)


def test_norms_of_a_stack_match_the_loop():
    rng = np.random.default_rng(9)
    m = rng.standard_normal((5, 3, 3))
    tops, lows = spectral_norm(m), smallest_singular(m)
    assert tops.shape == lows.shape == (5,)
    for mi, top, low in zip(m, tops, lows):
        assert spectral_norm(mi) == top
        assert smallest_singular(mi) == low
    m[1, 0, 0] = np.inf
    with pytest.raises(ValueError, match="NaN or Inf"):
        spectral_norm(m)


@st.composite
def _scaled_stack(draw):
    """(G, r, c) stack with repeats: r and c in 1..4, drawn apart.

    Members are Gaussian, scaled orthogonal (all singular values equal, so the trace
    bound is tight) or rank one. Per-matrix scales are ``10**(center + u)`` with
    ``center`` in [-200, 200] and ``u`` within a drawn spread, so whole stacks can sit
    where the Frobenius squares overflow or underflow.
    """
    g = draw(st.integers(1, 300))
    r, c = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    distinct = draw(st.integers(1, g))
    center = draw(st.floats(-200.0, 200.0))
    spread = draw(st.sampled_from([0.0, 1.0, 8.0]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal((distinct, r, c))
    q = np.linalg.qr(rng.standard_normal((distinct, max(r, c), min(r, c))))[0]
    orthogonal = q if r >= c else q.transpose(0, 2, 1)
    rank_one = base[:, :, :1] @ rng.standard_normal((distinct, 1, c))
    kind = rng.integers(0, 3, distinct)[:, None, None]
    base = np.where(kind == 1, orthogonal, np.where(kind == 2, rank_one, base))
    base *= 10.0 ** (center + rng.uniform(-spread, spread, (distinct, 1, 1)))
    return base[rng.integers(0, distinct, g)]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(m=_scaled_stack())
def test_max_spectral_norm_matches_full_stack_bitwise(m):
    assert max_spectral_norm(m) == spectral_norm(m).max()


def test_max_spectral_norm_keeps_spectral_argmax_below_frobenius_argmax():
    # eye(3): Frobenius 1.73, spectral 1; the rank-one matrix: both 1.5
    rank_one = 1.5 * np.outer([1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    m = np.stack([np.eye(3), rank_one, 0.5 * np.eye(3)])
    assert max_spectral_norm(m) == 1.5
    assert max_spectral_norm(m.reshape(3, 1, 3, 3)) == 1.5


@pytest.mark.parametrize("scale", [1e200, 1e-170])
def test_max_spectral_norm_survives_frobenius_overflow_and_underflow(scale):
    # at 1e200 the squares overflow the Frobenius sum; at 1e-170 they underflow to zero
    rng = np.random.default_rng(11)
    m = rng.standard_normal((40, 3, 3)) * scale
    assert max_spectral_norm(m) == spectral_norm(m).max()


def test_max_spectral_norm_of_one_matrix_and_non_finite_input():
    m = np.random.default_rng(12).standard_normal((4, 3))
    assert max_spectral_norm(m) == spectral_norm(m)
    m[1, 2] = np.nan
    with pytest.raises(ValueError, match="NaN or Inf"):
        max_spectral_norm(m[None])


def test_rejects_nonfinite():
    with pytest.raises(ValueError):
        spectral_norm(np.array([[np.nan, 0.0], [0.0, 1.0]]))
