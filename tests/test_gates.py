"""Property tests that trip the public numerical gates on purpose.

Each test names its gate and the value that trips it, and checks both
sides: a draw past the threshold must trip, one short of it must pass.
Singular-value gates are drawn on signed, shuffled diagonal matrices whose
smallest-to-largest ratio sits a relative ``MARGIN`` below or above
``rtol``: a computed SVD need not return a diagonal matrix's entries
exactly, so the draws keep off the threshold itself. The inclusive edge is
drawn exactly where it is exact, on all-zero matrices (``0 <= rtol * 0``).
The QR rank gate and the sentinel's pivot gate also get an exact edge, on
diagonal input: LAPACK's reflector for a column with a zero tail is the
identity, so their QR, SVD and ``eigvalsh`` return its entries unchanged.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rsbl.lanczos import PIVOT_RTOL, _Sentinel
from rsbl.linalg import (
    SingularMatrixError,
    _householder_qr,
    gated_svals,
    qr_factor,
)
from rsbl.matpoly import NodeSet
from rsbl.robustness import ClusterSpec

MARGIN = 1e-3
NODE_RTOL = 1e-12  # NodeSet's eigenvector gate
PROPERTY = settings(max_examples=200, deadline=None, derandomize=True)
NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


def _diagonal(draw, n: int, ratio: float) -> np.ndarray:
    """``n x n`` diagonal, entries shuffled and signed, smallest / largest modulus ``ratio``."""
    top = 10.0 ** draw(st.floats(-100.0, 100.0))
    inner = [ratio ** draw(st.floats(0.0, 1.0)) for _ in range(n - 2)]
    values = top * np.array([1.0, ratio, *inner])
    signs = draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n))
    return np.diag(values[draw(st.permutations(range(n)))] * signs)


def _member(draw, n: int, side: str, rtol: float) -> np.ndarray:
    if side == "zero":
        return np.zeros((n, n))
    if side == "below":
        return _diagonal(draw, n, rtol * (1.0 - MARGIN))
    # "above": anywhere from just past the gate up to perfectly conditioned
    return _diagonal(draw, n, (rtol * (1.0 + MARGIN)) ** draw(st.floats(0.0, 1.0)))


@st.composite
def _svals_case(draw, sides):
    """``(rtol, m)``: one matrix, or a stack with one member on a drawn side and the rest above."""
    rtol = draw(st.sampled_from([1e-12, 1e-14]))
    n = draw(st.integers(2, 5))
    side = draw(sides)
    count = draw(st.integers(0, 3))  # 0: a single 2-D matrix
    if count == 0:
        return rtol, _member(draw, n, side, rtol)
    odd = draw(st.integers(0, count - 1))
    stack = [_member(draw, n, side if k == odd else "above", rtol) for k in range(count)]
    return rtol, np.stack(stack)


@PROPERTY
@given(case=_svals_case(st.sampled_from(["below", "zero"])))
def test_gated_svals_trips_at_smallest_le_rtol_times_largest(case):
    rtol, m = case
    with pytest.raises(SingularMatrixError, match=f"at or below {rtol:g} \\* largest"):
        gated_svals(m, rtol)


@PROPERTY
@given(case=_svals_case(st.just("above")))
def test_gated_svals_passes_smallest_above_rtol_times_largest(case):
    rtol, m = case
    expected = -np.sort(-np.abs(np.diagonal(m, axis1=-2, axis2=-1)))
    np.testing.assert_allclose(gated_svals(m, rtol), expected, rtol=1e-12)


@PROPERTY
@given(case=_svals_case(st.just("above")), bad=NON_FINITE, data=st.data())
def test_gated_svals_rejects_nan_and_inf(case, bad, data):
    rtol, m = case
    m[tuple(data.draw(st.integers(0, size - 1)) for size in m.shape)] = bad
    with pytest.raises(ValueError, match="NaN or Inf"):
        gated_svals(m, rtol)


@st.composite
def _node_case(draw, b_min=1):
    """``(lams, omegas)``: ``d`` nodes of size ``b`` with distinct eigenvalues, eigenvectors above the gate."""
    d, b = draw(st.integers(2, 4)), draw(st.integers(b_min, 3))
    spacing = 10.0 ** draw(st.floats(-3.0, 3.0))
    order = draw(st.permutations(range(d * b)))
    lams = (draw(st.floats(-10.0, 10.0)) + spacing * np.array(order, dtype=float)).reshape(d, b)
    # a 1 x 1 Omega has ratio 1 whatever its entry
    omegas = np.stack([
        _member(draw, b, "above", NODE_RTOL) if b > 1 else np.array([[draw(st.floats(0.5, 2.0))]])
        for _ in range(d)
    ])
    return lams, omegas


@PROPERTY
@given(case=_node_case(), data=st.data())
def test_nodeset_trips_on_an_eigenvalue_shared_by_two_nodes(case, data):
    # the gate: separation 0 between two nodes; one ulp apart must pass
    lams, omegas = case
    d, b = lams.shape
    i, j = data.draw(st.permutations(range(d)))[:2]
    p, q = data.draw(st.integers(0, b - 1)), data.draw(st.integers(0, b - 1))
    apart = lams.copy()
    apart[j, q] = np.nextafter(lams[i, p], data.draw(st.sampled_from([-np.inf, np.inf])))
    NodeSet(apart, omegas)
    shared = lams.copy()
    shared[j, q] = lams[i, p]
    with pytest.raises(ValueError, match="two nodes share an eigenvalue"):
        NodeSet(shared, omegas)


@PROPERTY
@given(case=_node_case(b_min=2), side=st.sampled_from(["below", "zero", "above"]), data=st.data())
def test_nodeset_trips_on_eigenvectors_at_or_below_1e12_ratio(case, side, data):
    # the gate: smallest <= 1e-12 * largest singular value of some Omega_i
    lams, omegas = case
    d, b = lams.shape
    omegas[data.draw(st.integers(0, d - 1))] = _member(data.draw, b, side, NODE_RTOL)
    if side == "above":
        assert np.isfinite(NodeSet(lams, omegas).bs).all()
    else:
        with pytest.raises(SingularMatrixError, match="at or below 1e-12"):
            NodeSet(lams, omegas)


@st.composite
def _spec_args(draw):
    """Keyword arguments of a valid ClusterSpec: distinct cluster values, the rest outside."""
    b, d, rest = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(1, 6))
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(0.1, 10.0))
    cluster = np.linspace(lo, hi, b * d)[list(draw(st.permutations(range(b * d))))]
    gaps = np.array(draw(st.lists(st.floats(0.1, 10.0), min_size=rest, max_size=rest)))
    above = np.array(draw(st.lists(st.booleans(), min_size=rest, max_size=rest)))
    perp = np.where(above, hi + gaps, lo - gaps)
    return dict(
        n=b * d + rest, b=b, d=d, lambda_blocks=tuple(cluster.reshape(d, b)),
        lambda_perp=perp, cluster_min=lo, cluster_max=hi,
    )


@PROPERTY
@given(args=_spec_args(), bad=NON_FINITE, in_perp=st.booleans(), data=st.data())
def test_cluster_spec_trips_on_a_non_finite_eigenvalue(args, bad, in_perp, data):
    ClusterSpec(**args)
    if in_perp:
        perp = args["lambda_perp"].copy()
        perp[data.draw(st.integers(0, perp.size - 1))] = bad
        args["lambda_perp"] = perp
    else:
        blocks = np.array(args["lambda_blocks"])
        blocks[data.draw(st.integers(0, args["d"] - 1)), data.draw(st.integers(0, args["b"] - 1))] = bad
        args["lambda_blocks"] = tuple(blocks)
    with pytest.raises(ValueError, match="spectrum contains non-finite entries"):
        ClusterSpec(**args)


@PROPERTY
@given(args=_spec_args(), where=st.sampled_from(["lo", "inside", "hi"]), data=st.data())
def test_cluster_spec_trips_on_lambda_perp_in_the_closed_cluster_interval(args, where, data):
    # the gate: cluster_min <= lambda_perp <= cluster_max; one ulp outside must pass
    lo, hi = args["cluster_min"], args["cluster_max"]
    k = data.draw(st.integers(0, args["lambda_perp"].size - 1))
    outside, inside = args["lambda_perp"].copy(), args["lambda_perp"].copy()
    if where == "inside":
        inside[k] = data.draw(st.floats(lo, hi))
        outside[k] = np.nextafter(lo, -np.inf)
    else:
        edge = lo if where == "lo" else hi
        inside[k] = edge
        outside[k] = np.nextafter(edge, -np.inf if where == "lo" else np.inf)
    assert ClusterSpec(**{**args, "lambda_perp": outside}).lambda_perp[k] == outside[k]
    with pytest.raises(ValueError, match="lambda_perp entries must lie outside the cluster interval"):
        ClusterSpec(**{**args, "lambda_perp": inside})


QR_RTOL = 1e-12  # _householder_qr's rank gate


@st.composite
def _qr_case(draw, side):
    """``(m, smallest, largest)``: an m with orthogonal columns whose norm ratio sits on ``side``.

    ``"edge"`` is a diagonal m whose smallest entry is exactly ``1e-12`` times its largest,
    a power of two: Householder QR and the SVD then return its entries exactly.
    """
    cols = draw(st.integers(2, 5))
    rows = cols + draw(st.integers(0, 3))
    if side == "zero":
        return np.zeros((rows, cols)), 0.0, 0.0
    if side == "edge":
        top = 2.0 ** draw(st.integers(-60, 60))
        inner = [QR_RTOL ** draw(st.floats(0.0, 1.0)) for _ in range(cols - 2)]
        values = top * np.array([1.0, QR_RTOL, *inner])[draw(st.permutations(range(cols)))]
        return np.eye(rows, cols) * values, top * QR_RTOL, top
    values = np.diagonal(_member(draw, cols, side, QR_RTOL))
    seed = draw(st.integers(0, 2**32 - 1))
    rotation, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((rows, rows)))
    return rotation[:, :cols] * values, np.abs(values).min(), np.abs(values).max()


@PROPERTY
@given(case=st.sampled_from(["below", "zero"]).flatmap(_qr_case))
def test_qr_rank_gate_trips_below_1e12_times_norm(case):
    # the gate: min |diag(R)| < 1e-12 * ||M||, or ||M|| = 0; qr_factor falls back to it
    m, _, _ = case
    with pytest.raises(SingularMatrixError, match=r"diagonal of R below 1e-12 \* \|\|M\|\|"):
        _householder_qr(m)
    with pytest.raises(SingularMatrixError, match=r"diagonal of R below 1e-12 \* \|\|M\|\|"):
        qr_factor(m)


@PROPERTY
@given(case=st.sampled_from(["edge", "above"]).flatmap(_qr_case))
def test_qr_rank_gate_passes_at_and_above_1e12_times_norm(case):
    # the gate is strict: a smallest diagonal entry of exactly 1e-12 * ||M|| passes
    m, smallest, largest = case
    for q, r in (_householder_qr(m), qr_factor(m)):
        diag = np.abs(np.diag(r))
        np.testing.assert_allclose([diag.min(), diag.max()], [smallest, largest], rtol=1e-9)
        assert np.linalg.norm(q @ r - m, 2) <= 1e-13 * largest


@st.composite
def _pivot_case(draw, b, side):
    """``(alpha, shifts, lams)``: a first diagonal block and ascending shifts.

    The smallest pivot eigenvalue ``|lam - s|`` sits on ``side`` of ``PIVOT_RTOL * scale``,
    ``scale = max(1, max |lam|)``. ``"edge"`` puts it there exactly: a diagonal block with
    ``|lam| <= 1`` and ``lam - s = +-1e-10``, both exact, so the pivots are exact.
    """
    count = draw(st.sampled_from([2, 4]))
    if side == "edge":
        lam0 = draw(st.floats(0.5e-10, 2e-10)) * draw(st.sampled_from([-1.0, 1.0]))
        gated = lam0 - np.copysign(PIVOT_RTOL, lam0)
        lams = np.array([lam0] + [draw(st.floats(-1.0, 1.0)) for _ in range(b - 1)])
        far = [draw(st.floats(0.5, 5.0)) * draw(st.sampled_from([-1.0, 1.0]))
               for _ in range(count - 1)]
        return np.diag(lams), np.sort([gated, *far]), lams
    lams = np.array([draw(st.floats(-100.0, 100.0)) for _ in range(b)])
    scale = max(1.0, np.abs(lams).max())
    ratio = PIVOT_RTOL * (1.0 - MARGIN)
    if side == "above":
        ratio = (PIVOT_RTOL * (1.0 + MARGIN)) ** draw(st.floats(0.5, 1.0))
    gated = lams[0] - draw(st.sampled_from([-1.0, 1.0])) * ratio * scale
    others = [draw(st.floats(-120.0, 120.0)) for _ in range(count - 1)]
    shifts = np.sort([gated, *others])
    if side == "above":
        # no other eigenvalue and shift lie closer than the drawn pair
        assume(np.abs(lams[:, None] - shifts).min() >= abs(lams[0] - gated))
    angle = draw(st.floats(0.0, np.pi))
    c, s = np.cos(angle), np.sin(angle)
    q = np.array([[c, -s], [s, c]]) if b == 2 else np.ones((1, 1))
    alpha = (q * lams) @ q.T
    return 0.5 * (alpha + alpha.T), shifts, lams


@PROPERTY
@given(data=st.data(), b=st.sampled_from([1, 2]), side=st.sampled_from(["below", "edge"]))
def test_sentinel_pivot_gate_trips_at_or_below_pivot_rtol(data, b, side):
    # the gate: min |pivot eigenvalue| <= 1e-10 * max(1, ||alpha||) drops the sentinel
    alpha, shifts, _ = data.draw(_pivot_case(b, side))
    sentinel = _Sentinel(shifts, b)
    assert sentinel.extend(alpha, np.zeros((b, b))) is False
    assert sentinel.pivot is None and not sentinel.negatives.any()


@PROPERTY
@given(data=st.data(), b=st.sampled_from([1, 2]))
def test_sentinel_pivot_gate_passes_above_pivot_rtol(data, b):
    # every pivot eigenvalue above 1e-10 * max(1, ||alpha||): the block is counted
    alpha, shifts, lams = data.draw(_pivot_case(b, "above"))
    sentinel = _Sentinel(shifts, b)
    assert sentinel.extend(alpha, np.zeros((b, b))) is True
    assert sentinel.negatives.tolist() == (lams[:, None] < shifts).sum(axis=0).tolist()
