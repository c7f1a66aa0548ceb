"""Property tests that trip the public numerical gates on purpose.

Each test names its gate and the value that trips it, and checks both
sides: a draw past the threshold must trip, one short of it must pass.
Singular-value gates are drawn on signed, shuffled diagonal matrices whose
smallest-to-largest ratio sits a relative ``MARGIN`` below or above
``rtol``: a computed SVD need not return a diagonal matrix's entries
exactly, so the draws keep off the threshold itself. The inclusive edge is
drawn exactly where it is exact, on all-zero matrices (``0 <= rtol * 0``).
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rsbl.linalg import SingularMatrixError, gated_svals
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
