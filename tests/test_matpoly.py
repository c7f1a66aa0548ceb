import numpy as np
import pytest

from helpers import (
    MatrixPolynomial,
    SingularVandermondeError,
    block_vandermonde_loop,
    eigenhull_bound_pair,
    eval_lambda,
    eval_matrix,
    fundamental_norms_loop,
    fundamental_via_solve,
    growth_bound_check,
    lagrange_scalar,
    naive_eval,
    random_nodeset,
    random_polynomial,
    spectrum_bounds,
)
from rsbl.linalg import SingularMatrixError
from rsbl.matpoly import (
    ChainBreakdownError,
    DegenerateEndpointError,
    NodeSet,
    block_vandermonde,
    chi_quantities,
    conjugate,
    fundamental_via_chain,
    min_separation,
    solvent_chain,
)


def test_eval_matrix_nilpotent():
    z = np.zeros((2, 2))
    p = MatrixPolynomial((z, z, np.eye(2)))
    x = np.array([[0.0, 1.0], [0.0, 0.0]])
    assert np.allclose(eval_matrix(p, x), z)


def test_eval_matrix_constant():
    c0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    p = MatrixPolynomial((c0,))
    x = np.random.default_rng(0).standard_normal((2, 2))
    assert np.array_equal(eval_matrix(p, x), c0)


def test_eval_matrix_against_power_sum():
    rng = np.random.default_rng(1)
    p = random_polynomial(rng, 3, 4)
    x = rng.standard_normal((3, 3))
    got = eval_matrix(p, x)
    ref = naive_eval(p, x)
    assert np.linalg.norm(got - ref, 2) <= 1e-12 * np.linalg.norm(ref, 2)


def test_eval_lambda_cases():
    rng = np.random.default_rng(2)
    p = random_polynomial(rng, 2, 3)
    assert np.array_equal(eval_lambda(p, 0.0), p.coeffs[0])
    all_eye = MatrixPolynomial((np.eye(2), np.eye(2), np.eye(2)))
    assert np.allclose(eval_lambda(all_eye, 1.0), 3.0 * np.eye(2))
    assert np.array_equal(eval_lambda(p, 0.3), eval_matrix(p, 0.3 * np.eye(2)))


def test_block_vandermonde_counterexample():
    b1 = np.diag([1.0, 2.0])
    b2 = np.array([[2.0, 1.0], [-1.0, 1.0]])
    van = block_vandermonde([b1, b2])
    vec = np.array([1.0, -2.0, -1.0, 1.0])
    assert np.linalg.norm(van @ vec) <= 1e-14


@pytest.mark.parametrize("b", [1, 2, 3])
def test_block_vandermonde_stack_matches_loop(b):
    rng = np.random.default_rng(30 + b)
    mats = rng.standard_normal((7, b, b))
    for d in (1, 2, 3, 4):
        assert np.array_equal(block_vandermonde(mats, d), block_vandermonde_loop(mats, d))
    nodes = random_nodeset(rng, b, 3)
    assert np.array_equal(block_vandermonde(nodes), block_vandermonde_loop(nodes.bs, 3))
    assert np.array_equal(block_vandermonde(list(mats[:3])), block_vandermonde_loop(mats[:3], 3))


def test_conjugate_single_implementation():
    rng = np.random.default_rng(31)
    lam = rng.uniform(-1.0, 1.0, (6, 1))
    assert np.array_equal(conjugate(rng.standard_normal((6, 1, 1)), lam), lam[:, :, None])
    for b in (2, 3):
        oms = rng.standard_normal((6, b, b))
        lams = rng.uniform(-1.0, 1.0, (6, b))
        stack = conjugate(oms, lams)
        for om, l, got in zip(oms, lams, stack):
            expect = np.linalg.solve(om, l[:, None] * om)
            assert np.array_equal(conjugate(om, l), expect)
            assert np.array_equal(got, expect)
        oms[4] = np.ones((b, b))
        with pytest.raises(SingularMatrixError):
            conjugate(oms, lams)


def test_conjugate_gates_omega_at_every_b():
    # the 1 x 1 conjugation cancels, but a zero Omega still trips the gate
    with pytest.raises(SingularMatrixError):
        conjugate(np.zeros((1, 1)), [2.0])
    assert np.array_equal(conjugate(np.full((3, 1, 1), 1e-300), [2.0]), np.full((3, 1, 1), 2.0))
    with pytest.raises(SingularMatrixError):
        conjugate(np.diag([1.0, 1e-12]), [1.0, 2.0], rtol=1e-12)
    conjugate(np.diag([1.0, 2e-12]), [1.0, 2.0], rtol=1e-12)


def test_min_separation_matches_all_pairs():
    rng = np.random.default_rng(32)
    spectra = [rng.uniform(0.0, 1.0, 3) for _ in range(4)]
    pairs = [abs(x - y) for i, a in enumerate(spectra) for b in spectra[i + 1:] for x in a for y in b]
    assert min_separation(spectra) == min(pairs)
    assert min_separation(spectra[:1]) == np.inf
    assert min_separation((np.array([1.0, 2.0]), np.array([3.0, 2.0]))) == 0.0


def test_block_vandermonde_trivial_cases():
    nodes = NodeSet((np.array([0.5, 1.5]),), (np.eye(2),))
    assert np.array_equal(block_vandermonde(nodes), np.eye(2))
    scalar = NodeSet(
        (np.array([0.0]), np.array([1.0]), np.array([2.0])),
        (np.eye(1), np.eye(1), np.eye(1)),
    )
    van = block_vandermonde(scalar)
    assert np.linalg.det(van) == pytest.approx(2.0, rel=1e-12)


def test_nodeset_validation():
    with pytest.raises(ValueError):
        NodeSet((np.array([1.0]), np.array([1.0])), (np.eye(1), np.eye(1)))


def test_fundamental_via_solve_single_node():
    nodes = NodeSet((np.array([0.3, 0.7]),), (np.eye(2),))
    f = fundamental_via_solve(nodes, 0)
    assert f.degree == 0
    assert np.allclose(f.coeffs[0], np.eye(2))


def test_fundamental_via_solve_scalar_lagrange():
    nodes = NodeSet((np.array([0.0]), np.array([1.0])), (np.eye(1), np.eye(1)))
    f = fundamental_via_solve(nodes, 1)
    # F(lam) = lam for nodes {0, 1} and pivot 1
    assert np.allclose([c[0, 0] for c in f.coeffs], [0.0, 1.0])
    f0 = fundamental_via_solve(nodes, 0)
    assert np.allclose([c[0, 0] for c in f0.coeffs], [1.0, -1.0])


def test_fundamental_via_solve_vandermonde_gate():
    # nodes -t and t give Van = [[1, -t], [1, t]] with orthogonal columns,
    # so its singular values are sqrt(2) and sqrt(2) * t
    def nodes_at(t):
        return NodeSet((np.array([-t]), np.array([t])), (np.eye(1), np.eye(1)))

    with pytest.raises(SingularVandermondeError, match="1e-14"):
        fundamental_via_solve(nodes_at(1e-14), 0)
    f = fundamental_via_solve(nodes_at(2e-14), 0)
    assert f.coeffs[1][0, 0] == pytest.approx(-1.0 / 4e-14, rel=1e-12)


def test_fundamental_kronecker_property():
    rng = np.random.default_rng(3)
    for _ in range(20):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        nodes = random_nodeset(rng, b, d)
        cond = np.linalg.cond(block_vandermonde(nodes))
        k = int(rng.integers(0, d))
        f = fundamental_via_solve(nodes, k)
        for j in range(d):
            target = np.eye(b) if j == k else np.zeros((b, b))
            assert np.linalg.norm(eval_matrix(f, nodes.bs[j]) - target, 2) <= 1e-8 * cond


def test_chain_d2_closed_form():
    rng = np.random.default_rng(4)
    nodes = random_nodeset(rng, 2, 2)
    chain = solvent_chain(nodes, 0)
    b1, b2 = nodes.bs
    assert np.allclose(chain.s_full[0], b1 - b2)
    lam = 0.37
    expected = (lam * np.eye(2) - b2) @ np.linalg.inv(b1 - b2)
    assert np.allclose(fundamental_via_chain(chain, lam), expected, atol=1e-10)


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("d", [2, 3, 4])
def test_chain_grid_matches_scalar_calls(b, d):
    rng = np.random.default_rng(100 + 10 * b + d)
    nodes = random_nodeset(rng, b, d)
    lams = np.linspace(-2.0, 4.0, 37)
    for k in range(d):
        chain = solvent_chain(nodes, k)
        stack = fundamental_via_chain(chain, lams)
        assert stack.shape == (lams.size, b, b)
        for lam, got in zip(lams, stack):
            expected = fundamental_via_chain(chain, float(lam))
            np.testing.assert_allclose(got, expected, rtol=1e-14, atol=0.0)
    with pytest.raises(ValueError):
        fundamental_via_chain(chain, lams.reshape(1, -1))


def test_nodeset_eigenvector_gate_is_inclusive():
    lams = (np.array([0.0, 0.5]), np.array([1.0, 1.5]))
    with pytest.raises(SingularMatrixError):
        NodeSet(lams, (np.diag([1.0, 1e-12]), np.eye(2)))
    NodeSet(lams, (np.diag([1.0, 2e-12]), np.eye(2)))


def test_chain_breakdown_on_singular_difference():
    # B1 = [[6, -2], [6, -1]] has spectrum {2, 3} and B0 - B1 is singular
    omega1 = np.array([[-3.0, 2.0], [2.0, -1.0]])
    nodes = NodeSet((np.array([0.0, 1.0]), np.array([2.0, 3.0])), (np.eye(2), omega1))
    # the 1e-12 gate itself trips, before the later solves' 1e-14 gates can
    with pytest.raises(ChainBreakdownError, match="^chain breakdown at position 0$"):
        solvent_chain(nodes, 0)


def test_chain_identity_eigenvectors_stays_diagonal():
    lams = (np.array([0.0, 0.5]), np.array([1.0, 1.5]), np.array([2.0, 2.5]))
    nodes = NodeSet(lams, (np.eye(2), np.eye(2), np.eye(2)))
    chain = solvent_chain(nodes, 0)
    for i in range(3):
        assert np.allclose(chain.b_hats[i], np.diag(chain.lambdas[i]))
        assert np.allclose(chain.s_full[i], np.diag(np.diag(chain.s_full[i])))


def test_chain_matches_scalar_lagrange():
    rng = np.random.default_rng(5)
    vals = [0.0, 0.4, 1.1, 2.0]
    nodes = NodeSet(
        tuple(np.array([v]) for v in vals),
        tuple(rng.standard_normal((1, 1)) for _ in vals),
    )
    for k in range(4):
        chain = solvent_chain(nodes, k)
        for lam in rng.uniform(-1.0, 3.0, 5):
            got = fundamental_via_chain(chain, lam)[0, 0]
            assert got == pytest.approx(lagrange_scalar(vals, k, lam), abs=1e-12)


def test_chain_stored_recurrence_and_permutation():
    rng = np.random.default_rng(6)
    nodes = random_nodeset(rng, 2, 4)
    chain = solvent_chain(nodes, 2)
    assert chain.order == (2, 0, 1, 3)
    d = nodes.d
    for i in range(d):
        acc = np.eye(2)
        b_i = nodes.bs[chain.order[i]]
        for j in range(d - 1, i, -1):
            acc = b_i @ acc - acc @ chain.b_hats[j]
        assert np.array_equal(chain.s_full[i], acc)
        node = chain.order[i]
        expect = conjugate(nodes.omegas[node] @ acc, nodes.lambdas[node])
        assert np.array_equal(chain.b_hats[i], expect)


def test_chain_agrees_with_solve_oracle():
    rng = np.random.default_rng(7)
    for _ in range(40):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        nodes = random_nodeset(rng, b, d)
        cond = np.linalg.cond(block_vandermonde(nodes))
        k = int(rng.integers(0, d))
        chain = solvent_chain(nodes, k)
        f = fundamental_via_solve(nodes, k)
        for lam in rng.uniform(-0.5, d * 0.5, 6):
            ref = eval_lambda(f, lam)
            got = fundamental_via_chain(chain, lam)
            scale = max(1.0, np.linalg.norm(ref, 2))
            assert np.linalg.norm(got - ref, 2) <= 1e-8 * cond * scale


def test_chain_single_node_is_identity():
    rng = np.random.default_rng(8)
    nodes = random_nodeset(rng, 3, 1)
    chain = solvent_chain(nodes, 0)
    assert np.allclose(fundamental_via_chain(chain, -2.3), np.eye(3))


def test_interpolation_identity():
    rng = np.random.default_rng(9)
    for _ in range(25):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 5))
        nodes = random_nodeset(rng, b, d)
        cond = np.linalg.cond(block_vandermonde(nodes))
        phi = random_polynomial(rng, b, d - 1)
        chains = [solvent_chain(nodes, k) for k in range(d)]
        for lam in rng.uniform(-1.0, d, 5):
            expect = eval_lambda(phi, lam)
            got = np.zeros((b, b))
            for k in range(d):
                got += fundamental_via_chain(chains[k], lam) @ eval_matrix(phi, nodes.bs[k])
            scale = max(1.0, np.linalg.norm(expect, 2))
            assert np.linalg.norm(got - expect, 2) <= 1e-8 * cond * scale


def test_chi_scalar_case():
    rng = np.random.default_rng(13)
    vals = [0.1, 0.5, 0.9]
    nodes = NodeSet(
        tuple(np.array([v]) for v in vals),
        tuple(rng.standard_normal((1, 1)) for _ in vals),
    )
    chains = [solvent_chain(nodes, k) for k in range(3)]
    chi_mono, chi_coef = chi_quantities(nodes, chains, (0.0, 1.0))
    assert chi_mono == 1.0
    assert chi_coef <= 1.0 + 1e-12


def test_chi_identity_eigenvectors():
    lams = (np.array([0.1, 0.2]), np.array([0.6, 0.7]))
    nodes = NodeSet(lams, (np.eye(2), np.eye(2)))
    chains = [solvent_chain(nodes, k) for k in range(2)]
    chi_mono, _ = chi_quantities(nodes, chains, (0.0, 1.0))
    assert chi_mono == pytest.approx(1.0, abs=1e-12)


def test_chi_d2_closed_form():
    rng = np.random.default_rng(14)
    nodes = random_nodeset(rng, 2, 2)
    chains = [solvent_chain(nodes, k) for k in range(2)]
    lo, hi = spectrum_bounds(nodes)
    _, chi_coef = chi_quantities(nodes, chains, (lo, hi))
    expected = 0.0
    for k in range(2):
        other = 1 - k
        diff = nodes.bs[k] - nodes.bs[other]
        gap = np.min(np.abs(nodes.lambdas[k][:, None] - nodes.lambdas[other][None, :]))
        expected = max(expected, np.linalg.norm(np.linalg.inv(diff), 2) * gap)
    assert chi_coef == pytest.approx(expected, rel=1e-10)


def test_chi_degenerate_endpoint():
    lams = (np.array([0.0, 0.0]), np.array([1.0, 2.0]))
    nodes = NodeSet(lams, (np.eye(2), np.eye(2)))
    chains = [solvent_chain(nodes, k) for k in range(2)]
    with pytest.raises(DegenerateEndpointError):
        chi_quantities(nodes, chains, (0.0, 2.0))


def test_growth_bound_check_holds():
    rng = np.random.default_rng(15)
    for _ in range(10):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        nodes = random_nodeset(rng, b, d)
        chains = [solvent_chain(nodes, k) for k in range(d)]
        lo, hi = spectrum_bounds(nodes)
        samples = np.concatenate([lo - rng.uniform(0.05, 2.0, 10), hi + rng.uniform(0.05, 2.0, 10)])
        records = growth_bound_check(chains, (lo, hi), samples)
        assert all(r.holds for r in records)


def test_growth_bound_check_matches_pointwise_loop():
    rng = np.random.default_rng(19)
    for b, d in ((1, 2), (2, 3), (3, 2)):
        nodes = random_nodeset(rng, b, d)
        chains = [solvent_chain(nodes, k) for k in range(d)]
        lo, hi = spectrum_bounds(nodes)
        samples = np.concatenate([lo - rng.uniform(0.05, 2.0, 15), hi + rng.uniform(0.05, 2.0, 15)])
        records = growth_bound_check(chains, (lo, hi), samples)
        norms = fundamental_norms_loop(chains, samples)
        assert [r.lam for r in records] == samples.tolist()
        assert [r.lhs for r in records] == [max(col) ** (1.0 / (d - 1)) for col in norms.T.tolist()]
        assert growth_bound_check(chains, (lo, hi), []) == []
        with pytest.raises(ValueError, match="inside the interval"):
            growth_bound_check(chains, (lo, hi), [lo - 1.0, 0.5 * (lo + hi)])


def test_growth_bound_scalar_matches_lagrange():
    rng = np.random.default_rng(16)
    vals = [0.0, 0.3, 0.8]
    nodes = NodeSet(
        tuple(np.array([v]) for v in vals),
        tuple(rng.standard_normal((1, 1)) for _ in vals),
    )
    chains = [solvent_chain(nodes, k) for k in range(3)]
    records = growth_bound_check(chains, (0.0, 0.8), [1.5, -0.7])
    for rec in records:
        expect = max(abs(lagrange_scalar(vals, k, rec.lam)) for k in range(3)) ** 0.5
        assert rec.lhs == pytest.approx(expect, rel=1e-10)


def test_genericity_no_breakdowns():
    rng = np.random.default_rng(17)
    failures = 0
    for _ in range(1000):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        nodes = random_nodeset(rng, b, d, separation=0.05)
        try:
            fundamental_via_solve(nodes, 0)
            for k in range(d):
                solvent_chain(nodes, k)
        except (SingularVandermondeError, ChainBreakdownError):
            failures += 1
    assert failures == 0


def test_eigenhull_norm_bound():
    rng = np.random.default_rng(18)
    for _ in range(100):
        b = int(rng.integers(1, 5))
        lam0 = np.sort(rng.uniform(-1.0, 1.0, b))
        omega0 = rng.standard_normal((b, b))
        p = random_polynomial(rng, b, int(rng.integers(1, 5)))
        lhs, rhs = eigenhull_bound_pair(p, omega0, lam0)
        assert lhs <= rhs * (1.0 + 1e-10)
