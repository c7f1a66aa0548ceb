"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete. Each test computes its verdict first, prints the
line, then asserts, so a FAIL line always appears before the traceback.
Criteria 1, 2, 6, 7 and 8 run the command that reproduces them through
``rsbl.cli.main`` at its shipped defaults and judge the CSV it writes.
"""
import contextlib
import csv
import io
import math
import time

import numpy as np
import pytest

from helpers import (
    chain_view,
    chebyshev_accel_check,
    eigenhull_bound_pair,
    eval_lambda,
    eval_matrix,
    fundamental_via_solve,
    lagrange_scalar,
    random_cluster_spec,
    random_nodeset,
    random_polynomial,
)
from rsbl.cli import main
from rsbl.linalg import RngStream, gaussian_matrix
from rsbl.matpoly import (
    NodeSet,
    block_vandermonde,
    chi_quantities,
    fundamental_via_chain,
    solvent_chain,
)
from rsbl.robustness import ClusterSpec, sandwich_d2, tan_angle_krylov

TABLE1_REFERENCE = {
    1.0: {1: 75, 2: 86, 4: 100, 8: 136, 16: 208, 32: 352},
    0.1: {1: 115, 2: 126, 4: 140, 8: 176, 16: 240, 32: 352},
    0.01: {1: 156, 2: 166, 4: 176, 8: 208, 16: 256, 32: 384},
    0.001: {1: 196, 2: 204, 4: 212, 8: 240, 16: 288, 32: 384},
}


def report(criterion: int, ok: bool, detail: str):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'}: {detail}")


def run_command(out_dir, command, *flags) -> tuple[dict, float]:
    """Run ``rsbl <command>`` with no config file; the rows of each CSV it wrote, and its time.

    The command's console summary is swallowed, so each criterion prints one line.
    """
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        main([command, *flags, "--out", str(out_dir)])
    elapsed = time.perf_counter() - start
    tables = {}
    for path in out_dir.glob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            tables[path.name] = list(csv.DictReader(fh))
    return tables, elapsed


@pytest.fixture(scope="module")
def table1_summary(tmp_path_factory):
    tables, elapsed = run_command(tmp_path_factory.mktemp("table1"), "table1", "--trials", "11")
    rows = {(float(r["beta"]), int(r["b"])): r for r in tables["table1_summary.csv"]}
    return rows, elapsed


def test_criterion_01_table1_reproduction(table1_summary):
    rows, elapsed = table1_summary
    medians = {cell: int(row["median_matvecs"]) for cell, row in rows.items()}
    misses = []
    for beta, row in TABLE1_REFERENCE.items():
        for b, ref in row.items():
            med = medians[(beta, b)]
            if abs(med - ref) > b:
                misses.append(f"beta={beta} b={b}: median {med} vs reference {ref}")
    ok = not misses and elapsed <= 300.0
    report(1, ok, f"24-cell grid, 11 seeds, {elapsed:.0f}s; misses: {misses or 'none'}")
    assert elapsed <= 300.0
    assert not misses, misses


def test_criterion_02_overhead_trend(table1_summary):
    rows, _ = table1_summary
    overheads = [float(rows[(beta, 2)]["overhead_pct"]) for beta in (1.0, 0.1, 0.01, 0.001)]
    ok = all(a > b for a, b in zip(overheads, overheads[1:]))
    report(2, ok, "b=2 overhead by beta: " + ", ".join(f"{o:.1f}%" for o in overheads))
    assert ok, overheads


def test_criterion_03_vandermonde_counterexample():
    van = block_vandermonde([np.diag([1.0, 2.0]), np.array([[2.0, 1.0], [-1.0, 1.0]])])
    residual = float(np.linalg.norm(van @ np.array([1.0, -2.0, -1.0, 1.0])))
    ok = residual <= 1e-14
    report(3, ok, f"annihilation residual {residual:.2e}")
    assert ok


@pytest.fixture(scope="module")
def oracle_instances():
    rng = np.random.default_rng(20240601)
    instances = []
    for _ in range(200):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(1, 5))
        nodes = random_nodeset(rng, b, d, separation=0.1)
        cond = float(np.linalg.cond(block_vandermonde(nodes)))
        instances.append((nodes, cond, rng.uniform(-0.5, 0.5 * d + 0.5, 20)))
    return instances


def test_criterion_04_fundamental_oracle_equivalence(oracle_instances):
    start = time.perf_counter()
    worst = 0.0
    for nodes, cond, lams in oracle_instances:
        d, b = nodes.d, nodes.b
        chains = solvent_chain(nodes)
        for k in range(d):
            chain = chain_view(chains, k)
            solved = fundamental_via_solve(nodes, k)
            for lam in lams:
                ref = eval_lambda(solved, float(lam))
                got = fundamental_via_chain(chains, float(lam))[k]
                rel = np.linalg.norm(got - ref, 2) / max(1.0, np.linalg.norm(ref, 2))
                worst = max(worst, rel / (1e-8 * cond))
            for j in range(d):
                target = np.eye(b) if j == k else np.zeros((b, b))
                for f_elem in (
                    eval_matrix(solved, nodes.bs[j]),
                    _chain_at_matrix(chain, nodes.bs[j], d, b),
                ):
                    err = np.linalg.norm(f_elem - target, 2)
                    worst = max(worst, err / (1e-8 * cond))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed <= 30.0
    report(4, ok, f"200 instances, worst tolerance fraction {worst:.3f}, {elapsed:.1f}s")
    assert elapsed <= 30.0
    assert worst <= 1.0


def _chain_at_matrix(chain, x, d, b):
    # expand the chain product into lambda-coefficients, then evaluate the
    # right-coefficient polynomial at the matrix argument
    coeffs = _chain_coefficients(chain, d, b)
    out = np.zeros((b, b))
    power = np.eye(b)
    for i, c in enumerate(coeffs):
        if i > 0:
            power = power @ x
        out = out + power @ c
    return out


def _chain_coefficients(chain, d, b):
    # expand prod_i (lam I - Bhat_i) * S^-1 into lambda-coefficients
    coeffs = [np.eye(b)]
    for i in range(d - 1, 0, -1):
        new = [np.zeros((b, b)) for _ in range(len(coeffs) + 1)]
        for deg, c in enumerate(coeffs):
            new[deg + 1] += c  # multiply by lam
            new[deg] -= c @ chain.b_hats[i]
        coeffs = new
    return [c @ chain.s_head_inv for c in coeffs]


def test_criterion_05_interpolation_identity(oracle_instances):
    start = time.perf_counter()
    rng = np.random.default_rng(20240602)
    worst = 0.0
    for nodes, cond, lams in oracle_instances:
        d, b = nodes.d, nodes.b
        if d < 2:
            continue
        phi = random_polynomial(rng, b, d - 1)
        chains = solvent_chain(nodes)
        values = [eval_matrix(phi, bmat) for bmat in nodes.bs]
        for lam in lams:
            expect = eval_lambda(phi, float(lam))
            got = np.zeros((b, b))
            for k in range(d):
                got += fundamental_via_chain(chains, float(lam))[k] @ values[k]
            rel = np.linalg.norm(got - expect, 2) / max(1.0, np.linalg.norm(expect, 2))
            worst = max(worst, rel / (1e-8 * cond))
    elapsed = time.perf_counter() - start
    ok = worst <= 1.0 and elapsed <= 30.0
    report(5, ok, f"worst tolerance fraction {worst:.3f}, {elapsed:.1f}s")
    assert elapsed <= 30.0
    assert worst <= 1.0


def test_criterion_06_structural_bound(tmp_path):
    tables, elapsed = run_command(tmp_path, "bound-verify")
    rows = tables["bound_reports.csv"]
    total = len(rows)
    held = sum(row["bound_holds"] == "1" for row in rows)
    route_misses = []
    for row in rows:
        t_k, t_v = float(row["tan_krylov"]), float(row["tan_vandermonde"])
        if math.isfinite(t_k) and math.isfinite(t_v) and float(row["cond_k"]) < 1e8:
            if abs(t_k - t_v) > 1e-6 * t_v:
                route_misses.append((row["b"], row["d"], row["trial"], t_k, t_v))
    ok = held == total == 120 and not route_misses and elapsed <= 120.0
    report(
        6,
        ok,
        f"bound held {held}/{total}, route mismatches {len(route_misses)}, {elapsed:.0f}s",
    )
    assert elapsed <= 120.0
    assert held == total == 120
    assert not route_misses, route_misses[:3]


def test_criterion_07_conjecture_slopes(tmp_path):
    # beta slopes near 0, alpha slopes near -(d - 1), both variants
    tables, elapsed = run_command(tmp_path, "cluster-robustness")
    failures = []
    lines = []
    for row in tables["cluster_slopes.csv"]:
        variant, sweep, d, slope = row["variant"], row["sweep"], int(row["d"]), float(row["slope"])
        if sweep == "beta":
            lines.append(f"{variant}/beta d={d}: slope {slope:+.3f}")
            missed = abs(slope) > 0.15
        else:
            lines.append(f"{variant}/alpha d={d}: slope {slope:+.3f} (target {-(d-1)})")
            missed = abs(slope + (d - 1)) > 0.35
        if missed:
            failures.append(lines[-1])
    ok = len(lines) == 14 and not failures and elapsed <= 1200.0
    report(7, ok, f"{'; '.join(lines)}; {elapsed:.0f}s")
    assert elapsed <= 1200.0
    assert len(lines) == 14 and not failures, failures


def test_criterion_08_norm_bound_and_sandwich(tmp_path):
    start = time.perf_counter()
    rng = np.random.default_rng(20240604)
    hull_violations = 0
    for _ in range(500):
        b = int(rng.integers(1, 5))
        lam0 = np.sort(rng.uniform(-1.0, 1.0, b))
        omega0 = rng.standard_normal((b, b))
        p = random_polynomial(rng, b, int(rng.integers(1, 5)))
        lhs, rhs = eigenhull_bound_pair(p, omega0, lam0)
        hull_violations += int(lhs > rhs * (1.0 + 1e-10))
    # 1000 trials, trial t at b = t mod 4 + 1
    tables, _ = run_command(tmp_path, "sandwich")
    rows = tables["sandwich.csv"]
    # the column holds a numpy bool, which the CSV spells True/False, not 1/0
    sandwich_held = sum(row["holds"] in ("1", "True") for row in rows)
    sandwich_ok = sandwich_held == len(rows) == 1000
    _, middle, _, anchor_holds = sandwich_d2(np.eye(3), -np.eye(3))
    anchor_ok = anchor_holds and abs(middle - 0.5) <= 1e-12
    elapsed = time.perf_counter() - start
    ok = hull_violations == 0 and sandwich_ok and anchor_ok and elapsed <= 30.0
    report(
        8,
        ok,
        f"hull bound 500/500, sandwich {sandwich_held}/{len(rows)}, "
        f"anchor middle {middle:.6f}, {elapsed:.1f}s",
    )
    assert elapsed <= 30.0
    assert hull_violations == 0 and sandwich_ok and anchor_ok


def test_criterion_09_scalar_reduction():
    start = time.perf_counter()
    rng = np.random.default_rng(20240605)
    worst_lagrange = 0.0
    for _ in range(50):
        d = int(rng.integers(2, 6))
        vals = np.sort(rng.uniform(0.0, 1.0, d))
        while np.min(np.diff(vals)) < 0.05:
            vals = np.sort(rng.uniform(0.0, 1.0, d))
        nodes = NodeSet(
            tuple(np.array([v]) for v in vals),
            tuple(rng.standard_normal((1, 1)) for _ in range(d)),
        )
        chains = solvent_chain(nodes)
        chi_mono, chi_coef = chi_quantities(nodes, chains, (float(vals[0]), float(vals[-1])))
        assert chi_mono == 1.0
        assert chi_coef <= 1.0 + 1e-12
        for k in range(d):
            solved = fundamental_via_solve(nodes, k)
            for lam in rng.uniform(-0.5, 1.5, 8):
                ref = lagrange_scalar(vals, k, float(lam))
                for got in (
                    fundamental_via_chain(chains, float(lam))[k, 0, 0],
                    eval_lambda(solved, float(lam))[0, 0],
                ):
                    worst_lagrange = max(
                        worst_lagrange, abs(got - ref) / max(1.0, abs(ref))
                    )
    elapsed = time.perf_counter() - start
    ok = worst_lagrange <= 1e-12 and elapsed <= 5.0
    report(9, ok, f"chi_mono = 1 exactly, worst Lagrange gap {worst_lagrange:.2e}, {elapsed:.1f}s")
    assert elapsed <= 5.0
    assert worst_lagrange <= 1e-12


def test_criterion_10_chebyshev_acceleration():
    start = time.perf_counter()
    rng = np.random.default_rng(20240606)
    fails = []
    for trial in range(100):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        spec = random_cluster_spec(rng, b, d, m=int(rng.integers(d + 6, 17)))
        omega = gaussian_matrix(spec.n, b, RngStream(555000 + trial))
        measured, reference, holds = chebyshev_accel_check(spec, omega, d + 5)
        if not holds:
            fails.append((trial, measured, reference))
    elapsed = time.perf_counter() - start
    ok = not fails and elapsed <= 60.0
    report(10, ok, f"held on {100 - len(fails)}/100 specs, {elapsed:.1f}s")
    assert elapsed <= 60.0
    assert not fails, fails[:3]


def test_criterion_11_multiplicity_obstruction():
    start = time.perf_counter()
    rng = np.random.default_rng(20240607)
    finite_hits = 0
    for trial in range(50):
        b = int(rng.integers(1, 4))
        d = int(rng.integers(2, 4))
        repeated = float(rng.uniform(1.0, 2.0))
        # multiplicity b+1 spread across the first two cluster blocks
        blocks = [np.full(b, repeated)]
        second = np.sort(rng.uniform(2.1, 2.4, b))
        second[0] = repeated
        blocks.append(np.sort(second))
        for k in range(2, d):
            blocks.append(np.sort(rng.uniform(2.5 + 0.4 * k, 2.8 + 0.4 * k, b)))
        n = 12 * b
        spec = ClusterSpec(
            n=n,
            b=b,
            d=d,
            lambda_blocks=tuple(blocks),
            lambda_perp=rng.uniform(-1.0, 0.0, n - b * d),
            cluster_min=0.9,
            cluster_max=2.8 + 0.4 * d,
        )
        omega = gaussian_matrix(n, b, RngStream(777000 + trial))
        for steps in (d, d + 1, d + 2):
            if not math.isinf(tan_angle_krylov(spec, omega, steps)):
                finite_hits += 1
    elapsed = time.perf_counter() - start
    ok = finite_hits == 0 and elapsed <= 10.0
    report(11, ok, f"infinity marker on all 50 trials x 3 depths, {elapsed:.1f}s")
    assert elapsed <= 10.0
    assert finite_hits == 0
