"""Experiment drivers: seeded runs, CSV emission, and summary statistics.

Every runner is deterministic given its configuration: per-trial sample
streams are derived from the canonical configuration key, and rows come in
a fixed order. Runners return their files as data and never touch the file
system; :func:`write_outputs` writes them, floats as shortest round-trip
decimals, so reruns produce byte-identical files.
"""
from __future__ import annotations

import math
import os
from dataclasses import astuple, dataclass, field, fields

import numpy as np

from .config import ExperimentConfig, derive_stream_id, sample_stream
from .lanczos import BreakdownError, LinearOperator, NoConvergenceError, run_until_converged
from .linalg import gaussian_matrix
from .robustness import (
    ClusterSpec,
    ExperimentFamily,
    conjecture_experiment,
    lowrank_check,
    probe_solvent_difference,
    quantile,
    sandwich_d2,
    structural_bound_trial,
)


def format_number(value) -> str:
    """Shortest round-trip decimal for floats, plain digits for ints."""
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_number(v) for v in row) + "\n")


def fit_loglog(xs, ys) -> tuple[float, float, float]:
    """Least-squares slope of ``log2(y)`` against ``log2(x)``.

    From four points on, the smallest and largest abscissa are dropped so
    saturated endpoints (machine precision, overflow of the measured
    quantity) do not skew the fit. Returns (slope, intercept, r_squared).
    """
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size >= 4:
        keep = (xs > xs.min()) & (xs < xs.max())
        xs, ys = xs[keep], ys[keep]
    finite = np.isfinite(ys) & (ys > 0)
    lx, ly = np.log2(xs[finite]), np.log2(ys[finite])
    if lx.size < 2:
        return math.nan, math.nan, math.nan
    design = np.column_stack([lx, np.ones_like(lx)])
    (slope, intercept), *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ np.array([slope, intercept])
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r2


@dataclass
class RunResult:
    """Outcome of one experiment command: its files as data, console text, failures.

    ``outputs`` lists each file in write order, as ``(name, header, rows)``
    for a CSV or ``(name, text)`` for any other file.
    """

    outputs: list = field(default_factory=list)
    console: str = ""
    failures: list = field(default_factory=list)

    @property
    def files(self) -> list:
        return [entry[0] for entry in self.outputs]

    @property
    def ok(self) -> bool:
        return not self.failures


def write_outputs(out_dir: str, result: RunResult) -> None:
    """Create ``out_dir`` and write every entry of ``result.outputs`` there, in order."""
    os.makedirs(out_dir, exist_ok=True)
    for name, *body in result.outputs:
        path = os.path.join(out_dir, name)
        if len(body) == 2:
            write_csv(path, *body)
        else:
            with open(path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(body[0])


def _table1_targets(beta: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    lam = np.linspace(1.0, 1.0 + beta, 32)
    lam_perp = np.linspace(-1.0, 0.0, n - 32)
    return lam, np.concatenate([lam, lam_perp])


# Draws of one table1 trial before it records -1: the first and three redraws
# after a breakdown, which a Gaussian start meets with probability zero.
TABLE1_DRAWS = 4
# Stream-id stride between table1 trials; above TABLE1_DRAWS, so no two trials share an id.
TABLE1_STREAM_STRIDE = 101


def _matvecs_for_cell(config: ExperimentConfig, beta: float, b: int) -> list:
    lam, diag = _table1_targets(beta, config.n)
    key = config.canonical_key("table1", f"beta={beta!r}", f"b={b}")
    counts = []
    for trial in range(config.trials):
        count = -1
        for retry in range(TABLE1_DRAWS):
            stream_id = derive_stream_id(key, trial * TABLE1_STREAM_STRIDE + retry)
            omega = gaussian_matrix(config.n, b, sample_stream(config.seed, stream_id))
            try:
                count, _ = run_until_converged(
                    LinearOperator.from_diagonal(diag),
                    omega,
                    lam,
                    tol=config.tol,
                    max_matvecs=1024 * b,
                )
                break
            except BreakdownError:
                continue
            except NoConvergenceError:
                break
        counts.append(count)
    return counts


def run_table1(config: ExperimentConfig) -> RunResult:
    """Matvec counts for convergence of the 32-eigenvalue cluster experiment."""
    if config.n < 32:
        raise ValueError(f"n must be >= 32 for table1's 32-eigenvalue cluster, got {config.n}")
    for i, b in enumerate(config.b_list):
        # run_until_converged's budget, whole blocks of b within n, must hold the 32 targets
        if b * (config.n // b) < 32:
            raise ValueError(
                f"b_list[{i}] must have b * (n // b) >= 32 at n = {config.n}, got {b}"
            )
    result = RunResult()
    rows = []
    medians: dict = {}
    for beta in config.beta_list:
        for b in config.b_list:
            counts = _matvecs_for_cell(config, beta, b)
            for trial, count in enumerate(counts):
                rows.append((f"beta={format_number(beta)}", b, trial, count))
            good = sorted(c for c in counts if c > 0)
            if len(good) != len(counts):
                result.failures.append(
                    {"check": "table1-convergence", "beta": beta, "b": b}
                )
            medians[(beta, b)] = good[len(good) // 2] if good else -1
    result.outputs.append(("table1_trials.csv", ("config", "b", "trial", "matvecs"), rows))
    summary_rows = []
    lines = ["block size b".ljust(14) + "".join(str(b).rjust(12) for b in config.b_list)]
    for beta in config.beta_list:
        base = medians[(beta, config.b_list[0])]
        cells = []
        for b in config.b_list:
            med = medians[(beta, b)]
            overhead = 100.0 * (med - base) / base if base > 0 and med > 0 else math.nan
            summary_rows.append((beta, b, med, overhead))
            cells.append(f"{med}" if b == config.b_list[0] else f"{med} ({overhead:.0f}%)")
        lines.append(f"beta={format_number(beta)}".ljust(14) + "".join(c.rjust(12) for c in cells))
    result.outputs.append(
        ("table1_summary.csv", ("beta", "b", "median_matvecs", "overhead_pct"), summary_rows)
    )
    result.console = "\n".join(lines)
    return result


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot cluster-robustness quantile curves from the emitted CSV files.\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

for path in sys.argv[1:]:
    series = {}
    with open(path) as fh:
        for row in csv.DictReader(fh):
            series.setdefault(int(row["d"]), []).append(
                (float(row["abscissa"]), float(row["median"]),
                 float(row["q25"]), float(row["q75"])))
    fig, ax = plt.subplots()
    for d, pts in sorted(series.items()):
        pts.sort()
        xs, med, lo, hi = zip(*pts)
        ax.loglog(xs, med, marker="o", label=f"d={d}")
        ax.fill_between(xs, lo, hi, alpha=0.25)
    ax.set_xlabel("sweep value")
    ax.set_ylabel("tan(angle)")
    ax.legend()
    fig.savefig(path.replace(".csv", ".png"), dpi=150)
"""


def run_cluster_robustness(config: ExperimentConfig) -> RunResult:
    """Quantile sweeps of the measured angle over both sweep designs."""
    result = RunResult()
    trials = config.trials
    variants = ("exterior", "interior") if config.variant == "both" else (config.variant,)
    # built before any trial, so a config no family accepts runs none
    families = [
        ExperimentFamily(sweep=sweep, variant=variant, n=config.n, cluster_dim=config.cluster_dim)
        for variant in variants
        for sweep in ("beta", "alpha")
    ]
    slope_rows = []
    for family in families:
        variant, sweep = family.variant, family.sweep
        summaries = conjecture_experiment(family, trials, config.seed)
        result.outputs.append((
            f"cluster_{variant}_{sweep}.csv",
            ("d", "abscissa", "relgap", "median", "q25", "q75", "trials"),
            [astuple(s) for s in summaries],
        ))
        for d in family.d_values:
            pts = [s for s in summaries if s.d == d]
            xs = [s.sweep_value if sweep == "beta" else s.relgap for s in pts]
            slope, intercept, r2 = fit_loglog(xs, [s.median for s in pts])
            slope_rows.append((variant, sweep, d, slope, intercept, r2))
    result.outputs += [
        ("cluster_slopes.csv", ("variant", "sweep", "d", "slope", "intercept", "r2"), slope_rows),
        ("plot_cluster_robustness.py", _PLOT_SCRIPT),
    ]
    result.console = "\n".join(
        f"{v}/{s} d={d}: slope {sl:+.3f} (r2 {r2:.3f})" for v, s, d, sl, _, r2 in slope_rows
    )
    return result


# Operator dimension per unit of block size in a bound-verify trial.
BOUND_VERIFY_N_PER_BLOCK = 24


def bound_verify_spec(b: int, d: int, trial_rng: np.random.Generator) -> ClusterSpec:
    """Random well-separated spec for structural-bound trials.

    Cluster block k draws its eigenvalues in ``[1 + 0.3k, 1.15 + 0.3k]``,
    keeping a guaranteed inter-block gap; the out-of-cluster spectrum is
    uniform in [-1, 0].
    """
    n = BOUND_VERIFY_N_PER_BLOCK * b
    blocks = tuple(
        np.sort(trial_rng.uniform(1.0 + 0.3 * k, 1.15 + 0.3 * k, b)) for k in range(d)
    )
    perp = trial_rng.uniform(-1.0, 0.0, n - b * d)
    return ClusterSpec(
        n=n,
        b=b,
        d=d,
        lambda_blocks=blocks,
        lambda_perp=perp,
        cluster_min=1.0,
        cluster_max=1.15 + 0.3 * (d - 1),
    )


def run_bound_verify(config: ExperimentConfig) -> RunResult:
    """Monte Carlo verification of the structural bound; holds rate must be 100%."""
    result = RunResult()
    rows = []
    slack = []
    for b in config.b_list:
        for d in config.d_list:
            key = config.canonical_key("bound-verify", f"b={b}", f"d={d}")
            for trial in range(config.trials):
                spec_rng = sample_stream(config.seed, derive_stream_id(key, trial))
                spec = bound_verify_spec(b, d, spec_rng)
                report = structural_bound_trial(
                    spec,
                    config.seed,
                    base_stream=derive_stream_id(key + "|omega", trial),
                    grid_size=config.grid_size,
                )
                if report.tan_angle_vandermonde > 0:
                    slack.append(report.bound / report.tan_angle_vandermonde)
                rows.append((b, d, trial, *astuple(report)))
                if not report.bound_holds:
                    result.failures.append(
                        {"check": "bound-holds", "b": b, "d": d, "trial": trial}
                    )
    header = ("b", "d", "trial", "tan_krylov", "tan_vandermonde", "c_omega", "chi_mono",
              "chi_coef", "g_d", "bound", "bound_holds", "cond_k", "retries")
    result.outputs.append(("bound_reports.csv", header, rows))
    holds = len(rows) - len(result.failures)
    rate = holds / len(rows)
    # np.median would import numpy.ma on first use, a cost paid by every run
    slack = np.sort(slack)
    summary = [
        ("trials", len(rows)),
        ("holds_rate", rate),
        ("median_slackness",
         quantile(slack, 0.5) if slack.size and not np.isnan(slack).any() else math.nan),
    ]
    result.outputs.append(("bound_summary.csv", ("metric", "value"), summary))
    result.console = f"structural bound held in {holds}/{len(rows)} trials (rate {rate:.4f})"
    return result


def run_probe(config: ExperimentConfig) -> RunResult:
    """Distribution probe of the smallest singular value of a solvent difference."""
    result = RunResult()
    lam_i = np.arange(1.0, 1.0 + config.b_list[0])
    lam_j = np.arange(1.0, 1.0 + config.b_list[0]) + config.b_list[0] + 1.0
    quantiles = probe_solvent_difference(
        lam_i, lam_j, config.trials, config.seed, config.canonical_key("probe")
    )
    rows = sorted(quantiles.items())
    result.outputs.append(("probe_quantiles.csv", ("quantile", "value"), rows))
    result.console = "\n".join(f"q{q}: {v}" for q, v in rows)
    return result


def run_sandwich(config: ExperimentConfig) -> RunResult:
    """Monte Carlo check of the two-sided block-matrix inverse bound."""
    result = RunResult()
    rows = []
    key = config.canonical_key("sandwich")
    for trial in range(config.trials):
        rng = sample_stream(config.seed, derive_stream_id(key, trial))
        b = config.b_list[trial % len(config.b_list)]
        b1 = gaussian_matrix(b, b, rng)
        b2 = gaussian_matrix(b, b, rng)
        lower, middle, upper, ok = sandwich_d2(b1, b2)
        rows.append((trial, b, lower, middle, upper, ok))
        if not ok:
            result.failures.append({"check": "sandwich", "trial": trial})
    result.outputs.append(
        ("sandwich.csv", ("trial", "b", "lower", "middle", "upper", "holds"), rows)
    )
    holds = len(rows) - len(result.failures)
    result.console = f"sandwich bound held in {holds}/{len(rows)} trials"
    return result


def run_lowrank(config: ExperimentConfig) -> RunResult:
    """Observational low-rank approximation report on a synthetic matrix."""
    if config.nrows < config.n:
        raise ValueError(f"nrows must be >= n = {config.n} for lowrank, got {config.nrows}")
    result = RunResult()
    rng = sample_stream(config.seed, derive_stream_id(config.canonical_key("lowrank"), 0))
    sigma = np.linspace(10.0, 1.0, config.n)
    q_left, _ = np.linalg.qr(rng.standard_normal((config.nrows, config.n)))
    q_right, _ = np.linalg.qr(rng.standard_normal((config.n, config.n)))
    a_hat = (q_left * sigma) @ q_right.T
    b, d = config.b_list[0], config.d_list[0]
    report = lowrank_check(a_hat, b, d, config.ell, config.eps, rng)
    rows = [(f.name, getattr(report, f.name)) for f in fields(report)]
    result.outputs.append(("lowrank.csv", ("metric", "value"), rows))
    result.console = "\n".join(f"{k}: {format_number(v)}" for k, v in rows)
    return result
