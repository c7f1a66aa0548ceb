"""The benchmark's workloads: one pinned ``rsbl`` command each.

A workload names the CLI command, the config keys it pins (everything else
keeps the command's defaults), the function it counts as one trial (looked
up under the module attribute the command's own code calls it through),
how one trial is judged failed, and how the CSVs the command wrote are
checked. This module imports neither numpy nor rsbl, so the parent process
stays light and the child can import it before ``rsbl``.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

# Criterion 6 of the acceptance suite: the Krylov and Vandermonde tangents
# must agree to this relative tolerance whenever both are finite and K is
# well conditioned.
ROUTE_RTOL = 1e-6
ROUTE_COND_LIMIT = 1e8


def _judge_table1(args, result, exc):
    # a run that raised (no convergence, breakdown) did not converge
    return exc is not None, args[0].matvec_count


# tan_angle_krylov returns inf when the cosine of the largest angle falls
# below its 1e-14 gate, i.e. the tangent exceeds 1e14. That saturation is
# expected where the predicted growth relgap^(1-d) is within six decades of
# 1e14 (the small-gap end of the alpha sweep); anywhere else it is a failure.
SATURATION_SCALE = 1e8


def tangent_ok(value: float, relgap: float, d: int) -> bool:
    if math.isinf(value):
        return relgap ** (1 - d) >= SATURATION_SCALE
    return value > 0.0  # false for NaN too


def _judge_tangent(args, result, exc):
    spec = args[0]
    return exc is not None or not tangent_ok(result, spec.relgap, spec.d), 0


def routes_agree(t_k: float, t_v: float, cond_k: float) -> bool:
    if math.isfinite(t_k) and math.isfinite(t_v) and cond_k < ROUTE_COND_LIMIT:
        return abs(t_k - t_v) <= ROUTE_RTOL * t_v
    return True


def _judge_bound(args, result, exc):
    if exc is not None:
        return True, 0
    ok = result.bound_holds and routes_agree(
        result.tan_angle_krylov, result.tan_angle_vandermonde, result.cond_k
    )
    return not ok, 0


def _rows(out_dir: str, name: str) -> list:
    with open(os.path.join(out_dir, name), encoding="utf-8", newline="") as fh:
        return list(csv.DictReader(fh))


def _list(text) -> list:
    return [t.strip() for t in str(text).split(",") if t.strip()]


def _check_table1(out_dir: str, w: "Workload") -> list:
    misses = []
    trials = _rows(out_dir, "table1_trials.csv")
    expected = len(_list(w.config["b_list"])) * len(_list(w.config["beta_list"])) * w.trials
    if len(trials) != expected:
        misses.append(f"table1_trials.csv has {len(trials)} rows, expected {expected}")
    for row in trials:
        if int(row["matvecs"]) <= 0:
            misses.append(f"not converged: {row['config']} b={row['b']} trial={row['trial']}")
    for row in _rows(out_dir, "table1_summary.csv"):
        if int(row["median_matvecs"]) <= 0:
            misses.append(f"no converged median: beta={row['beta']} b={row['b']}")
    return misses


# sweep points per experiment family: 4 depths x 12 radii, 3 depths x 10 gaps
_SWEEP_ROWS = {"beta": 48, "alpha": 30}


def _check_tangent(out_dir: str, w: "Workload") -> list:
    misses = []
    for sweep, expected in _SWEEP_ROWS.items():
        name = f"cluster_{w.config['variant']}_{sweep}.csv"
        rows = _rows(out_dir, name)
        if len(rows) != expected:
            misses.append(f"{name} has {len(rows)} rows, expected {expected}")
        for row in rows:
            values = [float(row[k]) for k in ("median", "q25", "q75")]
            if not all(tangent_ok(v, float(row["relgap"]), int(row["d"])) for v in values):
                misses.append(f"{name}: quantile not positive, or infinite where it may not "
                              f"saturate, at d={row['d']} abscissa={row['abscissa']}: {values}")
            if int(row["trials"]) != w.trials:
                misses.append(f"{name}: {row['trials']} trials, expected {w.trials}")
    return misses


def _check_bound(out_dir: str, w: "Workload") -> list:
    misses = []
    summary = {row["metric"]: float(row["value"]) for row in _rows(out_dir, "bound_summary.csv")}
    if summary.get("holds_rate") != 1.0:
        misses.append(f"holds_rate is {summary.get('holds_rate')}, expected 1")
    reports = _rows(out_dir, "bound_reports.csv")
    expected = len(_list(w.config["b_list"])) * len(_list(w.config["d_list"])) * w.trials
    if len(reports) != expected or summary.get("trials") != expected:
        misses.append(f"{len(reports)} reports, summary says {summary.get('trials')}, "
                      f"expected {expected}")
    for row in reports:
        where = f"b={row['b']} d={row['d']} trial={row['trial']}"
        if row["bound_holds"] != "1":
            misses.append(f"bound does not hold at {where}")
        t_k, t_v = float(row["tan_krylov"]), float(row["tan_vandermonde"])
        if not routes_agree(t_k, t_v, float(row["cond_k"])):
            misses.append(f"routes disagree at {where}: {t_k!r} vs {t_v!r}")
    return misses


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict
    trials: int
    trial_module: str
    trial_attr: str
    judge: object = field(repr=False)
    check: object = field(repr=False)

    def config_text(self) -> str:
        return "".join(f"{key} = {value}\n" for key, value in self.config.items())

    def argv(self, config_path: str, seed: int, out_dir: str) -> list:
        # trials go on the command line: a config-file value that equals the
        # class default (trials = 5) is overridden by the command's default
        return [self.command, "--config", config_path, "--seed", str(seed),
                "--trials", str(self.trials), "--out", out_dir]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="table1",
            command="table1",
            config={
                "n": 2000,
                "b_list": "1, 2, 4, 8, 16, 32",
                "beta_list": "1.0, 0.1, 0.01, 0.001",
            },
            trials=2,
            trial_module="rsbl.experiments",
            trial_attr="run_until_converged",
            judge=_judge_table1,
            check=_check_table1,
        ),
        Workload(
            name="tangent-sweep",
            command="cluster-robustness",
            config={"n": 1000, "cluster_dim": 60, "variant": "exterior"},
            trials=5,
            trial_module="rsbl.robustness",
            trial_attr="tan_angle_krylov",
            judge=_judge_tangent,
            check=_check_tangent,
        ),
        Workload(
            name="bound-verify",
            command="bound-verify",
            config={"b_list": "1, 2, 3", "d_list": "2, 3", "grid_size": 1000},
            trials=15,
            trial_module="rsbl.experiments",
            trial_attr="structural_bound_trial",
            judge=_judge_bound,
            check=_check_bound,
        ),
    )
}
