"""rsbl benchmark: pinned CLI workloads, end-to-end metrics or a traced per-layer run.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload table1 --seed 1 --seconds 30 --trace 0

Each round runs the workload's ``rsbl`` command once, in a fresh
subprocess, at the workload's pinned config with ``--seed`` passed through,
and checks the CSVs it wrote. Rounds repeat, with the same seed, until
``--seconds`` have passed and enough trials were timed for the p90.
``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs untraced /
traced round pairs instead and prints the per-layer metrics and the
tracing overhead. The last line of standard output is the JSON result.
See ``perfbench/README.md`` for the workloads and what each metric means.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from child import EXIT_NO_PROGRAM
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench_work"

# one BLAS thread per process: the rounds run one at a time, and a single
# thread keeps timings of these small kernels steadier on a shared host
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# every round compiles rsbl from source, so no round's set-up depends on
# bytecode an earlier round left behind
CHILD_ENV = {**BLAS_ENV, "PYTHONDONTWRITEBYTECODE": "1"}

# rounds alternate over the CPUs this process may use, each pinned to one:
# on a shared host the vCPUs slow down independently, in spells longer than
# a round, so alternating samples more of them and halves the run-to-run spread
CPUS = sorted(os.sched_getaffinity(0))
MIN_ROUNDS = 3
MIN_SAMPLES = 110  # at least ten trials above the p90
DEADLINE_S = 150.0  # stop starting rounds past this, so the run ends within 180 s

END_TO_END_UNITS = {
    "setup_s": "s",
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "peak_rss_mb": "MB",
}

# per-layer metric -> (source, key, unit); sources: span calls / busy ms /
# self ms, a counter, or a ratio of a counter to the calls of a span
PER_LAYER = {
    "lanczos.run_until_converged.calls": ("calls", "lanczos.run_until_converged", "count"),
    "lanczos.run_until_converged.self_ms": ("self_ms", "lanczos.run_until_converged", "ms"),
    "lanczos.block_steps": ("counter", "block_steps", "count"),
    "lanczos.ritz_checks": ("counter", "ritz_checks", "count"),
    "lanczos.reorth_flop": ("counter", "reorth_flop", "flop"),
    "lanczos.matvecs": ("counter", "matvecs", "count"),
    "lanczos.apply.ms": ("ms", "lanczos.apply", "ms"),
    "lanczos.breakdowns": ("counter", "breakdowns", "count"),
    "lanczos.converged_ratio": ("ratio", ("converged", "lanczos.run_until_converged"), "ratio"),
    "lanczos.block_lanczos.calls": ("calls", "lanczos.block_lanczos", "count"),
    "lanczos.block_lanczos.self_ms": ("self_ms", "lanczos.block_lanczos", "ms"),
    "linalg.qr_factor.calls": ("calls", "linalg.qr_factor", "count"),
    "linalg.qr_factor.ms": ("ms", "linalg.qr_factor", "ms"),
    "robustness.tan_angle_krylov.calls": ("calls", "robustness.tan_angle_krylov", "count"),
    "robustness.tan_angle_krylov.self_ms": ("self_ms", "robustness.tan_angle_krylov", "ms"),
    "robustness.saturated_tangents": ("counter", "saturated", "count"),
    "robustness.growth_Gd.self_ms": ("self_ms", "robustness.growth_Gd", "ms"),
    "matpoly.fundamental_via_chain.calls": ("calls", "matpoly.fundamental_via_chain", "count"),
    "matpoly.fundamental_via_chain.ms": ("ms", "matpoly.fundamental_via_chain", "ms"),
    "linalg.spectral_norm.calls": ("calls", "linalg.spectral_norm", "count"),
    "linalg.spectral_norm.ms": ("ms", "linalg.spectral_norm", "ms"),
    "matpoly.solvent_chain.calls": ("calls", "matpoly.solvent_chain", "count"),
    "matpoly.solvent_chain.self_ms": ("self_ms", "matpoly.solvent_chain", "ms"),
    "linalg.solve_linear.calls": ("calls", "linalg.solve_linear", "count"),
    "linalg.solve_linear.ms": ("ms", "linalg.solve_linear", "ms"),
    "matpoly.block_vandermonde.calls": ("calls", "matpoly.block_vandermonde", "count"),
    "matpoly.block_vandermonde.ms": ("ms", "matpoly.block_vandermonde", "ms"),
    "matpoly.chi_quantities.self_ms": ("self_ms", "matpoly.chi_quantities", "ms"),
    "robustness.tan_angle_vandermonde.self_ms": (
        "self_ms", "robustness.tan_angle_vandermonde", "ms"),
    "robustness.c_omega.ms": ("ms", "robustness.c_omega", "ms"),
    "robustness.structural_bound_trial.self_ms": (
        "self_ms", "robustness.structural_bound_trial", "ms"),
    "robustness.retries": ("counter", "retries", "count"),
    "robustness.first_draw_ratio": (
        "ratio", ("first_draws", "robustness.structural_bound_trial"), "ratio"),
    "linalg.gaussian_matrix.ms": ("ms", "linalg.gaussian_matrix", "ms"),
    "experiments.write_csv.ms": ("ms", "experiments.write_csv", "ms"),
    "experiments.csv_bytes": ("counter", "csv_bytes", "B"),
    "experiments.run.self_ms": ("self_ms", "experiments.run", "ms"),
}
OVERHEAD_METRIC = ("trace.overhead_pct", "%")
COUNT_SOURCES = ("calls", "counter")


class ProgramMissing(Exception):
    """The checkout holds no importable rsbl under src/."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(CHILD_ENV)
    env.pop("PYTHONPATH", None)
    return env


def machine_facts() -> dict:
    import numpy

    facts = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": "unknown",
        "llc": "unknown",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "child_env": CHILD_ENV,
        "round_cpus": CPUS,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        levels = [
            (int((idx / "level").read_text()), (idx / "size").read_text().strip())
            for idx in caches.glob("index*")
        ]
        facts["llc"] = max(levels)[1] if levels else "unknown"
    except (OSError, ValueError):
        pass
    deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    facts["blas"] = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    return facts


def run_round(workload, seed: int, trace: bool, work: Path, index: int, cpu: int,
              timeout: float) -> dict:
    """Run the command once in a fresh subprocess; return its result plus output facts."""
    tag = f"{index:03d}-{'traced' if trace else 'plain'}"
    out_dir = work / f"out-{tag}"
    config_path = work / f"config-{tag}.txt"
    config_path.write_text(workload.config_text(), encoding="utf-8")
    request = {
        "root": str(ROOT),
        "workload": workload.name,
        "argv": workload.argv(str(config_path), seed, str(out_dir)),
        "trace": trace,
        "result_path": str(work / f"result-{tag}.json"),
        "spans_path": str(work / f"spans-{tag}.bin"),
        "cpu": cpu,
    }
    request_path = work / f"request-{tag}.json"
    request_path.write_text(json.dumps(request), encoding="utf-8")
    log_path = work / f"log-{tag}.txt"
    with open(log_path, "wb") as log:
        spawn = time.monotonic_ns()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(request_path)],
            cwd=str(ROOT), env=child_env(), stdout=log, stderr=subprocess.STDOUT,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code == EXIT_NO_PROGRAM:
        raise ProgramMissing(log_path.read_text(errors="replace"))
    result_path = Path(request["result_path"])
    if code != 0 or not result_path.is_file():
        result = {"error": f"child exit {code}: {log_path.read_text(errors='replace')[-2000:]}",
                  "trials": [], "main_ns": 0, "first_trial_ns": None, "counters": {}}
    else:
        result = json.loads(result_path.read_text(encoding="utf-8"))
    result["spawn_ns"] = spawn
    result["seed"] = seed
    if result.get("error") is None and result.get("exit_code") != 0:
        result["error"] = f"rsbl exited with {result.get('exit_code')}"
    result["misses"] = []
    if result.get("error") is None or out_dir.is_dir():
        try:
            result["misses"] = workload.check(str(out_dir), workload)
        except (OSError, KeyError, ValueError) as exc:
            result["misses"] = [f"output check could not read the CSVs: {exc!r}"]
    result["digest"] = output_digest(out_dir)
    if trace and Path(request["spans_path"]).is_file():
        result["layers"] = span_totals(Path(request["spans_path"]), result["span_names"])
    return result


def output_digest(out_dir: Path) -> str:
    h = hashlib.sha256()
    if out_dir.is_dir():
        for path in sorted(out_dir.iterdir()):
            h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def span_totals(spans_path: Path, names: list) -> dict:
    """Per span name: calls, busy ms, and self ms (busy minus child spans)."""
    import numpy as np

    raw = np.fromfile(spans_path, dtype=np.int64)
    name_of, parent_of, start, end = raw.reshape(4, -1)
    dur = end - start
    has_parent = parent_of >= 0
    child_ns = np.zeros_like(dur)
    np.add.at(child_ns, parent_of[has_parent], dur[has_parent])
    self_ns = dur - child_ns
    totals = {}
    for nid, name in enumerate(names):
        sel = name_of == nid
        totals[name] = {
            "calls": int(sel.sum()),
            "ms": int(dur[sel].sum()) / 1e6,
            "self_ms": int(self_ns[sel].sum()) / 1e6,
            "min_self_ns": int(self_ns[sel].min()) if sel.any() else 0,
        }
    return totals


def round_failures(result: dict) -> tuple[int, int]:
    """(attempted, failed) of one round: judged trials plus every output-check miss."""
    trials = result["trials"]
    attempted = max(len(trials), 1)
    failed = sum(1 for _, bad, _ in trials if bad) + len(result["misses"])
    if result.get("error"):
        failed = attempted
    return attempted, min(failed, attempted)


def trials_per_s(result: dict) -> float:
    """Trials over the command's wall time (rsbl.cli.main, CSV writing included)."""
    return len(result["trials"]) / (result["main_ns"] / 1e9)


def percentile(values: list, q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def measure(workload, seed: int, seconds: float, work: Path, trace: bool,
            min_rounds: int = MIN_ROUNDS, min_samples: int = MIN_SAMPLES) -> list:
    """Repeat rounds (pairs of plain and traced rounds when tracing) until done."""
    begin = time.monotonic()
    rounds = []
    while True:
        # both rounds of a traced pair share a CPU, so the overhead compares like with like
        cpu = CPUS[len(rounds) // (2 if trace else 1) % len(CPUS)]
        left = DEADLINE_S + 25.0 - (time.monotonic() - begin)
        rounds.append(run_round(workload, seed, False, work, len(rounds), cpu, left))
        if trace:
            left = DEADLINE_S + 25.0 - (time.monotonic() - begin)
            rounds.append(run_round(workload, seed, True, work, len(rounds), cpu, left))
        if any(r.get("error") for r in rounds[-2:]):
            return rounds
        elapsed = time.monotonic() - begin
        plain = [r for r in rounds if "layers" not in r]
        samples = sum(len(r["trials"]) for r in plain)
        done = elapsed >= seconds and (
            trace or (len(plain) >= min_rounds and samples >= min_samples)
        )
        projected = elapsed * (len(rounds) + (2 if trace else 1)) / len(rounds)
        if done or projected > DEADLINE_S:
            return rounds


def consistency_misses(workload, rounds: list) -> list:
    """Every round of one seed must write byte-identical files and repeat its counts."""
    misses = []
    digests = {r["digest"] for r in rounds}
    if len(digests) != 1:
        misses.append(f"rounds of one seed wrote {len(digests)} different output sets")
    traced = [r for r in rounds if "layers" in r]
    counts = {json.dumps(exact_counts(r), sort_keys=True) for r in traced}
    if len(counts) > 1:
        misses.append("traced rounds of one seed disagree on exact counts")
    if workload.name == "table1":
        plain_mv = {sum(mv for _, _, mv in r["trials"]) for r in rounds if "layers" not in r}
        traced_mv = {r["counters"].get("matvecs", 0) for r in traced}
        if len(plain_mv) != 1 or (traced_mv and traced_mv != plain_mv):
            misses.append(f"matvecs differ between rounds: plain {sorted(plain_mv)}, "
                          f"traced {sorted(traced_mv)}")
    return misses


def exact_counts(result: dict) -> dict:
    metrics = layer_metrics(result)
    return {k: metrics[k] for k, (src, _, _) in PER_LAYER.items() if src in COUNT_SOURCES}


def layer_metrics(result: dict) -> dict:
    layers, counters = result["layers"], result["counters"]
    empty = {"calls": 0, "ms": 0.0, "self_ms": 0.0}
    out = {}
    for metric, (source, key, _) in PER_LAYER.items():
        if source == "counter":
            out[metric] = counters.get(key, 0)
        elif source == "ratio":
            hits, span = key
            calls = layers.get(span, empty)["calls"]
            # no attempts means nothing was wasted
            out[metric] = counters.get(hits, 0) / calls if calls else 1.0
        else:
            out[metric] = layers.get(key, empty)[source]
    return out


def end_to_end(plain: list) -> tuple[dict, dict]:
    durations = [ns / 1e6 for r in plain for ns, _, _ in r["trials"]]
    values = {
        "setup_s": statistics.median((r["first_trial_ns"] - r["spawn_ns"]) / 1e9 for r in plain),
        # pooled over the rounds: steadier than a median of per-round rates
        # when the host alternates between fast and slow spells
        "trials_per_s": sum(len(r["trials"]) for r in plain)
        / sum(r["main_ns"] / 1e9 for r in plain),
        "trial_ms_p50": percentile(durations, 0.5),
        "trial_ms_p90": percentile(durations, 0.9),
        "peak_rss_mb": statistics.median(r["maxrss_kb"] / 1024 for r in plain),
    }
    p90 = values["trial_ms_p90"]
    facts = {
        "rounds": len(plain),
        "trial_samples": len(durations),
        "samples_above_p90": sum(1 for d in durations if d > p90),
    }
    return values, facts


def traced_metrics(rounds: list) -> tuple[dict, dict]:
    traced = [r for r in rounds if "layers" in r]
    per_round = [layer_metrics(r) for r in traced]
    values = {}
    for metric, (source, _, _) in PER_LAYER.items():
        samples = [m[metric] for m in per_round]
        # counts repeat exactly across rounds; times are medians over rounds
        values[metric] = samples[0] if source in COUNT_SOURCES else statistics.median(samples)
    overheads = [
        100.0 * (trials_per_s(plain) - trials_per_s(tr)) / trials_per_s(plain)
        for plain, tr in zip(rounds[::2], rounds[1::2])
    ]
    values[OVERHEAD_METRIC[0]] = statistics.median(overheads)
    min_self = min(
        (span["min_self_ns"] for r in traced for span in r["layers"].values()), default=0
    )
    return values, {"pairs": len(traced), "min_self_ns": min_self}


def benchmark(workload, seed: int, seconds: float, trace: bool, **limits) -> tuple[dict, dict]:
    """Run one workload; return the result object and a report of what was run."""
    WORK_DIR.mkdir(exist_ok=True)
    work = WORK_DIR / f"{workload.name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        rounds = measure(workload, seed, seconds, work, trace, **limits)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()
    attempted = failed = 0
    for r in rounds:
        a, f = round_failures(r)
        attempted, failed = attempted + a, failed + f
    inconsistent = consistency_misses(workload, rounds)
    failed = min(attempted, failed + len(inconsistent))
    misses = [m for r in rounds for m in r["misses"]] + inconsistent
    misses += [r["error"] for r in rounds if r.get("error")]
    report = {
        "workload": workload.name,
        "seed": seed,
        "command": workload.command,
        "config_text": rounds[0].get("config_text", ""),
        "misses": misses[:20],
    }
    crashed = any(r.get("error") for r in rounds)
    if trace:
        values, facts = ({}, {}) if crashed else traced_metrics(rounds)
        units = {m: u for m, (_, _, u) in PER_LAYER.items()}
        units[OVERHEAD_METRIC[0]] = OVERHEAD_METRIC[1]
    else:
        values, facts = ({}, {}) if crashed else end_to_end(rounds)
        units = END_TO_END_UNITS
    report.update(facts)
    report["failed_share"] = failed / attempted
    result = {
        "correct": not misses and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": values[m], "unit": units[m]} for m in units if m in values},
    }
    return result, report


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "rsbl" / "__init__.py").is_file():
        sys.stderr.write(f"no rsbl package under {ROOT / 'src'}; nothing to benchmark\n")
        return 2
    workload = WORKLOADS[args.workload]
    try:
        result, report = benchmark(workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as exc:
        sys.stderr.write(f"cannot run rsbl from this checkout:\n{exc}\n")
        return 2
    report["machine"] = machine_facts()
    for name, metric in result["metrics"].items():
        print(f"{workload.name}  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"{workload.name}  failed_share = {report['failed_share']:.6g} "
          f"({result['failed']}/{result['attempted']})")
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
