"""Run one rsbl command in this process, with the benchmark's hooks around it.

Usage: ``python3 child.py REQUEST.json`` (the runner in ``run.py`` writes
the request and reads the result file it names). The request gives the
checkout root, the workload, the CLI arguments and whether to trace.

Every run times each trial at the workload's trial-level call. A traced
run also wraps each public function the per-layer metrics name, under
every rsbl module attribute that refers to it, so each caller's own
lookup goes through the wrapper. Spans stay in memory as flat integer
arrays (name, parent, start ns, end ns) and are written out after the
command returns; the runner derives busy and self times from them.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import resource
import sys
import time
import traceback
from array import array

from workloads import WORKLOADS

# exit code for "the program under test could not be imported from the checkout"
EXIT_NO_PROGRAM = 3

_MODULES = ("linalg", "lanczos", "matpoly", "robustness", "experiments", "config", "cli")

# (span name, defining module, function name); wrapped wherever rsbl refers to it
SPAN_FUNCTIONS = (
    ("lanczos.run_until_converged", "lanczos", "run_until_converged"),
    ("lanczos.block_lanczos", "lanczos", "block_lanczos"),
    ("linalg.qr_factor", "linalg", "qr_factor"),
    ("linalg.gaussian_matrix", "linalg", "gaussian_matrix"),
    ("linalg.spectral_norm", "linalg", "spectral_norm"),
    ("linalg.solve_linear", "linalg", "solve_linear"),
    ("matpoly.fundamental_via_chain", "matpoly", "fundamental_via_chain"),
    ("matpoly.solvent_chain", "matpoly", "solvent_chain"),
    ("matpoly.block_vandermonde", "matpoly", "block_vandermonde"),
    ("matpoly.chi_quantities", "matpoly", "chi_quantities"),
    ("robustness.tan_angle_krylov", "robustness", "tan_angle_krylov"),
    ("robustness.tan_angle_vandermonde", "robustness", "tan_angle_vandermonde"),
    ("robustness.c_omega", "robustness", "c_omega"),
    ("robustness.growth_Gd", "robustness", "growth_Gd"),
    ("robustness.structural_bound_trial", "robustness", "structural_bound_trial"),
    ("experiments.write_csv", "experiments", "write_csv"),
)


class Tracer:
    """In-memory span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names: list = []
        self.name_of = array("q")
        self.parent_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list = []
        self.counters: dict = {}

    def add(self, counter: str, amount=1):
        self.counters[counter] = self.counters.get(counter, 0) + amount

    def span(self, name: str, fn, on_return=None, on_error=None):
        """Wrap ``fn`` so every call records one span, then the optional counters."""
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_of.append(nid)
            self.parent_of.append(self.stack[-1] if self.stack else -1)
            self.end.append(0)
            self.stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.end[idx] = clock()
                self.stack.pop()
                if on_error is not None:
                    on_error(args, exc)
                raise
            self.end[idx] = clock()
            self.stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return wrapper

    def count(self, fn, on_return):
        """Wrap ``fn`` so each successful call updates counters, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            on_return(args, result)
            return result

        return wrapper

    def write(self, path: str):
        with open(path, "wb") as fh:
            for column in (self.name_of, self.parent_of, self.start, self.end):
                column.tofile(fh)


def install_tracer(rsbl, command: str) -> Tracer:
    tracer = Tracer()
    modules = [getattr(rsbl, m) for m in _MODULES]
    hooks = {
        "lanczos.run_until_converged": dict(
            on_return=lambda a, r: tracer.add("converged"),
            on_error=lambda a, e: tracer.add("breakdowns", isinstance(e, rsbl.BreakdownError)),
        ),
        "lanczos.block_lanczos": dict(
            on_error=lambda a, e: tracer.add("breakdowns", isinstance(e, rsbl.BreakdownError)),
        ),
        "robustness.structural_bound_trial": dict(
            on_return=lambda a, r: (tracer.add("retries", r.retries),
                                    tracer.add("first_draws", r.retries == 0)),
        ),
        "robustness.tan_angle_krylov": dict(
            on_return=lambda a, r: tracer.add("saturated", math.isinf(r)),
        ),
        "experiments.write_csv": dict(
            on_return=lambda a, r: tracer.add("csv_bytes", os.path.getsize(a[0])),
        ),
    }
    for name, home, attr in SPAN_FUNCTIONS:
        original = getattr(getattr(rsbl, home), attr)
        wrapper = tracer.span(name, original, **hooks.get(name, {}))
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, wrapper)

    ops = rsbl.lanczos.LinearOperator
    ops.apply = tracer.span(
        "lanczos.apply", ops.apply, on_return=lambda a, r: tracer.add("matvecs", a[1].shape[1])
    )

    proc = rsbl.lanczos._Process

    def step_done(args, result):
        # two classical Gram-Schmidt passes of an n x b block against the
        # (steps * b)-column basis, 4 n k b flops each (computed, not measured)
        self = args[0]
        tracer.add("block_steps")
        tracer.add("reorth_flop", 8 * self.n * self.b * self.steps * self.b)

    proc.advance = tracer.count(proc.advance, step_done)
    proc.ritz_values = tracer.count(proc.ritz_values, lambda a, r: tracer.add("ritz_checks"))

    commands = rsbl.cli._COMMANDS
    commands[command] = tracer.span("experiments.run", commands[command])
    return tracer


class TrialTimer:
    """Times each call of the workload's trial function and judges it."""

    def __init__(self, judge):
        self.judge = judge
        self.first_start = None
        self.records: list = []  # [duration ns, failed, matvecs]

    def wrap(self, fn):
        clock = time.monotonic_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            if self.first_start is None:
                self.first_start = start
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.records.append([clock() - start, *self.judge(args, None, exc)])
                raise
            self.records.append([clock() - start, *self.judge(args, result, None)])
            return result

        return wrapper


def main(request_path: str) -> int:
    with open(request_path, encoding="utf-8") as fh:
        req = json.load(fh)
    os.sched_setaffinity(0, {req["cpu"]})
    src = os.path.join(req["root"], "src")
    sys.path.insert(0, src)
    try:
        import rsbl
        import rsbl.cli
    except ImportError as exc:
        sys.stderr.write(f"cannot import rsbl from {src}: {exc}\n")
        return EXIT_NO_PROGRAM
    if os.path.dirname(os.path.abspath(rsbl.__file__)) != os.path.join(src, "rsbl"):
        sys.stderr.write(f"rsbl was imported from {rsbl.__file__}, not from {src}\n")
        return EXIT_NO_PROGRAM

    workload = WORKLOADS[req["workload"]]
    tracer = install_tracer(rsbl, workload.command) if req["trace"] else None
    timer = TrialTimer(workload.judge)
    trial_home = importlib.import_module(workload.trial_module)
    setattr(trial_home, workload.trial_attr, timer.wrap(getattr(trial_home, workload.trial_attr)))

    config_text = []
    resolve = rsbl.cli.resolve_config

    def capture_config(args):
        config = resolve(args)
        config_text.append(config.canonical_key())
        return config

    rsbl.cli.resolve_config = capture_config

    error = None
    start = time.monotonic_ns()
    try:
        code = rsbl.cli.main(req["argv"])
    except Exception:
        # the command crashed: report it as a failed round, not a lost one
        error = traceback.format_exc()
        sys.stderr.write(error)
        code = None
    main_ns = time.monotonic_ns() - start
    if tracer is not None:
        tracer.write(req["spans_path"])
    result = {
        "exit_code": code,
        "error": error,
        "main_ns": main_ns,
        "first_trial_ns": timer.first_start,
        "trials": timer.records,
        "config_text": config_text[0] if config_text else "",
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "span_names": tracer.names if tracer else [],
        "counters": tracer.counters if tracer else {},
    }
    with open(req["result_path"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1]))
