"""The package surface the benchmark harness in ``perfbench/`` relies on.

The benchmark times each workload's trial at one module attribute. The
traced benchmark wraps each function it names by module attribute,
patches three methods to count matvecs, block steps and Ritz checks, and
counts breakdowns through ``rsbl.BreakdownError``; a rename or removal
there would break the benchmark (or silently zero its counters) without
failing any other test. One more test holds the README's table of config
keys to the fields of ``ExperimentConfig``.
"""
import dataclasses
import importlib
from pathlib import Path

import numpy as np
import pytest

import rsbl
import rsbl.cli
import rsbl.lanczos
import rsbl.robustness
from rsbl.config import ExperimentConfig, sample_stream
from rsbl.experiments import bound_verify_spec
from rsbl.linalg import gaussian_matrix

from helpers import import_perfbench


def test_span_functions_resolve():
    child = import_perfbench("child")
    for _, home, attr in child.SPAN_FUNCTIONS:
        assert callable(getattr(getattr(rsbl, home), attr)), f"rsbl.{home}.{attr}"


def test_counted_methods_drive_the_counters(monkeypatch):
    # the methods the benchmark patches must be the ones a convergence run calls
    lanczos = rsbl.lanczos
    calls = {}
    for cls, name in (
        (lanczos._Process, "advance"),
        (lanczos._Process, "ritz_values"),
        (lanczos.LinearOperator, "apply"),
    ):
        def counted(*args, _original=getattr(cls, name), _name=name, **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    op = lanczos.LinearOperator.from_diagonal(np.linspace(-1.0, 1.0, 20))
    omega = gaussian_matrix(20, 1, sample_stream(0, 0))
    count, _ = lanczos.run_until_converged(op, omega, [1.0])
    assert calls["advance"] == calls["apply"] == count
    assert calls["ritz_values"] >= 1


def test_process_exposes_sizes_to_the_step_hook(monkeypatch):
    # the traced benchmark's block-step hook reads n, b and steps off the
    # process after each advance to count lanczos.reorth_flop
    lanczos = rsbl.lanczos
    seen = []
    original = lanczos._Process.advance

    def hooked(self):
        original(self)
        seen.append((self.n, self.b, self.steps))

    monkeypatch.setattr(lanczos._Process, "advance", hooked)
    op = lanczos.LinearOperator.from_diagonal(np.linspace(-1.0, 1.0, 20))
    lanczos.block_lanczos(op, gaussian_matrix(20, 2, sample_stream(0, 0)), 3)
    assert seen == [(20, 2, 1), (20, 2, 2), (20, 2, 3)]


def test_breakdown_error_exported():
    assert issubclass(rsbl.BreakdownError, Exception)


def test_exported_exceptions_are_one_per_failure_kind():
    # bound-verify resamples a degenerate draw on SingularMatrixError alone,
    # so a Lanczos breakdown on the Krylov route must be one
    exported = {
        name for name, value in vars(rsbl).items()
        if isinstance(value, type) and issubclass(value, Exception)
    }
    assert exported == {"BreakdownError", "NoConvergenceError", "SingularMatrixError"}
    assert issubclass(rsbl.BreakdownError, rsbl.SingularMatrixError)


def test_readme_config_table_lists_every_key():
    # the README's table of config keys is the one part of it that must track the code
    readme = Path(__file__).resolve().parent.parent / "README.md"
    lines = readme.read_text(encoding="utf-8").splitlines()
    rows = lines[lines.index("| key | read by |") + 2:]
    keys = [row.split("|")[1].strip().strip("`") for row in rows[: rows.index("")]]
    assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]


# Per workload: config keys that shrink its pinned config, and the trials one
# run makes per --trials unit (table1 cells; cluster-robustness sweep points of
# one variant, 48 beta and 30 alpha; bound-verify (b, d) pairs).
TINY_WORKLOADS = {
    "table1": ({"n": 200, "b_list": "1, 2", "beta_list": "1.0"}, 2),
    "tangent-sweep": ({"n": 120}, 48 + 30),
    "bound-verify": ({"b_list": "1, 2", "d_list": "2", "grid_size": 50}, 2),
}


@pytest.mark.parametrize("name", sorted(TINY_WORKLOADS))
def test_workload_trial_is_called_once_per_trial(name, tmp_path, monkeypatch):
    # the benchmark times a trial by replacing trial_module.trial_attr, so the
    # command must call each trial through that attribute, exactly once
    keys, per_trial = TINY_WORKLOADS[name]
    w = import_perfbench("workloads").WORKLOADS[name]
    w = dataclasses.replace(w, config={**w.config, **keys})
    home = importlib.import_module(w.trial_module)
    original, calls = getattr(home, w.trial_attr), []

    def timed(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(home, w.trial_attr, timed)
    config = tmp_path / "workload.cfg"
    config.write_text(w.config_text())
    out = tmp_path / "out"
    assert rsbl.cli.main(w.argv(str(config), 1, str(out))) == 0
    assert len(calls) == per_trial * w.trials
    assert w.check(str(out), w) == []


def test_matpoly_spans_called_through_robustness(monkeypatch):
    # the tracer wraps these where robustness refers to them; one trial calls each once
    names = ("solvent_chain", "fundamental_via_chain", "chi_quantities", "block_vandermonde")
    calls = dict.fromkeys(names, 0)
    for attr in names:
        original = getattr(rsbl.matpoly, attr)
        assert getattr(rsbl.robustness, attr) is original

        def counted(*args, _original=original, _name=attr, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(rsbl.robustness, attr, counted)
    spec = bound_verify_spec(3, 3, sample_stream(7, 0))
    report = rsbl.robustness.structural_bound_trial(spec, seed=7, grid_size=100)
    assert report.retries == 0
    assert calls == dict.fromkeys(names, 1)


# The smallest command runs that together reach every span the traced benchmark wraps.
SPAN_RUNS = {
    "table1": "n = 100\nb_list = 1\nbeta_list = 1.0\ntrials = 1\n",
    "lowrank": "",
    "bound-verify": "b_list = 1, 2\nd_list = 2\ngrid_size = 50\ntrials = 1\n",
}


def test_commands_reach_every_span_function(tmp_path, monkeypatch):
    # a span that no command calls reads 0 in every traced run; count each
    # call where the tracer would, at every module attribute bound to it
    child = import_perfbench("child")
    modules = [getattr(rsbl, m) for m in child._MODULES]
    calls = {}
    for name, home, attr in child.SPAN_FUNCTIONS:
        original, calls[name] = getattr(getattr(rsbl, home), attr), 0

        def counted(*args, _original=original, _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in modules:
            if getattr(module, attr, None) is original:
                monkeypatch.setattr(module, attr, counted)
    for command, text in SPAN_RUNS.items():
        config = tmp_path / f"{command}.cfg"
        config.write_text(text)
        argv = [command, "--config", str(config), "--out", str(tmp_path / command)]
        assert rsbl.cli.main(argv) == 0
    assert [name for name, count in calls.items() if count == 0] == []
