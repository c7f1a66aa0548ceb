import dataclasses
import importlib
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsbl.cli
import rsbl.experiments
import rsbl.robustness
from helpers import import_perfbench, record_stream_ids
from rsbl.cli import build_parser, main, resolve_config
from rsbl.config import ExperimentConfig, derive_stream_id, sample_stream
from rsbl.experiments import (
    RunResult,
    _matvecs_for_cell,
    fit_loglog,
    format_number,
    run_bound_verify,
    run_probe,
    run_sandwich,
    run_table1,
    write_csv,
    write_outputs,
)
from rsbl.lanczos import BreakdownError, NoConvergenceError
from rsbl.linalg import gaussian_matrix

# one small run of each command: the config keys that shrink its defaults
SMALL_CONFIGS = {
    "table1": dict(n=200, b_list=(1, 2), beta_list=(1.0,), trials=1),
    "cluster-robustness": dict(n=300, trials=2),
    "bound-verify": dict(trials=2),
    "probe": dict(trials=25),
    "sandwich": dict(trials=20),
    "lowrank": {},
}


def _small_config(command: str) -> ExperimentConfig:
    values = {**rsbl.cli._DEFAULTS[command], **SMALL_CONFIGS[command]}
    return ExperimentConfig(**values)


def _small_argv(command: str, config_dir, out_dir) -> list:
    def text(value):
        return ", ".join(map(str, value)) if isinstance(value, tuple) else str(value)

    path = config_dir / f"{command}.cfg"
    path.write_text("".join(f"{k} = {text(v)}\n" for k, v in SMALL_CONFIGS[command].items()))
    return [command, "--config", str(path), "--seed", "3", "--out", str(out_dir)]


def test_config_round_trip():
    config = ExperimentConfig(
        n=500,
        b_list=(1, 2),
        beta_list=(1.0, 0.125),
        trials=3,
        seed=99,
    )
    text = config.to_text()
    assert ExperimentConfig.from_text(text) == config
    assert ExperimentConfig.from_text(text).to_text() == text


def test_config_parses_comments_and_blanks():
    text = "# comment line\n\nn = 300   # trailing comment\ntrials = 7\n"
    config = ExperimentConfig.from_text(text)
    assert config.n == 300
    assert config.trials == 7


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError):
        ExperimentConfig.from_text("bogus = 1\n")


def test_config_validates_counts():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)


@pytest.mark.parametrize("tol", [math.nan, -1.0, 0.0, math.inf])
def test_config_rejects_tol_not_finite_positive(tol):
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        ExperimentConfig(tol=tol)


@pytest.mark.parametrize("eps", [math.nan, -0.5, math.inf])
def test_config_rejects_eps_not_finite_nonnegative(eps):
    with pytest.raises(ValueError, match="eps must be finite and nonnegative"):
        ExperimentConfig(eps=eps)
    assert ExperimentConfig(eps=0.0).eps == 0.0


@pytest.mark.parametrize("key", ["cluster_dim", "ell"])
def test_config_rejects_cluster_dim_and_ell_below_one(key):
    with pytest.raises(ValueError, match=f"^{key} must be >= 1, got 0$"):
        ExperimentConfig(**{key: 0})
    assert getattr(ExperimentConfig(**{key: 1}), key) == 1


def config_error(argv, capsys) -> str:
    """The one stderr line of a ``main`` run that must exit 2 on its config."""
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and captured.err.startswith("rsbl: error: ")
    return captured.err


def test_config_validation_reaches_config_files(tmp_path, capsys):
    path = tmp_path / "nan.cfg"
    path.write_text("tol = nan\n")
    err = config_error(["table1", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert err == "rsbl: error: tol must be finite and positive, got nan\n"


def test_config_rejects_negative_seed(tmp_path, capsys):
    with pytest.raises(ValueError, match="^seed must be >= 0, got -1$"):
        ExperimentConfig(seed=-1)
    assert ExperimentConfig(seed=0).seed == 0
    argv = ["sandwich", "--seed", "-1", "--trials", "2", "--out", str(tmp_path)]
    assert config_error(argv, capsys) == "rsbl: error: seed must be >= 0, got -1\n"


@pytest.mark.parametrize("key", ["b_list", "d_list", "beta_list"])
def test_config_rejects_empty_lists(tmp_path, capsys, key):
    with pytest.raises(ValueError, match=f"^{key} must not be empty$"):
        ExperimentConfig(**{key: ()})
    path = tmp_path / "empty.cfg"
    path.write_text(f"{key} =\n")
    err = config_error(["bound-verify", "--config", str(path), "--out", str(tmp_path)], capsys)
    assert err == f"rsbl: error: {key} must not be empty\n"
    assert not any(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "flags, config_text, message",
    [
        (["--trials", "0"], None, "trials must be >= 1, got 0"),
        (["--config", "bad.cfg"], "bogus = 1\n", "unknown configuration key 'bogus'"),
        (["--config", "missing.cfg"], None, "No such file or directory: 'missing.cfg'"),
        (["--config", "bad.cfg"], "n = abc\n", "n must be an int, got 'abc'"),
        (["--config", "bad.cfg"], "b_list = 1.5\n", "b_list[0] must be an int, got '1.5'"),
        (["--config", "bad.cfg"], "out_dir = x\n", "unknown configuration key 'out_dir'"),
        (["--config", "bad.cfg"], "alpha_list = 0.5\n", "unknown configuration key 'alpha_list'"),
        (["--config", "bad.cfg"], "experiment = table1\n",
         "unknown configuration key 'experiment'"),
        # a stray comma more likely marks a missing value than nothing
        (["--config", "bad.cfg"], "b_list = 1,,2\n", "b_list[1] is empty, got '1,,2'"),
        (["--config", "bad.cfg"], "b_list = 1, 2,\n", "b_list[2] is empty, got '1, 2,'"),
    ],
)
def test_cli_config_errors_exit_2_before_writing(tmp_path, monkeypatch, capsys, flags,
                                                 config_text, message):
    # exit 1 is a failed hard check; a config that cannot be built is exit 2
    monkeypatch.chdir(tmp_path)
    if config_text is not None:
        (tmp_path / "bad.cfg").write_text(config_text)
    err = config_error(["sandwich", *flags, "--out", "out"], capsys)
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, config_text, message",
    [
        ("table1", "n = 20\n", "n must be >= 32 for table1's 32-eigenvalue cluster, got 20"),
        ("table1", "n = 40\nb_list = 64\n",
         "b_list[0] must have b * (n // b) >= 32 at n = 40, got 64"),
        # rejected before the b = 1 cells run
        ("table1", "n = 40\nb_list = 1, 25\n",
         "b_list[1] must have b * (n // b) >= 32 at n = 40, got 25"),
        ("cluster-robustness", "n = 100\ncluster_dim = 7\n",
         "cluster_dim must be divisible by d = 2, 3, 4, 5, got 7"),
        ("cluster-robustness", "n = 50\n", "n must be >= cluster_dim = 60, got 50"),
        ("lowrank", "nrows = 5\n", "nrows must be >= n = 20 for lowrank, got 5"),
    ],
)
def test_cli_runner_config_errors_exit_2_before_writing(tmp_path, monkeypatch, capsys, command,
                                                        config_text, message):
    # a config that builds but that the command's runner rejects is a config error too
    monkeypatch.chdir(tmp_path)
    (tmp_path / "bad.cfg").write_text(config_text)
    err = config_error([command, "--config", "bad.cfg", "--out", "out"], capsys)
    assert err == f"rsbl: error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, text",
    [("probe", "b_list = 2, 3\n"), ("lowrank", "b_list = 2, 3\n"), ("lowrank", "d_list = 2, 3\n")],
)
def test_cli_rejects_a_list_the_command_reads_one_entry_of(tmp_path, monkeypatch, capsys,
                                                           command, text):
    # probe and lowrank read one entry of these lists; more must not be dropped unseen
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.cfg").write_text(text)
    err = config_error([command, "--config", "list.cfg", "--out", "out"], capsys)
    key = text.split(" = ")[0]
    assert err == f"rsbl: error: {key} must have one entry for {command}, got '2, 3'\n"
    assert not (tmp_path / "out").exists()


def test_cli_lowrank_rejects_a_trial_count_it_does_not_read(tmp_path, monkeypatch, capsys):
    # lowrank runs one report; another count would only move its stream key
    monkeypatch.chdir(tmp_path)
    err = config_error(["lowrank", "--trials", "3", "--out", "out"], capsys)
    assert err == "rsbl: error: trials must be 1 for lowrank, got 3\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("grid_size = 1\n", "^grid_size must be >= 2, got 1$"),
        ("n = 0\n", "^n must be >= 1, got 0$"),
        ("nrows = -3\n", "^nrows must be >= 1, got -3$"),
        ("b_list = 2, 0, 4\n", r"^b_list\[1\] must be >= 1, got 0$"),
        ("d_list = -1\n", r"^d_list\[0\] must be >= 1, got -1$"),
        ("variant = inner\n", "^variant must be exterior, interior or both, got 'inner'$"),
        ("n = 10\nn: 20\n", "^line 2: expected 'key = value', got 'n: 20'$"),
        ("n = abc\n", "^n must be an int, got 'abc'$"),
        ("b_list = 1.5\n", r"^b_list\[0\] must be an int, got '1.5'$"),
        ("d_list = 2, three\n", r"^d_list\[1\] must be an int, got 'three'$"),
        ("tol = small\n", "^tol must be a float, got 'small'$"),
        ("beta_list = 1.0, 1e-2, x\n", r"^beta_list\[2\] must be a float, got 'x'$"),
    ],
)
def test_config_errors_name_the_key_and_value(text, message):
    with pytest.raises(ValueError, match=message):
        ExperimentConfig.from_text(text)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.integers(min_value=1, max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(
    n=_POSITIVE,
    nrows=_POSITIVE,
    b_list=st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
    d_list=st.lists(_POSITIVE, min_size=1, max_size=4).map(tuple),
    beta_list=st.lists(_FINITE, min_size=1, max_size=4).map(tuple),
    trials=_POSITIVE,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    grid_size=st.integers(min_value=2, max_value=10**6),
    variant=st.sampled_from(["exterior", "interior", "both"]),
    tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    cluster_dim=_POSITIVE,
    ell=_POSITIVE,
    eps=st.floats(min_value=0.0, allow_infinity=False),
)
def test_config_text_round_trip_property(**values):
    config = ExperimentConfig(**values)
    assert ExperimentConfig.from_text(config.to_text()) == config


def test_stream_derivation_stable_and_distinct():
    a = derive_stream_id("key", 0)
    assert a == derive_stream_id("key", 0)
    assert a != derive_stream_id("key", 1)
    assert a != derive_stream_id("other", 0)
    assert 0 <= a < 2**64


def test_stream_derivation_pinned():
    # raw bit-generator words do not depend on the platform, so these pin the
    # key hash, the seed sequence and the bit generator wherever the suite runs;
    # the golden digests skip on an environment key other than the recorded one
    stream_id = derive_stream_id("stream-pin", 3)
    assert stream_id == 14890113400246676840
    words = sample_stream(8064113, stream_id).bit_generator.random_raw(3)
    assert words.tolist() == [2770833530959295590, 15997377552323988944, 13165966428266100753]


def test_format_number_round_trip():
    assert format_number(0.1) == "0.1"
    assert float(format_number(1.0 / 3.0)) == 1.0 / 3.0
    assert format_number(True) == "1"
    assert format_number(np.float64(2.5)) == "2.5"
    assert format_number(np.int64(7)) == "7"
    assert format_number(math.inf) == "inf"


def test_write_csv_layout(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(str(path), ("a", "b"), [(1, 0.5), (2, 0.25)])
    assert path.read_text() == "a,b\n1,0.5\n2,0.25\n"


def test_fit_loglog_recovers_slope():
    xs = np.array([2.0**-i for i in range(1, 11)])
    ys = 3.0 * xs**-2
    slope, intercept, r2 = fit_loglog(xs, ys)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-12)
    # extremes are excluded from the fit
    ys_sat = ys.copy()
    ys_sat[0] = ys[0] * 100.0
    ys_sat[-1] = ys[-1] * 100.0
    slope_sat, _, _ = fit_loglog(xs, ys_sat)
    assert slope_sat == pytest.approx(-2.0, abs=1e-12)


@pytest.mark.parametrize("ys", [[1.0, math.inf, math.nan], [0.0, -1.0, 2.0], [math.inf] * 3])
def test_fit_loglog_needs_two_finite_points(ys):
    # fewer than two finite positive medians leave no line to fit
    assert all(math.isnan(v) for v in fit_loglog([1.0, 2.0, 4.0], ys))


def test_table1_cell_resamples_after_a_breakdown(monkeypatch):
    # a breakdown reruns the trial on its next stream, trial * TABLE1_STREAM_STRIDE + retry
    config = ExperimentConfig(n=100, trials=2, seed=5)
    real = rsbl.experiments.run_until_converged
    expected = _matvecs_for_cell(config, 1.0, 2)
    omegas = []

    def first_run_breaks_down(op, omega, targets, **kwargs):
        omegas.append(omega)
        if len(omegas) == 1:
            raise BreakdownError(3)
        return real(op, omega, targets, **kwargs)

    monkeypatch.setattr(rsbl.experiments, "run_until_converged", first_run_breaks_down)
    counts = _matvecs_for_cell(config, 1.0, 2)
    key = config.canonical_key("table1", "beta=1.0", "b=2")
    retry = gaussian_matrix(100, 2, sample_stream(5, derive_stream_id(key, 1)))
    assert len(omegas) == 3 and np.array_equal(omegas[1], retry)
    assert counts[0] > 0 and counts[1] == expected[1]


def test_table1_cell_records_no_convergence_as_minus_one(monkeypatch):
    # an exhausted budget is final: no retry, and the count reads -1
    calls = []

    def never_converges(op, omega, targets, **kwargs):
        calls.append(omega.shape)
        raise NoConvergenceError(kwargs["max_matvecs"])

    monkeypatch.setattr(rsbl.experiments, "run_until_converged", never_converges)
    config = ExperimentConfig(n=100, trials=3)
    assert _matvecs_for_cell(config, 1.0, 2) == [-1, -1, -1]
    assert calls == [(100, 2)] * 3


def test_table1_records_a_cell_that_did_not_converge(monkeypatch):
    real = rsbl.experiments.run_until_converged

    def b2_never_converges(op, omega, targets, **kwargs):
        if omega.shape[1] == 2:
            raise NoConvergenceError(kwargs["max_matvecs"])
        return real(op, omega, targets, **kwargs)

    monkeypatch.setattr(rsbl.experiments, "run_until_converged", b2_never_converges)
    config = ExperimentConfig(n=100, b_list=(1, 2), beta_list=(1.0,), trials=2)
    result = run_table1(config)
    assert result.failures == [{"check": "table1-convergence", "beta": 1.0, "b": 2}]
    (_, _, trials), (_, _, summary) = result.outputs
    assert [row[3] for row in trials[2:]] == [-1, -1]
    assert summary[1][:3] == (1.0, 2, -1) and math.isnan(summary[1][3])


def test_bound_verify_records_a_trial_whose_bound_fails(monkeypatch):
    real = rsbl.experiments.structural_bound_trial
    reports = []

    def second_trial_fails(spec, *args, **kwargs):
        reports.append(real(spec, *args, **kwargs))
        return dataclasses.replace(reports[-1], bound_holds=len(reports) != 2)

    monkeypatch.setattr(rsbl.experiments, "structural_bound_trial", second_trial_fails)
    config = ExperimentConfig(b_list=(1,), d_list=(2,), trials=3, grid_size=100)
    result = run_bound_verify(config)
    assert result.failures == [{"check": "bound-holds", "b": 1, "d": 2, "trial": 1}]
    (_, header, rows), (_, _, summary) = result.outputs
    assert [dict(zip(header, row))["bound_holds"] for row in rows] == [True, False, True]
    assert rows[0] == (1, 2, 0, *dataclasses.astuple(reports[0]))
    assert dict(summary)["trials"] == 3 and dict(summary)["holds_rate"] == 2 / 3
    assert result.console == "structural bound held in 2/3 trials (rate 0.6667)"


def test_sandwich_records_a_trial_whose_bound_fails(monkeypatch):
    real = rsbl.experiments.sandwich_d2
    calls = []

    def second_trial_fails(b1, b2):
        lower, middle, upper, ok = real(b1, b2)
        calls.append(ok)
        return lower, middle, upper, ok and len(calls) != 2

    monkeypatch.setattr(rsbl.experiments, "sandwich_d2", second_trial_fails)
    result = run_sandwich(ExperimentConfig(b_list=(1, 2), trials=3))
    assert calls == [True] * 3
    assert result.failures == [{"check": "sandwich", "trial": 1}]
    assert [row[-1] for row in result.outputs[0][2]] == [True, False, True]
    assert result.console == "sandwich bound held in 2/3 trials"


def test_sandwich_runs_every_block_size_it_is_given():
    result = run_sandwich(ExperimentConfig(b_list=(2, 6), trials=4))
    assert result.ok
    assert [row[1] for row in result.outputs[0][2]] == [2, 6, 2, 6]


def test_cli_failure_exits_1_with_a_json_summary_on_stderr(tmp_path, monkeypatch, capsys):
    # the files are still written; the summary names the command and each failed check
    failed = RunResult(outputs=[("x.csv", ("a",), [(1,)])], failures=[{"check": "stub", "trial": 3}])
    monkeypatch.setitem(rsbl.cli._COMMANDS, "sandwich", lambda config: failed)
    assert main(["sandwich", "--out", str(tmp_path)]) == 1
    summary = json.loads(capsys.readouterr().err)
    assert summary == {"command": "sandwich", "failures": [{"check": "stub", "trial": 3}]}
    assert (tmp_path / "x.csv").read_text() == "a\n1\n"


def test_sandwich_runner_deterministic(tmp_path):
    config = ExperimentConfig(b_list=(1, 2, 3, 4), trials=30)
    result = run_sandwich(config)
    assert result.ok
    write_outputs(str(tmp_path / "a"), result)
    write_outputs(str(tmp_path / "b"), run_sandwich(config))
    assert (tmp_path / "a" / "sandwich.csv").read_bytes() == (
        tmp_path / "b" / "sandwich.csv"
    ).read_bytes()


@pytest.mark.parametrize("command", sorted(rsbl.cli._COMMANDS))
def test_runner_leaves_the_file_system_to_the_writer(tmp_path, monkeypatch, command):
    # a runner returns its files as data; write_outputs alone creates the
    # directory and opens each file, in the order of result.files
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "absent"
    result = rsbl.cli._COMMANDS[command](_small_config(command))
    assert not any(tmp_path.iterdir())
    opened = []

    def recording_open(path, *args, **kwargs):
        opened.append(os.path.relpath(path, out))
        return open(path, *args, **kwargs)

    monkeypatch.setattr(rsbl.experiments, "open", recording_open, raising=False)
    write_outputs(str(out), result)
    assert result.files and opened == result.files
    assert sorted(p.name for p in out.iterdir()) == sorted(result.files)


def test_cli_sandwich_exit_code(tmp_path, capsys):
    code = main(["sandwich", "--trials", "40", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "sandwich bound held in 40/40" in out
    # sandwich_d2 returns a numpy bool; the CSV spells every boolean 1 or 0
    lines = (tmp_path / "sandwich.csv").read_text().splitlines()
    assert lines[0].endswith(",holds")
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} == {"1"}


def test_cli_probe_quantiles(tmp_path):
    code = main(["probe", "--trials", "60", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "probe_quantiles.csv").read_text().splitlines()
    assert lines[0] == "quantile,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_probe_streams_keyed_by_config(monkeypatch):
    # probes with the same seed but different block sizes must not share draws
    drawn = record_stream_ids(monkeypatch, rsbl.robustness)
    streams = {}
    for b in (2, 3):
        drawn.clear()
        config = ExperimentConfig(b_list=(b,), trials=5)
        run_probe(config)
        streams[b] = set(drawn)
    assert len(streams[2]) == len(streams[3]) == 5
    assert streams[2].isdisjoint(streams[3])


def test_cli_bound_verify_small(tmp_path):
    code = main(["bound-verify", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "bound_summary.csv").read_text()
    assert "holds_rate,1.0" in text


def _run_fresh(code: str, *args) -> str:
    """Run ``code`` in a fresh interpreter; return the last line it printed."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


def test_cli_bound_verify_leaves_numpy_ma_unimported(tmp_path):
    # np.median imports numpy.ma on first use, about 10 ms of every run; a
    # fresh process, because any earlier test may have imported it already
    code = (
        "import sys, rsbl.cli\n"
        "assert rsbl.cli.main(['bound-verify', '--trials', '2', '--out', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)"
    )
    assert _run_fresh(code, tmp_path) == "False"


# the tangent-sweep benchmark's operator at two trials: 78 sweep points
_SWEEP_CONFIG = "n = 1000\ncluster_dim = 60\nvariant = exterior\n"


_needs_glibc = pytest.mark.skipif(
    not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
    reason="the allocator policy is set through glibc's mallopt; elsewhere main sets nothing",
)


@_needs_glibc
def test_cli_sweep_keeps_heap_pages_between_tangents(tmp_path):
    # a fresh process, so no earlier test has set the policy or shaped the heap;
    # the first call warms the heap, the second is counted
    config = tmp_path / "sweep.cfg"
    config.write_text(_SWEEP_CONFIG)
    code = (
        "import contextlib, io, resource, sys, rsbl.cli\n"
        "argv = ['cluster-robustness', '--config', sys.argv[1], '--trials', '2',\n"
        "        '--seed', '1', '--out', sys.argv[2]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rsbl.cli.main(argv) == 0\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert rsbl.cli.main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    faults = int(_run_fresh(code, config, tmp_path))
    points = sum(
        len((tmp_path / f"cluster_exterior_{sweep}.csv").read_text().splitlines()) - 1
        for sweep in ("beta", "alpha")
    )
    tangents = 2 * points
    # measured (2-core Xeon VM, glibc 2.36): 5 faults for 156 tangents with the
    # policy, about 209 per tangent without it; 10 per tangent is the line
    assert faults < 10 * tangents, (faults, tangents)


@_needs_glibc
def test_cli_bound_verify_keeps_heap_pages_between_trials(tmp_path):
    # the stacked fundamental-polynomial grid makes temporaries of up to
    # 224 KiB per factor, which glibc's default thresholds serve by mmap with
    # fresh pages on every call; under the CLI's policy they stay in the heap.
    # A fresh process, and the first call warms the heap, the second is counted.
    code = (
        "import contextlib, io, resource, sys, rsbl.cli\n"
        "argv = ['bound-verify', '--trials', '5', '--seed', '1', '--out', sys.argv[1]]\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert rsbl.cli.main(argv) == 0\n"
        "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    assert rsbl.cli.main(argv) == 0\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)"
    )
    faults = int(_run_fresh(code, tmp_path))
    trials = len((tmp_path / "bound_reports.csv").read_text().splitlines()) - 1
    assert trials == 30
    # measured (2-core Xeon VM, glibc 2.36): 4-5 faults for 30 trials with the
    # policy, 683-685 with the policy replaced by a no-op; 1 per trial is the line
    assert faults < trials, (faults, trials)


@pytest.mark.parametrize("libc", ["missing", "no-mallopt"])
def test_cli_runs_without_mallopt(tmp_path, monkeypatch, libc):
    argv = ["probe", "--trials", "20", "--seed", "5", "--out"]
    assert main(argv + [str(tmp_path / "plain")]) == 0

    def cdll(name, *args, **kwargs):
        if libc == "missing":
            raise OSError("no libc handle")
        return object()

    monkeypatch.setattr(rsbl.cli.ctypes, "CDLL", cdll)
    assert main(argv + [str(tmp_path / libc)]) == 0
    name = "probe_quantiles.csv"
    assert (tmp_path / libc / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


def test_cli_csv_bytes_independent_of_allocator_policy(tmp_path):
    # determinism contract: the allocator policy may move where buffers live,
    # never a computed bit; fresh processes, because the policy is per process
    config = tmp_path / "sweep.cfg"
    config.write_text(_SWEEP_CONFIG)
    code = (
        "import contextlib, io, json, sys, rsbl.cli\n"
        "if sys.argv[1] == 'off':\n"
        "    rsbl.cli._set_allocator_policy = lambda: None\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in json.loads(sys.argv[2]):\n"
        "        assert rsbl.cli.main(argv) == 0, argv\n"
        "print('done')"
    )
    small = ("table1", "probe", "sandwich", "lowrank")
    for policy in ("on", "off"):
        out = str(tmp_path / policy)
        runs = [
            ["cluster-robustness", "--config", str(config), "--trials", "2", "--seed", "3",
             "--out", out],
            ["bound-verify", "--trials", "3", "--seed", "3", "--out", out],
        ] + [_small_argv(command, tmp_path, out) for command in small]
        assert _run_fresh(code, policy, json.dumps(runs)) == "done"
    names = sorted(p.name for p in (tmp_path / "on").iterdir())
    assert {"cluster_exterior_beta.csv", "bound_reports.csv", "table1_trials.csv",
            "probe_quantiles.csv", "sandwich.csv", "lowrank.csv"} <= set(names)
    assert names == sorted(p.name for p in (tmp_path / "off").iterdir())
    for name in names:
        assert (tmp_path / "on" / name).read_bytes() == (tmp_path / "off" / name).read_bytes(), name


def test_cli_lowrank(tmp_path):
    code = main(["lowrank", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "lowrank.csv").read_text()
    assert text.startswith("metric,value\n")
    assert "eps,0.1" in text


def test_cli_table1_single_cell_from_config(tmp_path):
    config_path = tmp_path / "cfg.txt"
    config_path.write_text("b_list = 1\nbeta_list = 1.0\ntrials = 1\n")
    code = main(["table1", "--config", str(config_path), "--out", str(tmp_path)])
    assert code == 0
    trials = (tmp_path / "table1_trials.csv").read_text().splitlines()
    assert trials[0] == "config,b,trial,matvecs"
    assert len(trials) == 2
    count = int(trials[1].split(",")[-1])
    assert 60 <= count <= 90  # single-vector run lands near the reference count


# Matvec counts of a small Table 1 run (n = 400, seed 8064113, 3 trials):
# a change to the storage or the kernels of the Lanczos process must not move
# a single count. A change to the config's fields re-keys the streams and
# moves them; such a change re-records them.
TABLE1_SMALL_COUNTS = {
    ("beta=1.0", 1): [74, 74, 75],
    ("beta=1.0", 2): [82, 84, 82],
    ("beta=1.0", 4): [96, 100, 100],
    ("beta=0.01", 1): [154, 154, 155],
    ("beta=0.01", 2): [162, 162, 158],
    ("beta=0.01", 4): [168, 168, 168],
}


def test_cli_table1_small_counts_pinned(tmp_path):
    config_path = tmp_path / "cfg.txt"
    config_path.write_text("n = 400\nb_list = 1, 2, 4\nbeta_list = 1.0, 0.01\n")
    code = main(["table1", "--config", str(config_path), "--seed", "8064113", "--trials", "3",
                 "--out", str(tmp_path)])
    assert code == 0
    counts = {}
    for line in (tmp_path / "table1_trials.csv").read_text().splitlines()[1:]:
        cell, b, _, matvecs = line.split(",")
        counts.setdefault((cell, int(b)), []).append(int(matvecs))
    assert counts == TABLE1_SMALL_COUNTS


def test_cli_config_file_keys_beat_command_defaults(tmp_path):
    # trials = 5 equals the class default; the file must still win over bound-verify's 20
    config_path = tmp_path / "cfg.txt"
    config_path.write_text("b_list = 1\nd_list = 2\ntrials = 5\n")
    code = main(["bound-verify", "--config", str(config_path), "--out", str(tmp_path)])
    assert code == 0
    assert len((tmp_path / "bound_reports.csv").read_text().splitlines()) == 1 + 5


def test_cli_cluster_robustness_smoke(tmp_path):
    code = main(["cluster-robustness", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    for name in (
        "cluster_exterior_beta.csv",
        "cluster_exterior_alpha.csv",
        "cluster_interior_beta.csv",
        "cluster_interior_alpha.csv",
        "cluster_slopes.csv",
        "plot_cluster_robustness.py",
    ):
        assert (tmp_path / name).exists(), name
    slopes = (tmp_path / "cluster_slopes.csv").read_text().splitlines()
    assert slopes[0] == "variant,sweep,d,slope,intercept,r2"
    assert len(slopes) == 1 + 2 * (4 + 3)


@pytest.mark.parametrize("flags", [[], ["--out", ""]], ids=["no-out", "empty-out"])
def test_cli_writes_to_out_without_an_output_directory(tmp_path, monkeypatch, capsys, flags):
    monkeypatch.chdir(tmp_path)
    assert main(["probe", "--trials", "20", *flags]) == 0
    assert capsys.readouterr().out.endswith("wrote probe_quantiles.csv to out\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert (tmp_path / "out" / "probe_quantiles.csv").exists()


def test_cli_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["probe", "--trials", "25", "--out", str(out1)]) == 0
    assert main(["probe", "--trials", "25", "--out", str(out2)]) == 0
    assert (out1 / "probe_quantiles.csv").read_bytes() == (out2 / "probe_quantiles.csv").read_bytes()


@pytest.mark.parametrize(
    "command", ["bound-verify", "sandwich", "table1", "lowrank", "cluster-robustness", "probe"]
)
def test_cli_csv_bytes_independent_of_blas_threads(tmp_path, command):
    # fresh processes, because OpenBLAS reads its thread count at load time
    src = str(Path(__file__).resolve().parent.parent / "src")
    # one table1 trial already runs every (beta, b) cell of the default grid,
    # and lowrank runs one report
    trials = {"table1": "1", "lowrank": "1", "cluster-robustness": "3"}.get(command, "4")
    config = tmp_path / "small.cfg"
    # a small cluster-robustness operator: every sweep point, both variants
    config.write_text("n = 300\n" if command == "cluster-robustness" else "")
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        subprocess.run(
            [sys.executable, "-m", "rsbl", command, "--config", str(config), "--trials", trials,
             "--seed", "3", "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=300,
        )
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("command", sorted(rsbl.cli._COMMANDS))
def test_cli_output_independent_of_out_dir(tmp_path, command):
    # the output directory must not move an output byte
    out1, out2 = tmp_path / "a", tmp_path / "b" / "nested"
    assert main(_small_argv(command, tmp_path, out1)) == 0
    assert main(_small_argv(command, tmp_path, out2)) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names and names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


# Canonical keys of the benchmark's three configs at seed 1, as its runner
# passes them. Every per-trial stream id derives from these strings, so a
# change to one moves every sample that command draws.
BENCHMARK_KEYS = {
    "table1": (
        'b_list = 1, 2, 4, 8, 16, 32\n'
        'beta_list = 1.0, 0.1, 0.01, 0.001\n'
        'cluster_dim = 60\n'
        'd_list = 2, 3\n'
        'ell = 6\n'
        'eps = 0.1\n'
        'grid_size = 1000\n'
        'n = 2000\n'
        'nrows = 30\n'
        'seed = 1\n'
        'tol = 1e-10\n'
        'trials = 2\n'
        'variant = both'
    ),
    "tangent-sweep": (
        'b_list = 1, 2, 4, 8, 16, 32\n'
        'beta_list = 1.0, 0.1, 0.01, 0.001\n'
        'cluster_dim = 60\n'
        'd_list = 2, 3\n'
        'ell = 6\n'
        'eps = 0.1\n'
        'grid_size = 1000\n'
        'n = 1000\n'
        'nrows = 30\n'
        'seed = 1\n'
        'tol = 1e-10\n'
        'trials = 5\n'
        'variant = exterior'
    ),
    "bound-verify": (
        'b_list = 1, 2, 3\n'
        'beta_list = 1.0, 0.1, 0.01, 0.001\n'
        'cluster_dim = 60\n'
        'd_list = 2, 3\n'
        'ell = 6\n'
        'eps = 0.1\n'
        'grid_size = 1000\n'
        'n = 2000\n'
        'nrows = 30\n'
        'seed = 1\n'
        'tol = 1e-10\n'
        'trials = 15\n'
        'variant = both'
    ),
}


def test_benchmark_canonical_keys_pinned(tmp_path):
    workloads = import_perfbench("workloads").WORKLOADS
    assert sorted(workloads) == sorted(BENCHMARK_KEYS)
    for name, w in workloads.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(w.config_text())
        args = build_parser().parse_args(w.argv(str(path), 1, str(tmp_path / "out")))
        assert resolve_config(args).canonical_key() == BENCHMARK_KEYS[name]


# Canonical keys of every command run with no flags, as the lines they
# share plus each command's own. Every per-trial stream id derives from
# these strings, so they pin each command's default sample streams.
FLAG_FREE_KEY = {
    "b_list": "1, 2, 4, 8, 16, 32",
    "beta_list": "1.0, 0.1, 0.01, 0.001",
    "cluster_dim": "60",
    "d_list": "2, 3",
    "ell": "6",
    "eps": "0.1",
    "grid_size": "1000",
    "n": "2000",
    "nrows": "30",
    "seed": "8064113",
    "tol": "1e-10",
    "trials": "5",
    "variant": "both",
}
COMMAND_KEY_CHANGES = {
    "table1": {},
    "cluster-robustness": {"n": "1000", "trials": "200"},
    "bound-verify": {"b_list": "1, 2, 3", "trials": "20"},
    "probe": {"b_list": "2", "trials": "2000"},
    "sandwich": {"b_list": "1, 2, 3, 4", "trials": "1000"},
    "lowrank": {"n": "20", "b_list": "2", "d_list": "2", "trials": "1"},
}


def test_command_canonical_keys_pinned():
    for command, changes in COMMAND_KEY_CHANGES.items():
        lines = {**FLAG_FREE_KEY, **changes}
        expected = "\n".join(f"{key} = {value}" for key, value in sorted(lines.items()))
        assert resolve_config(build_parser().parse_args([command])).canonical_key() == expected


def test_cli_cluster_trials_default_and_unknown_flag():
    assert resolve_config(build_parser().parse_args(["cluster-robustness"])).trials == 200
    with pytest.raises(SystemExit):
        build_parser().parse_args(["probe", "--quick"])


def test_console_script_is_main():
    # the console-script wrapper runs sys.exit(main()), so main is the one entry
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["rsbl"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is rsbl.cli.main
