import dataclasses
import math
import os
import string
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rsbl.robustness
from helpers import import_perfbench
from rsbl.cli import build_parser, main, resolve_config
from rsbl.config import ExperimentConfig, derive_stream_id
from rsbl.experiments import fit_loglog, format_number, run_probe, run_sandwich, write_csv
from rsbl.linalg import RngStream


def test_config_round_trip():
    config = ExperimentConfig(
        experiment="table1",
        n=500,
        b_list=(1, 2),
        beta_list=(1.0, 0.125),
        trials=3,
        seed=99,
        out_dir="results",
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
    with pytest.raises(ValueError, match="cluster_dim and ell must be >= 1"):
        ExperimentConfig(**{key: 0})
    assert getattr(ExperimentConfig(**{key: 1}), key) == 1


def test_config_validation_reaches_config_files(tmp_path):
    path = tmp_path / "nan.cfg"
    path.write_text("tol = nan\n")
    with pytest.raises(ValueError, match="tol"):
        main(["table1", "--config", str(path), "--out", str(tmp_path)])


_SAFE_TEXT = st.text(alphabet=string.ascii_letters + string.digits + "_-./", max_size=12)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_POSITIVE = st.integers(min_value=1, max_value=10**6)


@settings(max_examples=200, deadline=None)
@given(
    experiment=_SAFE_TEXT,
    n=_POSITIVE,
    nrows=_POSITIVE,
    b_list=st.lists(_POSITIVE, max_size=4).map(tuple),
    d_list=st.lists(_POSITIVE, max_size=4).map(tuple),
    beta_list=st.lists(_FINITE, max_size=4).map(tuple),
    alpha_list=st.lists(_FINITE, max_size=4).map(tuple),
    trials=_POSITIVE,
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    out_dir=_SAFE_TEXT,
    other_out_dir=_SAFE_TEXT,
    grid_size=st.integers(min_value=2, max_value=10**6),
    variant=st.sampled_from(["exterior", "interior", "both"]),
    tol=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
    cluster_dim=_POSITIVE,
    ell=_POSITIVE,
    eps=st.floats(min_value=0.0, allow_infinity=False),
)
def test_config_text_round_trip_property(other_out_dir, **values):
    config = ExperimentConfig(**values)
    assert ExperimentConfig.from_text(config.to_text()) == config
    # the output directory never enters the key that derives sample streams
    moved = dataclasses.replace(config, out_dir=other_out_dir)
    assert moved.canonical_key("probe", 3) == config.canonical_key("probe", 3)


def test_stream_derivation_stable_and_distinct():
    a = derive_stream_id("key", 0)
    assert a == derive_stream_id("key", 0)
    assert a != derive_stream_id("key", 1)
    assert a != derive_stream_id("other", 0)
    assert 0 <= a < 2**64


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


def test_sandwich_runner_deterministic(tmp_path):
    config = ExperimentConfig(
        experiment="sandwich", b_list=(1, 2, 3, 4), trials=30, out_dir=str(tmp_path)
    )
    result = run_sandwich(config)
    assert result.ok
    first = (tmp_path / "sandwich.csv").read_bytes()
    run_sandwich(config)
    assert (tmp_path / "sandwich.csv").read_bytes() == first


def test_cli_sandwich_exit_code(tmp_path, capsys):
    code = main(["sandwich", "--trials", "40", "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "sandwich.csv").exists()
    out = capsys.readouterr().out
    assert "sandwich bound held in 40/40" in out


def test_cli_probe_quantiles(tmp_path):
    code = main(["probe", "--trials", "60", "--out", str(tmp_path)])
    assert code == 0
    lines = (tmp_path / "probe_quantiles.csv").read_text().splitlines()
    assert lines[0] == "quantile,value"
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == sorted(values)


def test_probe_streams_keyed_by_config(tmp_path, monkeypatch):
    # probes with the same seed but different block sizes must not share draws
    drawn = []

    class RecordingStream(RngStream):
        def __post_init__(self):
            drawn.append(self.stream_id)
            super().__post_init__()

    monkeypatch.setattr(rsbl.robustness, "RngStream", RecordingStream)
    streams = {}
    for b in (2, 3):
        drawn.clear()
        config = ExperimentConfig(experiment="probe", b_list=(b,), trials=5, out_dir=str(tmp_path))
        run_probe(config)
        streams[b] = set(drawn)
    assert len(streams[2]) == len(streams[3]) == 5
    assert streams[2].isdisjoint(streams[3])


def test_cli_bound_verify_small(tmp_path):
    code = main(["bound-verify", "--trials", "2", "--out", str(tmp_path)])
    assert code == 0
    text = (tmp_path / "bound_summary.csv").read_text()
    assert "holds_rate,1.0" in text


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


# Matvec counts of a small Table 1 run (n = 400, seed 8064113, 3 trials),
# recorded before the Lanczos basis was stored as rows: a change to the
# storage or the kernels of the Lanczos process must not move a single count.
TABLE1_SMALL_COUNTS = {
    ("beta=1.0", 1): [74, 74, 74],
    ("beta=1.0", 2): [82, 86, 80],
    ("beta=1.0", 4): [96, 96, 100],
    ("beta=0.01", 1): [155, 154, 155],
    ("beta=0.01", 2): [162, 160, 162],
    ("beta=0.01", 4): [176, 168, 172],
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


def test_cli_config_file_out_dir_beats_env(tmp_path, monkeypatch):
    # out_dir = out equals the class default; the file must still win over RSBL_OUT
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RSBL_OUT", str(tmp_path / "envout"))
    (tmp_path / "cfg.txt").write_text("out_dir = out\n")
    assert main(["probe", "--trials", "20", "--config", "cfg.txt"]) == 0
    assert (tmp_path / "out" / "probe_quantiles.csv").exists()
    assert not (tmp_path / "envout").exists()


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


def test_cli_env_out_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("RSBL_OUT", str(tmp_path / "envout"))
    code = main(["probe", "--trials", "20"])
    assert code == 0
    assert (tmp_path / "envout" / "probe_quantiles.csv").exists()


def test_cli_rerun_byte_identical(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["probe", "--trials", "25", "--out", str(out1)]) == 0
    assert main(["probe", "--trials", "25", "--out", str(out2)]) == 0
    assert (out1 / "probe_quantiles.csv").read_bytes() == (out2 / "probe_quantiles.csv").read_bytes()


@pytest.mark.parametrize(
    "command", ["bound-verify", "sandwich", "table1", "lowrank", "cluster-robustness"]
)
def test_cli_csv_bytes_independent_of_blas_threads(tmp_path, command):
    # fresh processes, because OpenBLAS reads its thread count at load time
    src = str(Path(__file__).resolve().parent.parent / "src")
    # one table1 trial already runs every (beta, b) cell of the default grid
    trials = {"table1": "1", "cluster-robustness": "3"}.get(command, "4")
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


def test_cli_output_independent_of_out_dir(tmp_path):
    # stream derivation must not see presentation fields like out_dir
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["bound-verify", "--trials", "2", "--out", str(out1)]) == 0
    assert main(["bound-verify", "--trials", "2", "--out", str(out2)]) == 0
    assert (out1 / "bound_reports.csv").read_bytes() == (out2 / "bound_reports.csv").read_bytes()


# Canonical keys of the benchmark's three configs at seed 1, as its runner
# passes them. Every per-trial stream id derives from these strings, so a
# change to one moves every sample that command draws.
BENCHMARK_KEYS = {
    "table1": (
        'alpha_list = \n'
        'b_list = 1, 2, 4, 8, 16, 32\n'
        'beta_list = 1.0, 0.1, 0.01, 0.001\n'
        'cluster_dim = 60\n'
        'd_list = 2, 3\n'
        'ell = 6\n'
        'eps = 0.1\n'
        'experiment = table1\n'
        'grid_size = 1000\n'
        'n = 2000\n'
        'nrows = 30\n'
        'seed = 1\n'
        'tol = 1e-10\n'
        'trials = 2\n'
        'variant = both'
    ),
    "tangent-sweep": (
        'alpha_list = \n'
        'b_list = 1, 2, 4, 8, 16, 32\n'
        'beta_list = 1.0, 0.1, 0.01, 0.001\n'
        'cluster_dim = 60\n'
        'd_list = 2, 3\n'
        'ell = 6\n'
        'eps = 0.1\n'
        'experiment = cluster-robustness\n'
        'grid_size = 1000\n'
        'n = 1000\n'
        'nrows = 30\n'
        'seed = 1\n'
        'tol = 1e-10\n'
        'trials = 5\n'
        'variant = exterior'
    ),
    "bound-verify": (
        'alpha_list = \n'
        'b_list = 1, 2, 3\n'
        'beta_list = 1.0, 0.1, 0.01, 0.001\n'
        'cluster_dim = 60\n'
        'd_list = 2, 3\n'
        'ell = 6\n'
        'eps = 0.1\n'
        'experiment = bound-verify\n'
        'grid_size = 1000\n'
        'n = 2000\n'
        'nrows = 30\n'
        'seed = 1\n'
        'tol = 1e-10\n'
        'trials = 15\n'
        'variant = both'
    ),
}


def test_benchmark_canonical_keys_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("RSBL_OUT", raising=False)
    workloads = import_perfbench("workloads").WORKLOADS
    assert sorted(workloads) == sorted(BENCHMARK_KEYS)
    for name, w in workloads.items():
        path = tmp_path / f"{name}.cfg"
        path.write_text(w.config_text())
        args = build_parser().parse_args(w.argv(str(path), 1, str(tmp_path / "out")))
        assert resolve_config(args).canonical_key() == BENCHMARK_KEYS[name]


def test_cli_full_flag_sets_cluster_trials():
    def trials(*argv):
        return resolve_config(build_parser().parse_args(argv)).trials

    assert trials("cluster-robustness", "--full") == 1000
    assert trials("cluster-robustness", "--full", "--trials", "7") == 7
    assert trials("cluster-robustness") == 200
    assert trials("bound-verify", "--full") == 20
    with pytest.raises(SystemExit):
        build_parser().parse_args(["probe", "--quick"])
