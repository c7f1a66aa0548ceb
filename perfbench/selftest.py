"""Sanity tests for the benchmark itself, each on one workload at minimal size.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/selftest.py

The file is named so that the repository's own test run does not collect it.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ONE_ROUND = dict(min_rounds=1, min_samples=1)
DECLARED = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def minimal(name: str):
    """The workload with one trial per config point."""
    return dataclasses.replace(WORKLOADS[name], trials=1)


def declared_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_metric_emitted_with_unit_and_self_times_nonnegative(name):
    result, report = run.benchmark(minimal(name), 3, 0, False, **ONE_ROUND)
    assert result["correct"], report["misses"]
    emitted = {m: v["unit"] for m, v in result["metrics"].items()}
    assert emitted == declared_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result, report = run.benchmark(minimal(name), 3, 0, True, **ONE_ROUND)
    assert result["correct"], report["misses"]
    emitted = {m: v["unit"] for m, v in result["metrics"].items()}
    assert emitted == declared_units("per_layer")
    assert report["min_self_ns"] >= 0
    assert all(
        v["value"] >= 0 for m, v in result["metrics"].items() if m.endswith(".self_ms")
    )


def _truncating(check):
    """An output check fed CSVs cut down to their header lines."""

    def broken(out_dir, workload):
        for path in Path(out_dir).glob("*.csv"):
            path.write_text(path.read_text(encoding="utf-8").split("\n", 1)[0] + "\n",
                            encoding="utf-8")
        return check(out_dir, workload)

    return broken


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_broken_output_raises_failed_share(name):
    workload = minimal(name)
    broken = dataclasses.replace(workload, check=_truncating(workload.check))
    result, report = run.benchmark(broken, 3, 0, False, **ONE_ROUND)
    assert result["failed"] > 0
    assert report["failed_share"] > 0
    assert not result["correct"]


def test_fails_without_the_program(tmp_path):
    # a directory holding only BENCHMARK.json and the benchmark must not produce a result
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "table1", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
