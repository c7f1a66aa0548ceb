"""Golden SHA-256 digests of every file the six commands write.

``table1``, ``cluster-robustness`` and ``bound-verify`` run at the configs
the benchmark pins in ``perfbench/workloads.py``, and ``probe``,
``sandwich`` and ``lowrank`` at small trial counts, all at seed 1 and in
one process. The bytes are promised only on one environment key (numpy
version, BLAS build, CPU model and vector-unit flags), which
``golden_digests.txt`` records. The digests are computed on every host: a
moved file fails the test under the recorded key, and under another key it
skips, naming both keys and the moved files.

A change that moves digits regenerates the file in the same commit, with
the command on its first line, and says which files moved and why.
"""
import contextlib
import hashlib
import io
import platform
import sys
from pathlib import Path

import numpy as np
import pytest

import rsbl.cli
from helpers import import_perfbench

GOLDEN = Path(__file__).with_name("golden_digests.txt")
REGENERATE = "PYTHONPATH=src python tests/test_golden_digests.py --write"

# the commands the benchmark does not pin, at small trial counts
SMALL_RUNS = {
    "probe": ["--trials", "200"],
    "sandwich": ["--trials", "100"],
    "lowrank": [],
}


def _cpu() -> tuple[str, str]:
    """The CPU model name and its sorted ``avx*`` / ``fma*`` flags.

    A generic model name such as "Intel(R) Xeon(R) Processor" can cover
    several vector units, and OpenBLAS built with ``DYNAMIC_ARCH`` picks its
    kernels from these flags at run time, so they are part of the key.
    """
    model, flags = None, []
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if model is None and line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                elif not flags and line.startswith("flags"):
                    flags = line.split(":", 1)[1].split()
    except OSError:
        pass
    vector = " ".join(sorted(f for f in flags if f.startswith(("avx", "fma"))))
    return model or platform.processor() or platform.machine(), vector


def environment_key() -> str:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    model, flags = _cpu()
    return (
        f"numpy {np.__version__}; blas {blas['name']} {blas['version']}; cpu {model}; "
        f"cpu flags {flags}"
    )


def output_digests(work: Path) -> dict:
    """Run every command into ``work``; map ``command/file`` to the SHA-256 of its bytes."""
    runs = {}
    for w in import_perfbench("workloads").WORKLOADS.values():
        config = work / f"{w.command}.cfg"
        config.write_text(w.config_text())
        runs[w.command] = w.argv(str(config), 1, str(work / w.command))
    for command, flags in SMALL_RUNS.items():
        runs[command] = [command, *flags, "--seed", "1", "--out", str(work / command)]
    digests = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for command, argv in runs.items():
            assert rsbl.cli.main(argv) == 0, command
            for path in sorted((work / command).iterdir()):
                digests[f"{command}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return digests


def read_golden() -> tuple[str, dict]:
    key, digests = None, {}
    for line in GOLDEN.read_text(encoding="utf-8").splitlines():
        if line.startswith("# environment: "):
            key = line.removeprefix("# environment: ")
        elif line and not line.startswith("#"):
            digest, name = line.split()
            digests[name] = digest
    return key, digests


def write_golden(digests: dict) -> None:
    lines = [f"# regenerate: {REGENERATE}", f"# environment: {environment_key()}"]
    lines += [f"{digest}  {name}" for name, digest in sorted(digests.items())]
    GOLDEN.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_output_digests_match_golden(tmp_path):
    key, golden = read_golden()
    assert len(golden) == 11
    digests = output_digests(tmp_path)
    moved = sorted(n for n in golden.keys() | digests.keys() if golden.get(n) != digests.get(n))
    here = environment_key()
    if moved and key != here:
        # the reason names both keys and the moved files; pytest -rs shows it
        pytest.skip(f"bytes moved in {moved}, but golden digests were recorded on [{key}] "
                    f"and this environment is [{here}]")
    assert not moved, f"bytes moved in {moved}; if intended, regenerate: {REGENERATE}"


@pytest.mark.parametrize(
    "flags_differ, moves, outcome",
    [
        (True, False, "passes"),
        (True, True, "skips"),
        (False, True, "fails"),
    ],
    ids=["foreign-key-same-bytes", "foreign-key-moved-file", "recorded-key-moved-file"],
)
def test_key_differing_only_in_cpu_flags(tmp_path, monkeypatch, flags_differ, moves, outcome):
    # a host with the same model name but other vector units runs other
    # OpenBLAS kernels: a moved file skips there, and matching bytes still pass
    _, golden = read_golden()
    recorded = environment_key()
    model, flags = _cpu()
    if flags_differ:
        other = "avx avx2 fma" if flags != "avx avx2 fma" else "avx"
        monkeypatch.setattr(sys.modules[__name__], "_cpu", lambda: (model, other))
        assert environment_key() != recorded
        assert environment_key().replace(f"cpu flags {other}", f"cpu flags {flags}") == recorded
    monkeypatch.setattr(sys.modules[__name__], "read_golden", lambda: (recorded, golden))
    digests = dict(golden)
    if moves:
        digests["lowrank/lowrank.csv"] = "0" * 64
    monkeypatch.setattr(sys.modules[__name__], "output_digests", lambda work: digests)
    if outcome == "passes":
        test_output_digests_match_golden(tmp_path)
    elif outcome == "skips":
        with pytest.raises(pytest.skip.Exception, match=r"lowrank/lowrank\.csv.*cpu flags"):
            test_output_digests_match_golden(tmp_path)
    else:
        with pytest.raises(AssertionError, match="regenerate"):
            test_output_digests_match_golden(tmp_path)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    with tempfile.TemporaryDirectory() as work:
        write_golden(output_digests(Path(work)))
    print(f"wrote {GOLDEN}")
