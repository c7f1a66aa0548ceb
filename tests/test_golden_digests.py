"""Golden SHA-256 digests of every file the six commands write.

``table1``, ``cluster-robustness`` and ``bound-verify`` run at the configs
the benchmark pins in ``perfbench/workloads.py``, and ``probe``,
``sandwich`` and ``lowrank`` at small trial counts, all at seed 1 and in
one process. The bytes are promised only on one environment key (numpy
version, BLAS build, CPU model and vector-unit flags), which
``golden_digests.txt`` records; on another key the test skips and prints
both keys.

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


def test_output_digests_match_golden(tmp_path, capsys):
    key, golden = read_golden()
    here = environment_key()
    if key != here:
        message = f"golden digests recorded on [{key}], this environment is [{here}]"
        with capsys.disabled():
            print(f"\n{message}")
        pytest.skip(message)
    digests = output_digests(tmp_path)
    assert len(golden) == 11
    moved = sorted(n for n in golden.keys() | digests.keys() if golden.get(n) != digests.get(n))
    assert not moved, f"bytes moved in {moved}; if intended, regenerate: {REGENERATE}"


def test_key_differing_only_in_cpu_flags_skips(tmp_path, monkeypatch, capsys):
    # a host with the same model name but other vector units runs other
    # OpenBLAS kernels: the golden test must skip there, not fail
    model, flags = _cpu()
    other = "avx avx2 fma" if flags != "avx avx2 fma" else "avx"
    here = environment_key()
    monkeypatch.setattr(sys.modules[__name__], "_cpu", lambda: (model, other))
    assert environment_key() != here
    assert environment_key().replace(f"cpu flags {other}", f"cpu flags {flags}") == here

    def must_not_run(work):
        raise AssertionError("digests computed under a foreign key")

    monkeypatch.setattr(sys.modules[__name__], "output_digests", must_not_run)
    with pytest.raises(pytest.skip.Exception, match="cpu flags"):
        test_output_digests_match_golden(tmp_path, capsys)


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {REGENERATE}")
    with tempfile.TemporaryDirectory() as work:
        write_golden(output_digests(Path(work)))
    print(f"wrote {GOLDEN}")
