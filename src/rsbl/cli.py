"""Command-line harness for the experiment suite.

Usage::

    rsbl <command> [--config PATH] [--seed U64] [--trials N] [--out DIR]

Commands: table1, cluster-robustness, bound-verify, probe, sandwich,
lowrank. Flags override config-file values, and every key a config file
sets overrides the built-in per-command default; ``--out`` alone names the
output directory. The exit code is 0 when every hard assertion
(holds rates at 100%, all cells converged) passed and 1 when one failed,
with a machine-readable summary on standard error. A bad command line or
config (an unknown key, a bad value, an unreadable ``--config`` file, a
config the command's runner rejects) exits 2 with one line on standard
error, before anything is written; an unwritable ``--out`` exits 2 too.
"""
from __future__ import annotations

import argparse
import ctypes
import json
import sys

from .config import ExperimentConfig
from .experiments import (
    run_bound_verify,
    run_cluster_robustness,
    run_lowrank,
    run_probe,
    run_sandwich,
    run_table1,
    write_outputs,
)

_COMMANDS = {
    "table1": run_table1,
    "cluster-robustness": run_cluster_robustness,
    "bound-verify": run_bound_verify,
    "probe": run_probe,
    "sandwich": run_sandwich,
    "lowrank": run_lowrank,
}

# each command's values that differ from ExperimentConfig's defaults
_DEFAULTS = {
    "table1": {},
    "cluster-robustness": dict(n=1000, trials=200),
    "bound-verify": dict(b_list=(1, 2, 3), trials=20),
    "probe": dict(b_list=(2,), trials=2000),
    "sandwich": dict(b_list=(1, 2, 3, 4), trials=1000),
    "lowrank": dict(n=20, b_list=(2,), d_list=(2,), trials=1),
}

# the list keys of which a command reads one entry only
_ONE_ENTRY = {"probe": ("b_list",), "lowrank": ("b_list", "d_list")}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rsbl", description=__doc__.split("\n")[0])
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", help="path to a key = value configuration file")
    parser.add_argument("--seed", type=int, help="master seed")
    parser.add_argument("--trials", type=int, help="trial / seed count")
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    return parser


def resolve_config(args) -> ExperimentConfig:
    # later layers win: command defaults, the file's keys, flags
    values = dict(_DEFAULTS[args.command])
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            values.update(ExperimentConfig.values_from_text(fh.read()))
    flags = {"seed": args.seed, "trials": args.trials}
    values.update((key, value) for key, value in flags.items() if value is not None)
    config = ExperimentConfig(**values)
    for key in _ONE_ENTRY.get(args.command, ()):
        value = getattr(config, key)
        if len(value) > 1:
            text = ", ".join(map(str, value))
            raise ValueError(f"{key} must have one entry for {args.command}, got {text!r}")
    # lowrank runs one report, yet its trial count enters its stream key
    if args.command == "lowrank" and config.trials != 1:
        raise ValueError(f"trials must be 1 for lowrank, got {config.trials}")
    return config


# glibc's dynamic thresholds follow the largest freed block, so every tangent
# regrows the heap, trims it back to the kernel and faults in fresh pages.
# Fixed ones keep the heap (mallopt(3)); 32 MiB, glibc's 64-bit maximum,
# holds table1's largest basis (32.0 MB).
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = 32 << 20
_TRIM_THRESHOLD_BYTES = 64 << 20


def _set_allocator_policy() -> None:
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return  # no libc handle or no mallopt (not glibc): nothing to set
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


def main(argv=None) -> int:
    _set_allocator_policy()
    parser = build_parser()
    args = parser.parse_args(argv)
    out_dir = args.out or parser.get_default("out")  # --out '' keeps the default
    try:
        # a runner writes nothing, so a config it rejects leaves no file behind
        result = _COMMANDS[args.command](resolve_config(args))
        write_outputs(out_dir, result)
    except (ValueError, OSError) as exc:
        # one line, no usage block: the command line parsed, the config or --out did not
        parser.exit(2, f"{parser.prog}: error: {exc}\n")
    if result.console:
        print(result.console)
    print(f"wrote {', '.join(result.files)} to {out_dir}")
    if not result.ok:
        json.dump({"command": args.command, "failures": result.failures}, sys.stderr)
        sys.stderr.write("\n")
        return 1
    return 0

