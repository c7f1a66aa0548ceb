"""Experiment configuration, flat text serialization, and seed derivation.

Configs serialize to a line-oriented ``key = value`` format (``#`` starts a
comment) that round-trips losslessly: ints and floats keep their exact
values, list fields use comma separation. The canonical text doubles as
the input to per-trial stream-id derivation, so any runner that shares a
config reproduces the same sample streams.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields


def derive_stream_id(key: str, trial: int) -> int:
    """Stable 64-bit stream id from a configuration key and trial index."""
    digest = hashlib.blake2b(f"{key}|{trial}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass
class ExperimentConfig:
    """Knobs shared by all experiment commands; unused fields keep defaults."""

    experiment: str = ""
    n: int = 2000
    nrows: int = 30
    b_list: tuple = (1, 2, 4, 8, 16, 32)
    d_list: tuple = (2, 3)
    beta_list: tuple = (1.0, 0.1, 0.01, 0.001)
    alpha_list: tuple = ()
    trials: int = 5
    seed: int = 8064113
    out_dir: str = "out"
    grid_size: int = 1000
    variant: str = "both"
    tol: float = 1e-10
    cluster_dim: int = 60
    ell: int = 6
    eps: float = 0.1

    def __post_init__(self):
        self.b_list = tuple(int(v) for v in self.b_list)
        self.d_list = tuple(int(v) for v in self.d_list)
        self.beta_list = tuple(float(v) for v in self.beta_list)
        self.alpha_list = tuple(float(v) for v in self.alpha_list)
        least_values = dict(n=1, nrows=1, grid_size=2, trials=1, seed=0, cluster_dim=1, ell=1)
        for name, least in least_values.items():
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, got {getattr(self, name)}")
        for name in ("b_list", "d_list", "beta_list"):
            if not getattr(self, name):
                raise ValueError(f"{name} must not be empty")
        for name in ("b_list", "d_list"):
            for i, v in enumerate(getattr(self, name)):
                if v < 1:
                    raise ValueError(f"{name}[{i}] must be >= 1, got {v}")
        # written so that NaN fails both checks too
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol!r}")
        if not 0.0 <= self.eps < math.inf:
            raise ValueError(f"eps must be finite and nonnegative, got {self.eps!r}")
        if self.variant not in ("exterior", "interior", "both"):
            raise ValueError(f"variant must be exterior, interior or both, got {self.variant!r}")

    def to_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ExperimentConfig":
        return cls(**cls.values_from_text(text))

    @classmethod
    def values_from_text(cls, text: str) -> dict:
        """Typed values of exactly the keys the text sets."""
        values = {}
        for lineno, raw in enumerate(text.splitlines(), 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
        known = {f.name: f for f in fields(cls)}
        kwargs = {}
        for key, value in values.items():
            if key not in known:
                raise ValueError(f"unknown configuration key {key!r}")
            kwargs[key] = _parse_value(value, getattr(cls, key))
        return kwargs

    def canonical_key(self, *extra) -> str:
        # the output directory must not perturb derived sample streams
        lines = [line for line in self.to_text().splitlines() if not line.startswith("out_dir ")]
        parts = ["\n".join(lines)]
        parts.extend(str(e) for e in extra)
        return "|".join(parts)


def _format_value(value) -> str:
    if isinstance(value, tuple):
        return ", ".join(_format_value(v) for v in value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_value(text: str, default):
    if isinstance(default, tuple):
        if not text:
            return ()
        items = [t.strip() for t in text.split(",") if t.strip()]
        elem = default[0] if default else 1.0
        return tuple(_parse_scalar(t, elem) for t in items)
    return _parse_scalar(text, default)


def _parse_scalar(text: str, default):
    if isinstance(default, int):
        return int(text)
    if isinstance(default, float):
        return float(text)
    return text
