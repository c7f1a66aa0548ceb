"""The package surface the benchmark harness in ``perfbench/`` relies on.

The traced benchmark wraps each function it names by module attribute,
patches three methods to count matvecs, block steps and Ritz checks, and
counts breakdowns through ``rsbl.BreakdownError``; a rename or removal
there would break the benchmark (or silently zero its counters) without
failing any other test.
"""
import numpy as np

import rsbl
import rsbl.cli
import rsbl.lanczos
from rsbl.linalg import RngStream, gaussian_matrix

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
    omega = gaussian_matrix(20, 1, RngStream(0))
    count, _ = lanczos.run_until_converged(op, omega, [1.0])
    assert calls["advance"] == calls["apply"] == count
    assert calls["ritz_values"] >= 1


def test_breakdown_error_exported():
    assert issubclass(rsbl.BreakdownError, Exception)
