"""The package surface the benchmark harness in ``perfbench/`` relies on.

The traced benchmark wraps each function it names by module attribute and
counts breakdowns through ``rsbl.BreakdownError``; a rename or removal
there would break the benchmark without failing any other test.
"""
import rsbl
import rsbl.cli

from helpers import import_perfbench


def test_span_functions_resolve():
    child = import_perfbench("child")
    for _, home, attr in child.SPAN_FUNCTIONS:
        assert callable(getattr(getattr(rsbl, home), attr)), f"rsbl.{home}.{attr}"


def test_breakdown_error_exported():
    assert issubclass(rsbl.BreakdownError, Exception)
