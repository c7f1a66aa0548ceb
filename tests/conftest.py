from rsbl.cli import _set_allocator_policy


def pytest_configure(config):
    # the session runs library code the way the CLI does: under its fixed heap
    # thresholds, so the acceptance sweeps do not re-fault the heap on every
    # tangent and the stacked fundamental-polynomial grids stay in the heap
    _set_allocator_policy()
