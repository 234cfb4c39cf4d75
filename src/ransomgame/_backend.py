"""The module whose ``simulate_runs`` plays the games, for a profiler to wrap:
``simulate`` calls that module global on every slice."""

from . import simulate


def get_kernel():
    """The module whose ``simulate_runs`` plays the games."""
    return simulate
