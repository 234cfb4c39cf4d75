"""Accessor for the Monte Carlo kernel module.

``simulate`` looks the kernel up here on every batch, so a caller that
replaces ``simulate_runs`` on the returned module (a profiler, say) sees
every call.
"""

from . import _kernel_py


def get_kernel():
    """The module whose ``simulate_runs`` plays the games."""
    return _kernel_py
