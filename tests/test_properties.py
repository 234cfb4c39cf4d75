"""Property-based checks under a fixed, derandomized Hypothesis profile."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ransomgame import (AttackerStrategy, FixedValue, GameEnvironment, SeedSpec,  # noqa: E402
                        SimulationConfig, run_batch, run_single)
from ransomgame.simulate import _outcome_from_arrays  # noqa: E402
from ransomgame.stochastics import _ppf  # noqa: E402

# The same examples on every run, so the suite stays deterministic.
settings.register_profile("ransomgame", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("ransomgame")

_WORD = st.integers(0, 2 ** 64 - 1)


@given(st.lists(st.integers(0, 2 ** 52 - 1), min_size=1, max_size=64))
def test_ppf_finite_and_antisymmetric_on_generator_grid(ks):
    u = (2.0 * np.array(ks, dtype=np.float64) + 1.0) * 2.0 ** -53
    z = _ppf(u)
    assert np.all(np.isfinite(z))
    assert np.array_equal(_ppf(1.0 - u), -z)


@settings(max_examples=40)
@given(master=_WORD, stream=_WORD, n=st.integers(1, 70_000),
       a=st.floats(0.01, 100.0), i_beta=st.floats(0.0, 1.0), i_sigma=st.floats(0.0, 1.0),
       x=st.floats(1e-3, 1e3))
def test_run_single_is_run_zero_of_batch(master, stream, n, a, i_beta, i_sigma, x):
    strategy = AttackerStrategy(a, i_beta, i_sigma)
    env = GameEnvironment(i_fifty=0.02, target_value=FixedValue(x))
    seed = SeedSpec(master, stream)
    trace = run_batch(SimulationConfig(strategy, env, n, seed), keep_trace=True).trace
    assert run_single(strategy, env, seed) == _outcome_from_arrays(trace, 0)
