import math
import pathlib
import sys

try:
    import ransomgame  # noqa: F401
except ImportError:  # running from a source checkout without installing
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, FixedValue, GameEnvironment,
                        PopulationMean, SimulationTrace, run_batch)
from ransomgame.simulate import _TRACE_ARRAYS

I50 = 0.02
OPTIMAL = (4.68, 0.091, 0.104)


def std_normal_cdf(z: float) -> float:
    """Phi(z) through libm's erfc: the package has no normal CDF of its own, so
    the closed form, the quantile and the sampled estimates are checked
    against this one."""
    return 0.5 * math.erfc(-z / math.sqrt(2.0))


@pytest.fixture
def optimal_strategy():
    return AttackerStrategy(*OPTIMAL)


@pytest.fixture
def fixed_env():
    return GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0))


@pytest.fixture
def mean_env():
    return GameEnvironment(i_fifty=I50, target_value=PopulationMean(1.0))


@pytest.fixture
def rng():
    return np.random.default_rng(20220920)


def run_traced(config, workers=1):
    """``(report, trace)``: run_batch and every run's records, gathered by on_chunk.

    A chunk's arrays are reused once on_chunk returns, so each is copied.
    """
    parts = []
    report = run_batch(config, workers, on_chunk=lambda chunk, first_run: parts.append(
        [getattr(chunk, name).copy() for name in _TRACE_ARRAYS]))
    trace = SimulationTrace(config.environment.target_value.value,
                            *map(np.concatenate, zip(*parts)))
    return report, trace
