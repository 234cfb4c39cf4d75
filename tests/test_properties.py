"""Property-based checks under a fixed, derandomized Hypothesis profile."""

import math
from dataclasses import astuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from ransomgame import (AttackerStrategy, DomainError, FixedValue, GameEnvironment,  # noqa: E402
                        LognormalEstimator, PopulationMean, SeedSpec, SimulationConfig,
                        expected_profit, gross_multiplier_closed_form, run_single,
                        std_normal_ppf)
from ransomgame.optimize import DEFAULT_BOUNDS, maximize_profit  # noqa: E402
from ransomgame.profit import _closed_form_profit, profit_grid  # noqa: E402
from ransomgame.simulate import _outcome_from_arrays  # noqa: E402
from ransomgame.stochastics import _ERFCX_EDGES, _erfcx, _ppf  # noqa: E402
from conftest import run_traced  # noqa: E402
from test_kernel_bits import _reference_ppf, _reference_uniform_blocks  # noqa: E402

# The same examples on every run, so the suite stays deterministic.
settings.register_profile("ransomgame", derandomize=True, database=None, deadline=None,
                          max_examples=100)
settings.load_profile("ransomgame")

_WORD = st.integers(0, 2 ** 64 - 1)

# Whatever a caller might pass for a number: nan and infinities, integers
# too large for a float, numeric and non-numeric strings, and None.
_ANY_INPUT = st.one_of(st.floats(), st.integers(-10 ** 400, 10 ** 400),
                       st.floats().map(repr), st.text(max_size=6), st.none())


def _log_floats(lo_exp: float, hi_exp: float):
    """Floats 10**e for e drawn from [lo_exp, hi_exp]: every magnitude equally."""
    return st.floats(lo_exp, hi_exp).map(lambda e: 10.0 ** e)


_A_MAX_EXP = math.log10(1.7e308)
_MAGNITUDE = _log_floats(-300.0, 300.0)


@given(st.lists(st.integers(0, 2 ** 52 - 1), min_size=1, max_size=64))
def test_ppf_finite_and_antisymmetric_on_generator_grid(ks):
    u = (2.0 * np.array(ks, dtype=np.float64) + 1.0) * 2.0 ** -53
    z = _ppf(u)
    assert np.all(np.isfinite(z))
    assert np.array_equal(_ppf(1.0 - u), -z)
    assert z.tobytes() == _reference_ppf(u).tobytes()


@given(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                min_size=1, max_size=64))
def test_ppf_is_reference_ppf_bit_for_bit(us):
    want = _reference_ppf(np.array(us)).tobytes()
    assert _ppf(np.array(us)).tobytes() == want
    assert np.array([std_normal_ppf(v) for v in us]).tobytes() == want


@settings(max_examples=40)
@given(master=_WORD, stream=_WORD, n=st.integers(1, 3000), mu=st.floats(-300.0, 300.0),
       sigma=st.floats(0.0, 1.0, exclude_min=True))
def test_lognormal_sample_is_reference_bit_for_bit(master, stream, n, mu, sigma):
    seed = SeedSpec(master, stream)
    u = _reference_uniform_blocks(seed, 0, n)[:, 0]
    want = np.exp(mu + sigma * _reference_ppf(u))
    assert LognormalEstimator(mu, sigma).sample(seed, n).tobytes() == want.tobytes()


@settings(max_examples=40)
@given(master=_WORD, stream=_WORD, n=st.integers(1, 70_000),
       a=st.floats(0.01, 100.0), i_beta=st.floats(0.0, 1.0), i_sigma=st.floats(0.0, 1.0),
       x=st.floats(1e-3, 1e3))
def test_run_single_is_run_zero_of_batch(master, stream, n, a, i_beta, i_sigma, x):
    strategy = AttackerStrategy(a, i_beta, i_sigma)
    env = GameEnvironment(i_fifty=0.02, target_value=FixedValue(x))
    seed = SeedSpec(master, stream)
    _, trace = run_traced(SimulationConfig(strategy, env, n, seed))
    assert run_single(strategy, env, seed) == _outcome_from_arrays(trace, 0)


@given(a=_ANY_INPUT, i_beta=_ANY_INPUT, i_sigma=_ANY_INPUT, v=_ANY_INPUT)
def test_value_objects_hold_the_float_of_their_input(a, i_beta, i_sigma, v):
    for make, args in ((AttackerStrategy, (a, i_beta, i_sigma)), (FixedValue, (v,)),
                       (PopulationMean, (v,)),
                       (lambda i_fifty: GameEnvironment(i_fifty, FixedValue(1.0)), (v,))):
        try:
            held = astuple(make(*args))[:len(args)]
        except DomainError:
            continue
        assert all(type(h) is float and h == float(x) for h, x in zip(held, args))


@given(a=_log_floats(-300.0, _A_MAX_EXP), i_beta=_MAGNITUDE, i_sigma=_MAGNITUDE,
       i_fifty=_MAGNITUDE, m=_MAGNITUDE)
def test_expected_profit_is_finite_or_domain_error(a, i_beta, i_sigma, i_fifty, m):
    # Reaches a * a = inf with a * sigma small, and sigma underflowing to 0.
    try:
        value = expected_profit(AttackerStrategy(a, i_beta, i_sigma),
                                GameEnvironment(i_fifty, PopulationMean(m))).value
    except DomainError:
        return
    assert math.isfinite(value)


@given(a=_log_floats(-323.0, _A_MAX_EXP), sigma=_log_floats(-323.0, 0.0))
def test_gross_multiplier_lies_in_unit_interval(a, sigma):
    assert 0.0 < gross_multiplier_closed_form(a, sigma) <= 1.0


def _in_box(name):
    lo, hi = DEFAULT_BOUNDS[name]
    return _log_floats(math.log10(lo), math.log10(hi)).map(lambda v: min(max(v, lo), hi))


_MEAN_ENV = GameEnvironment(0.02, PopulationMean(1.0))


def _grid_profit(a, i_beta, i_sigma):
    return float(profit_grid([a], [i_beta], [i_sigma], _MEAN_ENV)[0, 0, 0])


@given(a=_in_box("a"), i_beta=_in_box("i_beta"), i_sigma=_in_box("i_sigma"))
def test_float_profit_is_profit_grid_bit_for_bit(a, i_beta, i_sigma):
    assert _closed_form_profit(a, i_beta, i_sigma, _MEAN_ENV) == _grid_profit(a, i_beta, i_sigma)


def test_float_profit_is_profit_grid_on_the_default_trace():
    trace = maximize_profit(_MEAN_ENV).trace
    assert [profit for _, profit in trace] == [_grid_profit(*point) for point, _ in trace]


# Near each branch edge as well as log-uniform over the whole range.
_ERFCX_ARG = st.one_of(st.just(0.0), _log_floats(-323.0, _A_MAX_EXP),
                       st.sampled_from(_ERFCX_EDGES).flatmap(
                           lambda e: st.floats(e * (1.0 - 1e-12), e * (1.0 + 1e-12))))


@given(x=_ERFCX_ARG, y=_ERFCX_ARG)
def test_erfcx_is_finite_positive_and_non_increasing(x, y):
    x, y = min(x, y), min(max(x, y), 1.7e308)
    fx, fy = _erfcx(x), _erfcx(y)
    assert math.isfinite(fx) and fy > 0.0
    # Neighbouring floats may come out a few ulps up, within erfcx's error
    # bound; beyond that the values never rise.
    assert fy <= fx * (1.0 + 12 * 2.0 ** -53)
