"""Property-based checks under a fixed, derandomized Hypothesis profile."""

import contextlib
import io
import json
import math
import os
import tempfile
import warnings
from dataclasses import astuple

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from ransomgame import (AttackerStrategy, DomainError, FixedValue, GameEnvironment,  # noqa: E402
                        PopulationMean, SeedSpec, SimulationConfig, aggression_probability,
                        attacker_profit_piecewise, defender_utility, demand_factor,
                        estimate_scale, expected_profit, gross_multiplier_closed_form,
                        optimal_counteroffer, optimal_play_profit, reliability, run_single)
from ransomgame._rows import Gathered, write_rows  # noqa: E402
from ransomgame._erfcx import _ERFCX_EDGES, _erfcx  # noqa: E402
from ransomgame._figures import FIGURE_NAMES  # noqa: E402
from ransomgame.cli import SCHEMAS, main  # noqa: E402
from ransomgame.optimize import (DEFAULT_BOUNDS, AxisSpec, SweepGrid, maximize_profit,  # noqa: E402
                                 profit_surface)
from ransomgame.profit import _best_i_beta, _closed_form_profit, _gross_multiplier  # noqa: E402
from ransomgame.simulate import _outcome_from_arrays  # noqa: E402
from ransomgame.stochastics import _ppf  # noqa: E402
from conftest import run_traced  # noqa: E402
from test_kernel_bits import _reference_ppf  # noqa: E402
from test_optimize import _a_slope  # noqa: E402

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
    # One element at a time, each rounds as it does in the whole array.
    assert np.concatenate([_ppf(np.array([v])) for v in us]).tobytes() == want


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


_STRATEGY = AttackerStrategy(4.68, 0.091, 0.104)
_FIXED_ENV = GameEnvironment(0.02, FixedValue(1.0))

# name -> (step, how many float arguments it takes).
_STEPS = {
    "reliability": (reliability, 2),
    "estimate_scale": (estimate_scale, 2),
    "demand_factor": (demand_factor, 2),
    "optimal_counteroffer": (optimal_counteroffer, 4),
    "aggression_probability": (aggression_probability, 3),
    "defender_utility": (defender_utility, 5),
    "attacker_profit_piecewise":
        (lambda r, x: attacker_profit_piecewise(r, x, _STRATEGY, _FIXED_ENV), 2),
    "optimal_play_profit":
        (lambda x_est, x: optimal_play_profit(x_est, x, _STRATEGY, _FIXED_ENV), 2),
}
# Steps with no power in them round every element as the float call does.
_EXACT_STEPS = {"reliability", "estimate_scale", "demand_factor", "optimal_counteroffer"}
# The arguments that bound the size of a power step's terms (c <= r, beta*x <= x).
_SIZE_ARGS = {"aggression_probability": (), "defender_utility": (1, 2),
              "attacker_profit_piecewise": (0, 1), "optimal_play_profit": (0, 1)}


def _float_calls(step, columns):
    """step on each element's floats, or None if some element raises DomainError."""
    try:
        return [step(*args) for args in zip(*columns)]
    except DomainError:
        return None


_UNIT = st.floats(0.0, 1.0)
_POSITIVE = _log_floats(-100.0, 100.0)


@st.composite
def _step_in_domain(draw, positive=_POSITIVE):
    """A step's name and its arguments as n-element lists, every element in its
    domain; ``positive`` draws the positive arguments."""
    name = draw(st.sampled_from(sorted(_STEPS)))
    n = draw(st.integers(0, 12))
    column = lambda values: draw(st.lists(values, min_size=n, max_size=n))
    if name in ("reliability", "estimate_scale"):
        return name, [column(st.one_of(st.just(0.0), positive)), column(positive)]
    if name == "demand_factor":
        return name, [column(positive), column(_UNIT)]
    if name in ("attacker_profit_piecewise", "optimal_play_profit"):
        return name, [column(positive), column(positive)]
    r, x, a, beta = column(positive), column(positive), column(positive), column(_UNIT)
    c = [f * v for f, v in zip(column(_UNIT), r)]  # f * r never rounds above r
    if name == "optimal_counteroffer":
        return name, [r, x, a, beta]
    if name == "aggression_probability":
        return name, [c, r, a]
    return name, [c, r, x, a, beta]


@given(_step_in_domain())
def test_array_step_is_its_float_step(drawn):
    name, columns = drawn
    step = _STEPS[name][0]
    want = np.array(_float_calls(step, columns), dtype=np.float64)
    got = step(*map(np.array, columns))
    assert isinstance(got, np.ndarray) and got.shape == want.shape
    if name in _EXACT_STEPS:
        assert got.tobytes() == want.tobytes()
    else:
        # numpy's power and libm's pow may round differently.
        scale = np.maximum.reduce([np.ones(len(want))]
                                  + [np.array(columns[i]) for i in _SIZE_ARGS[name]])
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def _warnings_of(call) -> list:
    """(category, message) of each warning that call() emits."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return [(w.category, str(w.message)) for w in caught]


# Up to the largest floats, where sums and differences overflow to inf.
@given(_step_in_domain(st.one_of(_log_floats(-300.0, _A_MAX_EXP),
                                 st.just(1.7976931348623157e308))))
def test_array_step_warns_as_its_float_step_does(drawn):
    name, columns = drawn
    step = _STEPS[name][0]
    assert _warnings_of(lambda: step(*map(np.array, columns))) == _warnings_of(
        lambda: _float_calls(step, columns))


# Mostly in every domain, so that many draws pass, with every kind of
# element that a domain rejects mixed in.
_ELEMENT = st.one_of(st.floats(0.0, 2.0),
                     st.sampled_from([math.nan, math.inf, -math.inf, -1.0, -5e-324]),
                     st.floats())


# demand_factor checks nothing: the kernel and _closed_form_profit call it on checked values.
@given(name=st.sampled_from(sorted(set(_STEPS) - {"demand_factor"})), n=st.integers(0, 6),
       data=st.data())
def test_array_step_raises_iff_a_float_step_does(name, n, data):
    step, arity = _STEPS[name]
    columns = [data.draw(st.lists(_ELEMENT, min_size=n, max_size=n)) for _ in range(arity)]
    # Extreme elements may overflow, which numpy reports as a warning.
    with np.errstate(all="ignore"):
        if _float_calls(step, columns) is None:
            with pytest.raises(DomainError):
                step(*map(np.array, columns))
        else:
            step(*map(np.array, columns))


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


def _array_profit(a, i_beta, i_sigma):
    """P at the node as the centre of a 3x3x3 cube, broadcast as a sweep broadcasts it."""
    a, i_beta, i_sigma = (np.array([0.5 * v, v, 2.0 * v]) for v in (a, i_beta, i_sigma))
    return float(_closed_form_profit(a[:, None, None], i_beta[:, None], i_sigma,
                                     _MEAN_ENV)[1, 1, 1])


@given(a=_in_box("a"), i_beta=_in_box("i_beta"), i_sigma=_in_box("i_sigma"))
def test_float_profit_is_the_array_element_bit_for_bit(a, i_beta, i_sigma):
    assert _closed_form_profit(a, i_beta, i_sigma, _MEAN_ENV) == _array_profit(a, i_beta, i_sigma)


def test_float_profit_is_the_array_element_on_the_default_trace():
    trace = maximize_profit(_MEAN_ENV).trace
    assert [profit for _, profit in trace] == [_array_profit(*point) for point, _ in trace]


_ENV = st.builds(lambda i_fifty, m: GameEnvironment(i_fifty, PopulationMean(m)),
                 _log_floats(-3.0, 0.0), _log_floats(-1.0, 1.0))


def _box(lo_exp, hi_exp, decades=2.0):
    """(lo, hi) with lo = 10**e for e in [lo_exp, hi_exp] and hi/lo in [2, 10**decades]."""
    return st.tuples(_log_floats(lo_exp, hi_exp), _log_floats(math.log10(2.0), decades)).map(
        lambda t: (t[0], t[0] * t[1]))


def _slack(peak, cost):
    """1e-12 of the larger of the terms that P is the difference of."""
    return 1e-12 * (abs(peak) + cost)


@given(env=_ENV, a=_log_floats(-1.0, 1.3), i_sigma=_log_floats(-3.0, 0.0), box=_box(-3.0, -0.5))
def test_best_i_beta_is_the_argmax_along_i_beta(env, a, i_sigma, box):
    axis = np.linspace(*box, 1001)
    profits = _closed_form_profit(a, axis, i_sigma, env)
    k = int(np.argmax(profits))
    best = _best_i_beta(a, _gross_multiplier(a, estimate_scale(i_sigma, env.i_fifty)), env,
                        *box)
    assert abs(best - axis[k]) <= axis[1] - axis[0]
    assert _closed_form_profit(a, best, i_sigma, env) >= profits[k] - _slack(profits[k],
                                                                              box[1] + i_sigma)


@given(env=_ENV, a_box=_box(-1.0, 1.0), beta_box=_box(-3.0, -0.5),
       sigma_box=_box(-3.0, -0.5), n=st.integers(3, 10))
def test_profiled_optimum_beats_the_3d_grid(env, a_box, beta_box, sigma_box, n):
    bounds = {"a": a_box, "i_beta": beta_box, "i_sigma": sigma_box}
    opt = maximize_profit(env, bounds, grid_points=n)
    peak = profit_surface(env, SweepGrid([AxisSpec(name, lo, hi, n, "log")
                                          for name, (lo, hi) in bounds.items()])).argmax_profit
    assert opt.profit >= peak - _slack(peak, beta_box[1] + sigma_box[1])


@given(env=_ENV, a_box=_box(-1.0, 1.0, 300.0), beta_box=_box(-3.0, -0.5, 100.0),
       sigma_box=_box(-3.0, -0.5, 100.0), n=st.integers(2, 10))
def test_optimum_is_no_worse_than_a_dense_log_scan(env, a_box, beta_box, sigma_box, n):
    # Sides may span hundreds of decades, where a linear-step search stalls.
    bounds = {"a": a_box, "i_beta": beta_box, "i_sigma": sigma_box}
    opt = maximize_profit(env, bounds, grid_points=n)
    a, i_sigma = (np.geomspace(*bounds[name], 400) for name in ("a", "i_sigma"))
    a = a[:, None]
    g = _gross_multiplier(a, env.i_fifty / (env.i_fifty + i_sigma))
    i_beta = np.clip(np.sqrt(a * g / (1.0 + a) * env.mean_target_value * env.i_fifty)
                     - env.i_fifty, *beta_box)
    scan = _closed_form_profit(a, i_beta, i_sigma, env)
    k = np.unravel_index(int(np.argmax(scan)), scan.shape)
    peak = float(scan[k])
    assert opt.converged
    assert opt.profit >= peak - _slack(peak, float(i_beta[k]) + float(i_sigma[k[1]]))


@given(sigma=st.floats(0.0, 1.0, exclude_min=True))
def test_inner_slope_changes_sign_at_most_once_in_a(sigma):
    # So h = a G(a, sigma)/(1 + a) has one peak in a, and the optimizer's
    # guard need not scan a.
    signs = [_a_slope(a, sigma) > 0.0 for a in np.geomspace(1e-6, 1e12, 4001).tolist()]
    assert sum(x != y for x, y in zip(signs, signs[1:])) <= 1


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


def _written(column) -> list:
    """The cells write_rows writes for one column."""
    buf = io.StringIO()
    write_rows(buf, [column])
    return buf.getvalue().split("\n")[:-1]


# The double nearest (m + 1/2)·10^(e-8): a 9-digit mantissa m followed by an
# exact or nearly exact tie, for e in [-6, 10].
_HALFWAY = st.builds(lambda m, e, sign: sign * float(f"{m}5e{e - 9}"),
                     st.integers(10 ** 8, 10 ** 9 - 1), st.integers(-6, 10),
                     st.sampled_from([1.0, -1.0]))


@given(st.lists(st.one_of(st.floats(), _HALFWAY), min_size=1, max_size=64))
def test_written_floats_are_percent_9g(values):
    # Subnormals, -0.0, infinities and nan included.
    assert _written(np.array(values)) == ["%.9g" % v for v in values]


@given(st.lists(st.one_of(st.floats(), _HALFWAY), min_size=1, max_size=64).flatmap(
    lambda values: st.tuples(st.just(values),
                             st.lists(st.integers(0, len(values) - 1), min_size=1, max_size=64))))
def test_gathered_floats_write_the_cells_of_their_values(values_index):
    # Subnormals, -0.0, infinities and nan included; the index may repeat.
    values, index = np.array(values_index[0]), np.array(values_index[1], np.uint8)
    assert _written(Gathered(values, index)) == _written(values[index])


@given(st.lists(st.integers(-2 ** 63, 2 ** 63 - 1), min_size=1, max_size=64),
       st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64),
       st.lists(st.booleans(), min_size=1, max_size=64))
def test_written_integers_are_percent_d(signed, unsigned, flags):
    for values, dtype in ((signed, np.int64), (unsigned, np.uint64), (flags, bool)):
        assert _written(np.array(values, dtype=dtype)) == ["%d" % v for v in values]


# Rounding across 1e9 and 1e-4, the largest and smallest floats, exact ties
# and powers of ten, where an estimate of e from log10 may be off.
_FLOAT_EDGES = [999999999.5, 999999999.4999999, 9.9999999995e-05, 9.99999999949e-05,
                99999.99995, 0.0001, 1e-4 * (1 - 2 ** -52), 1e9, 1e-5, 5e-324,
                2.2250738585072014e-308, 1.7976931348623157e308, 0.5, 1.0, 10.0, 0.1, 0.3,
                123456789.5, 100000000.5]
_INT_EDGES = [(-2 ** 63, np.int64), (2 ** 63 - 1, np.int64), (2 ** 64 - 1, np.uint64),
              (0, np.int64), (-1, np.int8), (True, bool), (False, bool)]


@pytest.mark.parametrize("value", _FLOAT_EDGES + [-v for v in _FLOAT_EDGES])
def test_written_boundary_floats(value):
    assert _written(np.array([value, 0.25])) == ["%.9g" % value, "0.25"]


@pytest.mark.parametrize("value,dtype", _INT_EDGES)
def test_written_boundary_integers(value, dtype):
    assert _written(np.array([value, 1], dtype=dtype)) == ["%d" % value, "1"]


# CLI values that are empty, malformed, out of domain, at float64's edges,
# lists, axes and fixed parameters.  No integer exceeds 50, so that no
# command runs long.
_CLI_VALUES = ("", "x", "nan", "-1", "0", "3", "50", "1e308", "1e-320", "1,2",
               "a:1:2:3", "i_beta:0.01:0.5:3:log", "a:1:2", "a=2", "i_beta=0.1",
               "i_sigma=0.1")
_POSITIONAL = {"figure": ("name", FIGURE_NAMES + ("x",)), "table": ("what", ("strategies", "x"))}
_REPEATED = {"axes": "--axis", "fixed": "--fix"}


def _config_value(text):
    """The JSON value a config file would hold for ``text``."""
    try:
        return json.loads(text)
    except ValueError:
        return text


@st.composite
def _cli_calls(draw):
    """(command, positional args, flag args, config params) for one invocation."""
    command = draw(st.sampled_from(sorted(SCHEMAS)))
    positional, choices = _POSITIONAL.get(command, (None, ()))
    names = [name for name in SCHEMAS[command] if name != positional]
    drawn = draw(st.dictionaries(st.sampled_from(names),
                                 st.lists(st.sampled_from(_CLI_VALUES), min_size=1, max_size=3),
                                 max_size=4))
    flags, params = [], {}
    for name, values in drawn.items():
        if name in _REPEATED:
            flags += [arg for v in values for arg in (_REPEATED[name], v)]
            params[name] = [_config_value(v) for v in values]
        else:
            flags += ["--" + name.replace("_", "-"), values[0]]
            params[name] = _config_value(values[0])
    args = [draw(st.sampled_from(choices))] if choices else []
    if args:
        params[positional] = args[0]
    return command, args, flags + ["--format", draw(st.sampled_from(["csv", "json"]))], params


def _run_cli(argv):
    """Run main, which must exit 0, 2 or 3 and on failure leave no output file."""
    with tempfile.TemporaryDirectory() as directory:
        with contextlib.redirect_stderr(io.StringIO()):
            code = main([*argv, "--out", os.path.join(directory, "o.csv")])
        assert code in (0, 2, 3)
        if code != 0:
            assert os.listdir(directory) == []


@given(_cli_calls())
# Drawn examples seldom complete a sweep or reach a numerical failure.
@example(("sweep", [], ["--axis", "a:1:2:3", "--fix", "i_beta=0.1", "--fix", "i_sigma=0.1",
                        "--format", "json"],
          {"axes": ["a:1:2:3"], "fixed": ["i_beta=0.1", "i_sigma=0.1"]}))
@example(("figure", ["estimate_pdf"], ["--i-fifty", "1e-320", "--format", "csv"],
          {"name": "estimate_pdf", "i_fifty": 1e-320}))
def test_cli_exits_0_2_or_3_and_leaves_no_file_on_failure(call):
    command, args, flags, params = call
    _run_cli([command, *args, *flags])
    with tempfile.TemporaryDirectory() as directory:
        config = os.path.join(directory, "c.json")
        with open(config, "w") as f:
            json.dump({"version": 1, "command": command, "params": params}, f)
        _run_cli([command, "--config", config, "--format", flags[-1]])
