"""Strategy optimization, sweeps, and the simplex's bits.

``_reference_nelder_mead`` is the numpy simplex that the float one replaced.
``_reference_maximize_profit`` drives it through the profiled optimizer,
scanning node by node on floats with i_beta from ``_formula_i_beta``.  The
float simplex and the vectorised scan must return their bits: every point,
value, count and flag.
"""

import math
import tracemalloc
from functools import reduce
from operator import add

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, ConfigError, DomainError, ProfitMethod,
                        AxisSpec, SweepGrid,
                        expected_profit, gross_multiplier_closed_form, maximize_profit,
                        nelder_mead, profit_surface)
from ransomgame import optimize
from ransomgame.optimize import DEFAULT_BOUNDS, NM_COEFFICIENTS
from ransomgame.profit import _closed_form_profit, _profit_at

I50 = 0.02


def _reference_nelder_mead(func, x0, steps, bounds_lo, bounds_hi,
                           diameter_tol=1e-5, max_iter=2000):
    refl, expa, contr, shrink = NM_COEFFICIENTS
    dim = len(x0)

    def clip(x):
        return np.minimum(np.maximum(x, bounds_lo), bounds_hi)

    points = [clip(np.asarray(x0, dtype=np.float64))]
    for k in range(dim):
        p = points[0].copy()
        p[k] += steps[k]
        points.append(clip(p))
    values = [func(p) for p in points]
    n_evals = dim + 1
    history = []
    converged = False

    for _ in range(max_iter):
        order = sorted(range(dim + 1), key=lambda i: values[i])
        points = [points[i] for i in order]
        values = [values[i] for i in order]
        history.append((points[0].copy(), values[0]))

        spread = np.max(np.asarray(points), axis=0) - np.min(np.asarray(points), axis=0)
        if np.all(spread < diameter_tol):
            converged = True
            break

        centroid = np.mean(np.asarray(points[:-1]), axis=0)
        worst = points[-1]
        reflected = clip(centroid + refl * (centroid - worst))
        f_reflected = func(reflected)
        n_evals += 1

        if values[0] <= f_reflected < values[-2]:
            points[-1], values[-1] = reflected, f_reflected
            continue
        if f_reflected < values[0]:
            expanded = clip(centroid + expa * (centroid - worst))
            f_expanded = func(expanded)
            n_evals += 1
            if f_expanded < f_reflected:
                points[-1], values[-1] = expanded, f_expanded
            else:
                points[-1], values[-1] = reflected, f_reflected
            continue
        contracted = clip(centroid + contr * (worst - centroid))
        f_contracted = func(contracted)
        n_evals += 1
        if f_contracted < values[-1]:
            points[-1], values[-1] = contracted, f_contracted
            continue
        for i in range(1, dim + 1):
            points[i] = clip(points[0] + shrink * (points[i] - points[0]))
            values[i] = func(points[i])
        n_evals += dim

    best = int(np.argmin(values))
    return points[best], values[best], n_evals, converged, history


def _formula_i_beta(a, i_sigma, env):
    """sqrt(c * i_fifty) - i_fifty with c = a*G*M/(1+a), unclipped: the best i_beta."""
    i50 = env.i_fifty
    g = gross_multiplier_closed_form(a, i50 / (i50 + i_sigma))
    return math.sqrt(a * g / (1.0 + a) * env.mean_target_value * i50) - i50


def _reference_maximize_profit(env, bounds=None, grid_points=optimize.DEFAULT_GRID_POINTS):
    """The profiled optimizer node by node on floats, refined by the numpy simplex."""
    a_spec, beta_spec, sigma_spec = [
        AxisSpec(name, lo, hi, grid_points, "log")
        for name, (lo, hi) in {**DEFAULT_BOUNDS, **(bounds or {})}.items()]
    a_axis, s_axis = a_spec.values(), sigma_spec.values()

    def point(a, i_sigma):
        i_beta = min(max(_formula_i_beta(a, i_sigma, env), beta_spec.lo), beta_spec.hi)
        return (a, i_beta, i_sigma)

    # The first strict maximum in C order.
    best, best_value = None, -math.inf
    for j, a in enumerate(a_axis.tolist()):
        for k, i_sigma in enumerate(s_axis.tolist()):
            value = _closed_form_profit(*point(a, i_sigma), env)
            if value > best_value:
                best, best_value = (j, k), value
    steps = []
    for axis, k in zip((a_axis, s_axis), best):
        idx = min(k, len(axis) - 2)
        steps.append(0.5 * (axis[idx + 1] - axis[idx]))
    x_best, f_best, nm_evals, converged, history = _reference_nelder_mead(
        lambda p: -_closed_form_profit(*point(*p.tolist()), env),
        np.array([a_axis[best[0]], s_axis[best[1]]]), np.asarray(steps),
        np.array([a_spec.lo, sigma_spec.lo]), np.array([a_spec.hi, sigma_spec.hi]))
    trace = [(point(*p.tolist()), -v) for p, v in history]
    return optimize.StrategyOptimum(strategy=AttackerStrategy(*point(*x_best.tolist())),
                                    profit=-f_best, evaluations=grid_points ** 2 + nm_evals,
                                    converged=converged, trace=trace)


def assert_same_simplex(result, reference):
    """Float and numpy simplex results agree exactly, compared as floats."""
    (x, fx, n_evals, converged, history), (rx, rfx, rn, rconv, rhistory) = result, reference
    assert isinstance(x, tuple) and all(isinstance(p, tuple) for p, _ in history)
    assert list(x) == [float(v) for v in rx]
    assert (fx, n_evals, converged) == (rfx, rn, rconv)
    assert [(list(p), v) for p, v in history] == [([float(c) for c in p], v)
                                                  for p, v in rhistory]


def counted(func):
    """func, and a list that gains one entry per call."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return func(*args)
    return wrapper, calls


def _bowl(p):
    return (p[0] - 1.3) ** 2 + 2.0 * (p[1] + 0.4) ** 2


def _wall(p):
    return (p[0] - 10.0) ** 2


def _rosenbrock(p):
    return (1 - p[0]) ** 2 + 100.0 * (p[1] - p[0] ** 2) ** 2


# The three problems of TestNelderMead, as (func, x0, steps, lo, hi, options).
SIMPLEX_CASES = {
    "quadratic_bowl": (_bowl, [0.0, 0.0], [0.5, 0.5], [-5.0, -5.0], [5.0, 5.0], {}),
    "respects_bounds": (_wall, [0.5], [0.2], [0.0], [1.0], {}),
    "rosenbrock": (_rosenbrock, [-1.2, 1.0], [0.1, 0.1], [-5.0, -5.0], [5.0, 5.0],
                   {"diameter_tol": 1e-8, "max_iter": 5000}),
}


def run_both(func, x0, steps, lo, hi, **options):
    """nelder_mead on float lists and the numpy reference on arrays."""
    arrays = [np.array(v, dtype=np.float64) for v in (x0, steps, lo, hi)]
    return (nelder_mead(func, x0, steps, lo, hi, **options),
            _reference_nelder_mead(func, *arrays, **options))


class TestNelderMead:
    def test_quadratic_bowl(self):
        f, calls = counted(_bowl)
        x, fx, n_evals, converged, history = nelder_mead(
            f, np.array([0.0, 0.0]), np.array([0.5, 0.5]),
            np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        assert converged
        assert x == pytest.approx([1.3, -0.4], abs=1e-4)
        assert fx < 1e-8
        assert n_evals == len(calls)
        assert all(isinstance(p, tuple) for p, in calls)

    def test_respects_bounds(self):
        x, _, _, converged, _ = nelder_mead(
            _wall, np.array([0.5]), np.array([0.2]), np.array([0.0]), np.array([1.0]))
        assert converged
        assert x[0] == pytest.approx(1.0, abs=1e-5)

    def test_rosenbrock(self):
        x, fx, _, _, _ = nelder_mead(
            _rosenbrock, np.array([-1.2, 1.0]), np.array([0.1, 0.1]),
            np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
            diameter_tol=1e-8, max_iter=5000)
        assert x == pytest.approx([1.0, 1.0], abs=1e-3)

    @pytest.mark.parametrize("lo,hi", [([0.0, 2.0], [1.0, 1.0]),
                                       ([0.0, math.nan], [1.0, 1.0])])
    def test_reversed_box_rejected(self, lo, hi):
        # Clipping to a reversed side would put every point on its upper bound.
        f, calls = counted(_bowl)
        with pytest.raises(DomainError, match="lo <= hi"):
            nelder_mead(f, [0.5, 0.5], [0.1, 0.1], lo, hi)
        assert calls == []

    @pytest.mark.parametrize("case", sorted(SIMPLEX_CASES))
    def test_bits_match_numpy_reference(self, case):
        func, x0, steps, lo, hi, options = SIMPLEX_CASES[case]
        assert_same_simplex(*run_both(func, x0, steps, lo, hi, **options))

    def test_centroid_adds_left_to_right(self):
        # Start at 1 with a step of 1e16 in x: the best three vertices hold
        # x = 1e16, 1, 1 in that order.  Left to right, 1e16 + 1 rounds back
        # to 1e16 twice; math.fsum (and sum() from Python 3.12) gives 1e16 + 2.
        func = lambda p: ((p[0] - 1e16) / 1e16) ** 2 + (p[1] - 0.5) ** 2 + (p[2] - 0.5) ** 2
        x0, steps = [1.0, 0.0, 0.0], [1e16, 1.0, 1.0]
        lo, hi = [-1e17, -10.0, -10.0], [1e17, 10.0, 10.0]
        start = [tuple(x0)] + [tuple(v + steps[k] if j == k else v for j, v in enumerate(x0))
                               for k in range(3)]
        best_three = sorted(start, key=func)[:-1]
        columns = list(zip(*best_three))
        assert columns[0] == (1e16, 1.0, 1.0)
        assert [reduce(add, col) for col in columns] != [math.fsum(col) for col in columns]
        result, reference = run_both(func, x0, steps, lo, hi, max_iter=200)
        assert len(result[4]) > 1
        assert_same_simplex(result, reference)

class TestMaximizeProfit:
    def test_recovers_reference_optimum(self, mean_env):
        opt = maximize_profit(mean_env)
        assert opt.converged
        assert opt.strategy.a == pytest.approx(4.68, abs=0.25)
        assert opt.strategy.i_beta == pytest.approx(0.091, abs=0.010)
        assert opt.strategy.i_sigma == pytest.approx(0.104, abs=0.010)
        assert opt.profit == pytest.approx(0.304, abs=0.005)

    @pytest.mark.parametrize("bounds,grid_points", [
        (None, 64), (None, 8), (None, 16), (None, 24), ({"a": (0.1, 1.0)}, 24),
    ], ids=["default", "8", "16", "24", "a-below-optimum"])
    def test_bits_match_numpy_reference(self, mean_env, monkeypatch, bounds, grid_points):
        reference = _reference_maximize_profit(mean_env, bounds, grid_points)
        counter, calls = counted(_profit_at)
        monkeypatch.setattr(optimize, "_profit_at", counter)
        opt = maximize_profit(mean_env, bounds, grid_points)
        assert opt == reference
        # One call on the whole scan plane, then one per simplex evaluation.
        assert [isinstance(a, float) for a, *_ in calls] == [False] + [True] * (len(calls) - 1)
        assert opt.evaluations == grid_points ** 2 + len(calls) - 1

    def test_default_optimum_bits(self, mean_env):
        # The same bits on every Python version and SIMD level CI runs.
        opt = maximize_profit(mean_env)
        assert [v.hex() for v in (opt.strategy.a, opt.strategy.i_beta, opt.strategy.i_sigma,
                                  opt.profit)] == [
            "0x1.2b2a0fb127625p+2", "0x1.729d93df63cb8p-4", "0x1.a922a77260acdp-4",
            "0x1.38e49d7b40ce2p-2"]
        assert (opt.evaluations, opt.converged, len(opt.trace)) == (4164, True, 35)

    def test_profit_field_reevaluates(self, mean_env):
        opt = maximize_profit(mean_env, grid_points=16)
        direct = expected_profit(opt.strategy, mean_env, ProfitMethod.CLOSED_FORM).value
        assert opt.profit == pytest.approx(direct, abs=1e-9)

    def test_is_local_maximum(self, mean_env):
        opt = maximize_profit(mean_env)
        s = opt.strategy
        for delta in (1e-3, -1e-3):
            for point in ((s.a + delta, s.i_beta, s.i_sigma),
                          (s.a, s.i_beta + delta, s.i_sigma),
                          (s.a, s.i_beta, s.i_sigma + delta)):
                perturbed = expected_profit(AttackerStrategy(*point), mean_env).value
                assert perturbed <= opt.profit + 1e-12

    def test_one_dimensional_reduction(self, mean_env):
        # With a perfect estimate forced, the optimal reliability investment
        # has the closed form sqrt(a*m*i50/(a+1)) - i50.  Oracle: brute grid.
        a, m = 3.0, 1.0
        formula = math.sqrt(a * m * I50 / (a + 1.0)) - I50
        objective = lambda ib: (a / (a + 1.0)) * (ib / (ib + I50)) * m - ib
        grid = np.linspace(1e-4, 0.5, 20001)
        brute = grid[int(np.argmax([objective(v) for v in grid]))]
        assert formula == pytest.approx(brute, abs=(grid[1] - grid[0]))
        x, fx, _, converged, _ = nelder_mead(
            lambda p: -objective(p[0]), np.array([0.05]), np.array([0.02]),
            np.array([1e-4]), np.array([0.5]), diameter_tol=1e-8)
        assert converged
        assert x[0] == pytest.approx(formula, abs=1e-6)

    def test_bounds_excluding_optimum_hit_boundary(self, mean_env):
        opt = maximize_profit(mean_env, bounds={"a": (0.1, 1.0)}, grid_points=24)
        assert opt.strategy.a == pytest.approx(1.0, abs=1e-4)
        assert opt.profit < 0.304

    def test_restart_stability(self, mean_env, rng):
        profit = lambda a, ib, isg: _closed_form_profit(a, ib, isg, mean_env)
        lo = np.array([0.1, 0.001, 0.001])
        hi = np.array([20.0, 0.5, 0.5])
        steps = 0.25 * (hi - lo)
        results = []
        for _ in range(10):
            x0 = np.array([float(10.0 ** rng.uniform(-1.0, 1.3)),
                           float(rng.uniform(0.01, 0.4)),
                           float(rng.uniform(0.01, 0.4))])
            _, fx, _, _, _ = nelder_mead(lambda p: -profit(*p), x0, steps,
                                         lo, hi, max_iter=4000)
            results.append(-fx)
        assert max(results) - min(results) < 1e-4

    def test_strategy_inside_box(self, mean_env):
        opt = maximize_profit(mean_env, bounds={"a": (2.0, 3.0),
                                                "i_beta": (0.05, 0.2),
                                                "i_sigma": (0.05, 0.2)},
                              grid_points=12)
        assert 2.0 <= opt.strategy.a <= 3.0
        assert 0.05 <= opt.strategy.i_beta <= 0.2
        assert 0.05 <= opt.strategy.i_sigma <= 0.2

    def test_bad_bounds_rejected(self, mean_env):
        with pytest.raises(ConfigError):
            maximize_profit(mean_env, bounds={"a": (1.0, 1.0)})
        with pytest.raises(ConfigError):
            maximize_profit(mean_env, bounds={"q": (0.1, 1.0)})
        with pytest.raises(ConfigError):
            maximize_profit(mean_env, grid_points=1)

    def test_trace_records_history(self, mean_env):
        opt = maximize_profit(mean_env, grid_points=8)
        assert isinstance(opt.trace, list)
        assert opt.trace
        assert opt.trace[-1][1] == pytest.approx(opt.profit, abs=1e-9)

    @pytest.mark.parametrize("i_beta_box,where", [
        ((0.001, 0.5), "inside"), ((0.001, 0.05), "hi"), ((0.2, 0.5), "lo"),
    ])
    def test_i_beta_is_the_formula_or_a_box_edge(self, mean_env, i_beta_box, where):
        opt = maximize_profit(mean_env, {"i_beta": i_beta_box}, grid_points=16)
        s = opt.strategy
        lo, hi = i_beta_box
        formula = _formula_i_beta(s.a, s.i_sigma, mean_env)
        assert where == ("lo" if formula < lo else "hi" if formula > hi else "inside")
        assert s.i_beta == {"lo": lo, "hi": hi, "inside": formula}[where]
        assert opt.profit == _closed_form_profit(s.a, s.i_beta, s.i_sigma, mean_env)
        assert all(p[1] == min(max(_formula_i_beta(p[0], p[2], mean_env), lo), hi)
                   for p, _ in opt.trace)

    def test_scan_plane_is_the_float_objective(self, mean_env, monkeypatch):
        # An i_beta box that the formula leaves at some nodes on each side.
        box = (0.03, 0.06)
        planes = []

        def recording(*args):
            value = _profit_at(*args)
            if isinstance(value, np.ndarray):
                planes.append((args[:3], value))
            return value

        monkeypatch.setattr(optimize, "_profit_at", recording)
        maximize_profit(mean_env, {"i_beta": box}, grid_points=8)
        ((a, i_beta, i_sigma), plane), = planes
        a_axis = AxisSpec("a", 0.1, 20.0, 8, "log").values().tolist()
        s_axis = AxisSpec("i_sigma", 0.001, 0.5, 8, "log").values().tolist()
        assert (a.ravel().tolist(), i_sigma.ravel().tolist()) == (a_axis, s_axis)
        floats = [[min(max(_formula_i_beta(x, y, mean_env), box[0]), box[1]) for y in s_axis]
                  for x in a_axis]
        assert i_beta.tolist() == floats
        assert plane.tolist() == [[_closed_form_profit(x, b, y, mean_env)
                                   for y, b in zip(s_axis, row)]
                                  for x, row in zip(a_axis, floats)]
        formulas = [_formula_i_beta(x, y, mean_env) for x in a_axis for y in s_axis]
        assert min(formulas) < box[0] and max(formulas) > box[1]

    def test_scan_ties_go_to_the_smallest_a_and_i_sigma(self, mean_env, monkeypatch):
        # A flat profit ties every node, so the simplex starts at the box's low corner.
        monkeypatch.setattr(optimize, "_profit_at",
                            lambda a, i_beta, i_sigma, g, env: 0.0 * a * i_sigma)
        opt = maximize_profit(mean_env, grid_points=8)
        (a, _, i_sigma), _ = opt.trace[0]
        assert (a, i_sigma) == (0.1, 0.001)

    def test_memory_bounded_by_plane(self, mean_env):
        tracemalloc.start()
        try:
            opt = maximize_profit(mean_env, grid_points=160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.evaluations > 160 ** 2
        # A 160^3 cube alone is 31 MiB, and a 2^20-node slab of it 8 MiB;
        # a 160^2 plane is 200 KiB.
        assert peak < 4 * 2 ** 20

    def test_plane_past_numpy_addressing_is_memory_error(self, mean_env, monkeypatch):
        # Axes of 2^31 nodes take no memory as broadcast views, but a plane
        # of 2^62 floats is past what numpy can address.
        monkeypatch.setattr(AxisSpec, "values", lambda spec: np.broadcast_to(spec.lo, (spec.n,)))
        with pytest.raises(MemoryError, match="^a 2147483648 x 2147483648 profit grid "):
            maximize_profit(mean_env, grid_points=2 ** 31)


class TestProfitSurface:
    @pytest.mark.parametrize("axes,fixed", [
        ([AxisSpec("a", 0.5, 10.0, 9, "log")], {"i_beta": 0.091, "i_sigma": 0.104}),
        ([AxisSpec("i_beta", 0.01, 0.4, 24, "log"), AxisSpec("i_sigma", 0.01, 0.4, 24, "log")],
         {"a": 4.68}),
        ([AxisSpec("i_sigma", 0.001, 0.5, 7, "log"), AxisSpec("a", 0.1, 20.0, 6, "log")],
         {"i_beta": 0.09}),
        # i_beta = 0 makes profit -i_sigma at every a: the tie breaks to the smallest a.
        ([AxisSpec("i_sigma", 0.0, 0.2, 5), AxisSpec("a", 0.5, 8.0, 6)], {"i_beta": 0.0}),
        ([AxisSpec("i_sigma", 0.001, 0.5, 5, "log"), AxisSpec("a", 0.1, 20.0, 4, "log"),
          AxisSpec("i_beta", 0.01, 0.3, 6)], {}),
    ], ids=["1d", "i_beta-i_sigma", "i_sigma-a", "tied", "3d"])
    def test_values_match_direct_calls(self, mean_env, axes, fixed):
        grid = SweepGrid(axes=axes, fixed=fixed)
        surface = profit_surface(mean_env, grid)
        assert surface.values.shape == tuple(ax.n for ax in axes)
        nodes = []
        for idx in np.ndindex(*surface.values.shape):
            params = dict(fixed)
            params.update((ax.name, float(v[k]))
                          for ax, v, k in zip(axes, surface.axis_values, idx))
            strat = AttackerStrategy(**params)
            assert surface.values[idx] == expected_profit(strat, mean_env).value
            nodes.append((surface.values[idx], (strat.a, strat.i_beta, strat.i_sigma), idx))
        # Brute force: the lexicographically smallest maximizer.
        peak = max(v for v, _, _ in nodes)
        best_params, best_idx = min((p, idx) for v, p, idx in nodes if v == peak)
        assert surface.argmax_index == best_idx
        assert surface.argmax_strategy == AttackerStrategy(*best_params)
        assert surface.argmax_profit == surface.values[best_idx]

    @pytest.mark.parametrize("axes,fixed,grids", [
        # The cube, then its boolean finiteness mask.
        ([AxisSpec(name, 0.01, 0.5, 80, "log") for name in ("a", "i_beta", "i_sigma")], {}, 1.25),
        # The plane, while its cost i_beta + i_sigma, a plane too, is subtracted.
        ([AxisSpec("i_beta", 0.001, 0.5, 400, "log"), AxisSpec("i_sigma", 0.001, 0.5, 400, "log")],
         {"a": 4.68}, 2.25),
    ], ids=["3d", "2d"])
    def test_memory_bounded_by_the_result(self, mean_env, axes, fixed, grids):
        # A copy of the grid for M or for the cost would add one grid more.
        grid = SweepGrid(axes=axes, fixed=fixed)
        tracemalloc.start()
        try:
            surface = profit_surface(mean_env, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < grids * surface.values.nbytes

    def test_argmax_and_zero_contour(self, mean_env):
        grid = SweepGrid(axes=[AxisSpec("i_beta", 0.001, 0.5, 60, "log"),
                               AxisSpec("i_sigma", 0.001, 0.5, 60, "log")],
                         fixed={"a": 4.68})
        surface = profit_surface(mean_env, grid)
        assert surface.values[surface.argmax_index] == surface.argmax_profit
        # Heavy over-investment loses money, so a zero contour must exist.
        assert np.any(surface.values < 0.0) and np.any(surface.values > 0.0)
        assert surface.contours
        # Contour points lie close to zero profit: re-evaluate a sample.
        line = surface.contours[0]
        mid = line[len(line) // 2]
        strat = AttackerStrategy(4.68, float(mid[0]), float(mid[1]))
        assert abs(expected_profit(strat, mean_env).value) < 5e-3

    def test_high_investment_nodes_lose_money(self, mean_env):
        grid = SweepGrid(axes=[AxisSpec("i_beta", 0.3, 0.5, 8),
                               AxisSpec("i_sigma", 0.4, 0.6, 8)],
                         fixed={"a": 4.68})
        surface = profit_surface(mean_env, grid)
        assert np.all(surface.values < 0.0)

    def test_one_dimensional_sweep(self, mean_env):
        grid = SweepGrid(axes=[AxisSpec("a", 0.5, 10.0, 16, "log")],
                         fixed={"i_beta": 0.091, "i_sigma": 0.104})
        surface = profit_surface(mean_env, grid)
        assert surface.values.shape == (16,)
        assert surface.contours == []

    def test_grid_validation(self):
        with pytest.raises(ConfigError):
            SweepGrid(axes=[AxisSpec("a", 0.1, 1.0, 4)], fixed={})
        with pytest.raises(ConfigError):
            SweepGrid(axes=[AxisSpec("a", 0.1, 1.0, 4)],
                      fixed={"a": 1.0, "i_beta": 0.1, "i_sigma": 0.1})
        with pytest.raises(ConfigError):
            AxisSpec("a", 1.0, 0.1, 4)
        with pytest.raises(ConfigError):
            AxisSpec("a", 0.1, 1.0, 1)
        with pytest.raises(ConfigError):
            AxisSpec("a", -0.1, 1.0, 4, "log")
        with pytest.raises(ConfigError):
            AxisSpec("volatility", 0.1, 1.0, 4)
