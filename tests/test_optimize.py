"""Strategy optimization, its root solves, and sweeps."""

import math
import tracemalloc

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, ConfigError, ProfitMethod, AxisSpec, SweepGrid,
                        expected_profit, gross_multiplier_closed_form, maximize_profit,
                        profit_surface)
from ransomgame import _erfcx as _erfcx_module, game, optimize, profit
from ransomgame._erfcx import _erfcx, _x_slope
from ransomgame.optimize import _peak
from ransomgame.profit import _closed_form_profit

I50 = 0.02
# The optimum in the default box, 0.3055596 to 7 digits, which both boxes
# below contain.
OPTIMUM_PROFIT = 0.3055595976
# Boxes with a side that spans hundreds of decades.
WIDE_BOXES = {
    "a-to-1e300": ({"a": (0.1, 1e300)}, 8),
    "costs-to-1e308": ({"i_beta": (0.001, 1e308), "i_sigma": (0.001, 1e308)}, 64),
}


def _formula_i_beta(a, i_sigma, env):
    """sqrt(c * i_fifty) - i_fifty with c = a*G*M/(1+a), unclipped: the best i_beta."""
    i50 = env.i_fifty
    g = gross_multiplier_closed_form(a, i50 / (i50 + i_sigma))
    return math.sqrt(a * g / (1.0 + a) * env.mean_target_value * i50) - i50


def counted(func):
    """func, and a list that gains one entry per call."""
    calls = []

    def wrapper(*args):
        calls.append(args)
        return func(*args)
    return wrapper, calls


def _a_slope(a, sigma):
    """d ln h/d ln a for h(a) = a G(a, sigma)/(1 + a): the inner solve's condition."""
    s, y = sigma / math.sqrt(2.0), a * sigma / math.sqrt(2.0)
    return 1.0 / (1.0 + a) + 2.0 * _x_slope(y, _erfcx(y)) / (_erfcx(s) + _erfcx(y))


class TestRootSolve:
    @pytest.mark.parametrize("scale", [1.0, 1e-300, 1e300])
    def test_root_of_a_falling_slope(self, scale):
        # At 1e-300 a product of two slopes underflows to 0; at 1e300 it overflows.
        slope, calls = counted(lambda x: scale * (2.0 - x ** 3))
        assert _peak(slope, 1e-3, 5.0) == pytest.approx(2.0 ** (1.0 / 3.0), rel=1e-10)
        assert len(calls) < 20

    def test_bisects_past_infinite_slopes(self):
        # Interpolation through an infinite value makes no progress.
        slope = lambda x: math.inf if x < 0.5 else -math.inf if x > 2.0 else 1.0 - x
        assert _peak(slope, 1e-300, 1e300) == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("slope,root", [
        (lambda x: 1.0 - x, 1.0),
        (lambda x: -1.0, 1e-3),  # falls everywhere: the low edge
        (lambda x: 1.0, 1e300),  # rises everywhere: the high edge
        (lambda x: 1e-300 * (1e200 - x), 1e200),
    ])
    def test_peak_is_the_root_or_the_edge_slope_points_to(self, slope, root):
        assert _peak(slope, 1e-3, 1e300) == pytest.approx(root, rel=1e-9)

    def test_peak_returns_the_exact_edges(self):
        assert _peak(lambda x: -1.0, 0.1, 0.7) == 0.1
        assert _peak(lambda x: 1.0, 0.1, 0.7) == 0.7

    @pytest.mark.parametrize("sigma", [1e-4, 0.01, 0.16, 0.5, 1.0])
    def test_inner_root_is_the_peak_of_h(self, sigma):
        a = _peak(lambda x: _a_slope(x, sigma), 1e-3, 1e4)
        h = lambda x: x * gross_multiplier_closed_form(x, sigma) / (1.0 + x)
        grid = np.geomspace(1e-3, 1e4, 20001).tolist()
        k = max(range(len(grid)), key=lambda i: h(grid[i]))
        assert grid[k - 1] <= a <= grid[k + 1]
        assert h(a) >= h(grid[k])


class TestMaximizeProfit:
    def test_recovers_reference_optimum(self, mean_env):
        opt = maximize_profit(mean_env)
        assert opt.converged
        assert opt.strategy.a == pytest.approx(4.68, abs=0.25)
        assert opt.strategy.i_beta == pytest.approx(0.091, abs=0.010)
        assert opt.strategy.i_sigma == pytest.approx(0.104, abs=0.010)
        assert opt.profit == pytest.approx(0.304, abs=0.005)

    @pytest.mark.parametrize("bounds,grid_points", WIDE_BOXES.values(), ids=WIDE_BOXES)
    def test_boxes_spanning_many_decades_reach_the_optimum(self, mean_env, bounds,
                                                           grid_points):
        opt = maximize_profit(mean_env, bounds, grid_points)
        assert opt.converged
        assert opt.profit == pytest.approx(OPTIMUM_PROFIT, abs=1e-9)
        assert opt.strategy.a == pytest.approx(4.674443, rel=1e-6)

    @pytest.mark.parametrize("bounds,grid_points", [
        (None, 64), (None, 8), (None, 16), (None, 24), ({"a": (0.1, 1.0)}, 24),
        ({"i_beta": (0.001, 0.05)}, 16),
    ], ids=["default", "8", "16", "24", "a-below-optimum", "i_beta-edge"])
    def test_solved_point_meets_its_first_order_conditions(self, mean_env, monkeypatch,
                                                           bounds, grid_points):
        counter, calls = counted(_x_slope)
        monkeypatch.setattr(optimize, "_x_slope", counter)
        opt = maximize_profit(mean_env, bounds, grid_points)
        # One x_slope per inner condition and two per i_sigma, an outer iterate
        # or a guard node, each of which counts as one condition.
        assert opt.evaluations == len(calls) - len(opt.trace) - grid_points
        assert opt.converged
        s = opt.strategy
        sigma = I50 / (I50 + s.i_sigma)
        a_lo, a_hi = (bounds or {}).get("a", optimize.DEFAULT_BOUNDS["a"])
        # d ln h/d ln a is 0 at an interior a, and points out of the box at an edge.
        residual = _a_slope(s.a, sigma)
        assert (abs(residual) < 1e-9 or (s.a == a_hi and residual > 0.0)
                or (s.a == a_lo and residual < 0.0))
        # In i_sigma: a small step either way loses profit.
        for step in (1e-5, -1e-5):
            moved = maximize_profit(mean_env, {**(bounds or {}), "i_sigma": (
                s.i_sigma * (1.0 + step), s.i_sigma * (1.0 + step) * 1.000001)}, 2)
            assert moved.profit <= opt.profit

    def test_default_optimum_bits(self, mean_env):
        # The same bits on every Python version and SIMD level CI runs.
        opt = maximize_profit(mean_env)
        assert [v.hex() for v in (opt.strategy.a, opt.strategy.i_beta, opt.strategy.i_sigma,
                                  opt.profit)] == [
            "0x1.2b2a148ce51e2p+2", "0x1.729d99d6a418ep-4", "0x1.a922dd6d49393p-4",
            "0x1.38e49d7b41be0p-2"]
        assert (opt.evaluations, opt.converged, len(opt.trace)) == (334, True, 11)

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
        # The root of its derivative, as the optimizer solves for a and i_sigma.
        slope = lambda ib: (a / (a + 1.0)) * m * I50 / (ib + I50) ** 2 - 1.0
        assert _peak(slope, 1e-4, 0.5) == pytest.approx(formula, rel=1e-9)

    def test_bounds_excluding_optimum_hit_boundary(self, mean_env):
        opt = maximize_profit(mean_env, bounds={"a": (0.1, 1.0)}, grid_points=24)
        assert opt.strategy.a == 1.0
        assert opt.profit < 0.304

    def test_restart_stability(self, mean_env, rng):
        # Any box around the optimum, at any scan resolution, finds the same peak.
        reference = maximize_profit(mean_env).profit
        for _ in range(10):
            bounds = {name: (opt * 10.0 ** -rng.uniform(0.1, 3.0),
                             opt * 10.0 ** rng.uniform(0.1, 3.0))
                      for name, opt in (("a", 4.67), ("i_beta", 0.0905), ("i_sigma", 0.104))}
            opt = maximize_profit(mean_env, bounds, int(rng.integers(2, 40)))
            assert opt.converged
            assert opt.profit == pytest.approx(reference, abs=1e-14)

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
        # The box's i_sigma edges first, then iterates that close on the root.
        assert [p[2] for p, _ in opt.trace[:2]] == [0.001, 0.5]
        assert opt.trace[-1][1] == pytest.approx(opt.profit, abs=1e-9)
        assert max(opt.trace, key=lambda entry: entry[1]) == (
            (opt.strategy.a, opt.strategy.i_beta, opt.strategy.i_sigma), opt.profit)

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

    def test_scan_node_that_beats_the_solve_is_the_result(self, mean_env, monkeypatch):
        # With demand_factor taken as 0, dP/d i_sigma is -1 everywhere: the
        # outer solve stops at the low edge, far below the guard's best node.
        monkeypatch.setattr(optimize, "demand_factor", lambda a, beta: 0.0)
        opt = maximize_profit(mean_env, grid_points=16)
        assert not opt.converged
        assert [p[2] for p, _ in opt.trace] == [0.001]
        step = (math.log(0.5) - math.log(0.001)) / 15
        nodes = [0.001, *(math.exp(math.log(0.001) + k * step) for k in range(1, 15)), 0.5]
        points = []
        for y in nodes:
            sigma = I50 / (I50 + y)
            x = _peak(lambda v: _a_slope(v, sigma), 0.1, 20.0)
            points.append((x, min(max(_formula_i_beta(x, y, mean_env), 0.001), 0.5), y))
        profits = [_closed_form_profit(*point, mean_env) for point in points]
        best = profits.index(max(profits))
        assert (opt.strategy.a, opt.strategy.i_beta, opt.strategy.i_sigma) == points[best]
        assert opt.profit == profits[best] > opt.trace[0][1]

    def test_guard_ties_go_to_the_smallest_i_sigma(self, mean_env, monkeypatch):
        # P is -1 inside the outer solve and a flat 0 at every guard node: each
        # node beats the solve, and the first, at the low edge, wins.
        depth = [0]

        def peak(*args):
            depth[0] += 1
            try:
                return _peak(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(optimize, "_peak", peak)
        monkeypatch.setattr(optimize, "_profit_at", lambda *args: -1.0 if depth[0] else 0.0)
        opt = maximize_profit(mean_env, grid_points=8)
        assert not opt.converged
        assert opt.profit == 0.0
        # The outer solve tries the low edge first, at the same best a and i_beta.
        assert opt.trace[0] == ((opt.strategy.a, opt.strategy.i_beta, 0.001), -1.0)
        assert opt.strategy.i_sigma == 0.001

    def test_grid_points_past_the_cap_is_config_error(self, mean_env):
        # Each node costs an inner solve, so a huge count would run for ever.
        assert maximize_profit(mean_env, grid_points=4096).converged
        with pytest.raises(ConfigError, match=r"^grid_points must be at most 4096, got 4097$"):
            maximize_profit(mean_env, grid_points=4097)

    def test_makes_no_numpy_call(self, mean_env, monkeypatch):
        class NoNumpy:
            def __getattr__(self, name):
                raise AssertionError(f"numpy.{name} used")

        for module in (optimize, profit, _erfcx_module, game):
            monkeypatch.setattr(module, "np", NoNumpy())
        opt = maximize_profit(mean_env, WIDE_BOXES["a-to-1e300"][0])
        assert opt.converged
        assert opt.profit == pytest.approx(OPTIMUM_PROFIT, abs=1e-9)


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
