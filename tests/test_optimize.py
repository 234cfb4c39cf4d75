import math
import tracemalloc

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, ConfigError, GameEnvironment,
                        PopulationMean, ProfitMethod, AxisSpec, SweepGrid,
                        expected_profit, maximize_profit, nelder_mead,
                        profit_surface)
from ransomgame import optimize
from ransomgame.profit import profit_grid

I50 = 0.02


class TestNelderMead:
    def test_quadratic_bowl(self):
        f = lambda p: (p[0] - 1.3) ** 2 + 2.0 * (p[1] + 0.4) ** 2
        x, fx, n_evals, converged, history = nelder_mead(
            f, np.array([0.0, 0.0]), np.array([0.5, 0.5]),
            np.array([-5.0, -5.0]), np.array([5.0, 5.0]))
        assert converged
        assert x == pytest.approx([1.3, -0.4], abs=1e-4)
        assert fx < 1e-8
        assert n_evals == len(history) or n_evals > 0

    def test_respects_bounds(self):
        f = lambda p: (p[0] - 10.0) ** 2
        x, _, _, converged, _ = nelder_mead(
            f, np.array([0.5]), np.array([0.2]), np.array([0.0]), np.array([1.0]))
        assert converged
        assert x[0] == pytest.approx(1.0, abs=1e-5)

    def test_rosenbrock(self):
        f = lambda p: (1 - p[0]) ** 2 + 100.0 * (p[1] - p[0] ** 2) ** 2
        x, fx, _, _, _ = nelder_mead(
            f, np.array([-1.2, 1.0]), np.array([0.1, 0.1]),
            np.array([-5.0, -5.0]), np.array([5.0, 5.0]),
            diameter_tol=1e-8, max_iter=5000)
        assert x == pytest.approx([1.0, 1.0], abs=1e-3)


class TestMaximizeProfit:
    def test_recovers_reference_optimum(self, mean_env):
        opt = maximize_profit(mean_env)
        assert opt.converged
        assert opt.strategy.a == pytest.approx(4.68, abs=0.25)
        assert opt.strategy.i_beta == pytest.approx(0.091, abs=0.010)
        assert opt.strategy.i_sigma == pytest.approx(0.104, abs=0.010)
        assert opt.profit == pytest.approx(0.304, abs=0.005)

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
        from ransomgame.profit import profit_grid
        profit = lambda a, ib, isg: profit_grid([a], [ib], [isg], mean_env)[0, 0, 0]
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


class TestGridScanSlabs:
    def test_default_grid_is_one_slab(self):
        assert optimize.DEFAULT_GRID_POINTS ** 3 <= optimize._SLAB_NODES

    def test_memory_bounded_by_slab(self, mean_env):
        tracemalloc.start()
        try:
            opt = maximize_profit(mean_env, grid_points=160)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert opt.evaluations > 160 ** 3
        # The whole 160^3 cube alone is 31 MiB; one 2^20-node slab is 8 MiB.
        assert peak < 16 * 2 ** 20

    @pytest.mark.parametrize("slab_nodes", [1, 10, 20, 1 << 20])
    def test_first_maximum_matches_whole_cube(self, mean_env, monkeypatch, slab_nodes):
        # i_beta = 0 makes profit -i_sigma at every a, so every a-plane ties.
        axes = [np.linspace(0.5, 8.0, 9), np.array([0.0]), np.linspace(0.0, 0.2, 5)]
        cube = profit_grid(*axes, mean_env)
        assert np.sum(cube == cube.max()) == 9
        monkeypatch.setattr(optimize, "_SLAB_NODES", slab_nodes)
        best = optimize._grid_argmax(axes, mean_env)
        assert best == np.unravel_index(int(np.argmax(cube)), cube.shape)


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
