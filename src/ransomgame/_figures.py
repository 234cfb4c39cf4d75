"""The ``figure`` and ``table`` commands: the model's figure data series and
its reference strategy table.

``cli`` binds its ``cmd_figure``, ``cmd_table`` and ``FIGURE_NAMES`` from
this module on first use, when one of the two commands runs or a parser
lists the figure names, so no other command compiles it.  What it
takes from ``cli`` is looked up there at call time, so a wrapper that a
profiler sets on ``cli``'s writers or optimizer with ``setattr`` runs here
too.
"""

from __future__ import annotations

import inspect
from dataclasses import asdict

import numpy as np

from . import cli
from .errors import ConfigError
from .game import (AttackerStrategy, FixedValue, GameEnvironment, aggression_probability,
                   defender_utility, demand_factor, estimate_scale, optimal_counteroffer,
                   optimal_play_profit, reliability)
from .optimize import AxisSpec, SweepGrid
from .profit import ProfitMethod, expected_profit
from .stochastics import lognormal_pdf

# The seven reference strategies: label, aggression, and the two investments.
STRATEGY_TABLE = (
    ("optimal", 4.68, 0.091, 0.104),
    ("low_aggression", 2.34, 0.091, 0.104),
    ("high_aggression", 9.36, 0.091, 0.104),
    ("low_reliability", 4.68, 0.041, 0.104),
    ("high_reliability", 4.68, 0.182, 0.104),
    ("low_accuracy", 4.68, 0.091, 0.052),
    ("high_accuracy", 4.68, 0.091, 0.208),
)


def _grid_with_value(lo: float, hi: float, n: int, include: float) -> np.ndarray:
    """Linear grid on [lo, hi] with the node nearest ``include`` snapped to it."""
    grid = np.linspace(lo, hi, n)
    if lo <= include <= hi:
        grid[int(np.argmin(np.abs(grid - include)))] = include
    return grid


def _figure_beta_curve(i_fifty, i_beta_max, points=251):
    grid = _grid_with_value(0.0, i_beta_max, points, i_fifty)
    return ["i_beta", "beta"], [grid, reliability(grid, i_fifty)], {"i_fifty": i_fifty}


def _figure_estimate_pdf(x, i_fifty, i_sigma_values, x_est_max, points=600):
    if not x > 0.0:
        raise ConfigError(f"x must be positive, got {x!r}")
    sigmas = [(isg, estimate_scale(isg, i_fifty)) for isg in i_sigma_values]
    grid = _grid_with_value(x_est_max / points, x_est_max, points, x)
    mu = float(np.log(x))
    names = ["x_est"] + [f"pdf_i_sigma_{isg:g}" for isg, _ in sigmas]
    columns = [grid] + [lognormal_pdf(grid, mu, s) for _, s in sigmas]
    return names, columns, {"x": x, "i_fifty": i_fifty}


def _figure_alpha_curve(a_values=(0.5, 1.0, 2.0, 5.0, 10.0), points=201):
    grid = np.linspace(0.0, 1.0, points)
    names = ["c_over_r"] + [f"alpha_a_{a:g}" for a in a_values]
    columns = [grid] + [aggression_probability(grid, 1.0, a) for a in a_values]
    return names, columns, {}


def _figure_utility_vs_demand(x, i_fifty, i_beta, a, c_max_values, r_max, points=400):
    beta = reliability(i_beta, i_fifty)
    kink = demand_factor(a, beta) * x
    grid = _grid_with_value(r_max / points, r_max, points, kink)
    names = ["demand", "utility_optimal"] + [f"utility_cmax_{c:g}" for c in c_max_values]
    c_optimal = optimal_counteroffer(grid, x, a, beta)
    columns = [grid, defender_utility(c_optimal, grid, x, a, beta)]
    columns += [defender_utility(np.minimum(grid, c_cap), grid, x, a, beta)
                for c_cap in c_max_values]
    return names, columns, {"kink_demand": kink, "beta": beta}


def _figure_profit_vs_estimate(x, i_fifty, i_beta, i_sigma, x_est_max,
                               a_values=(2.0, 5.0, 10.0, 20.0), points=600):
    env = GameEnvironment(i_fifty=i_fifty, target_value=FixedValue(x))
    grid = _grid_with_value(x_est_max / points, x_est_max, points, x)
    strategies = [AttackerStrategy(a=a, i_beta=i_beta, i_sigma=i_sigma) for a in a_values]
    names = ["x_est"] + [f"profit_a_{a:g}" for a in a_values]
    columns = [grid] + [optimal_play_profit(grid, x, s, env) for s in strategies]
    return names, columns, {"x": x, "i_beta": i_beta, "i_sigma": i_sigma}


_HEATMAP_PANELS = (("i_beta", "i_sigma", "a"),
                   ("a", "i_sigma", "i_beta"),
                   ("a", "i_beta", "i_sigma"))


def _figure_profit_heatmaps(i_fifty, m, a_lo, a_hi, inv_lo, inv_hi, points=200):
    """Three 2-D profit surfaces; the hidden parameter sits at its optimum."""
    env = cli._mean_env(i_fifty, m)
    opt = asdict(cli.maximize_profit(env).strategy)
    ranges = {"a": (a_lo, a_hi), "i_beta": (inv_lo, inv_hi), "i_sigma": (inv_lo, inv_hi)}

    panels = {}
    for p1, p2, hidden in _HEATMAP_PANELS:
        grid = SweepGrid(axes=[AxisSpec(p1, *ranges[p1], points, "log"),
                               AxisSpec(p2, *ranges[p2], points, "log")],
                         fixed={hidden: opt[hidden]})
        surface = cli.profit_surface(env, grid)
        argmax = surface.argmax_strategy
        meta = {f"fixed_{hidden}": opt[hidden],
                f"argmax_{p1}": getattr(argmax, p1),
                f"argmax_{p2}": getattr(argmax, p2),
                "argmax_profit": surface.argmax_profit}
        panels[f"{p1}__{p2}"] = ([p1, p2, "profit"], cli._surface_columns(surface), meta,
                                 surface.contours)
    return panels


def _emit_panels(args, params: dict, panels: dict):
    """One JSON file of panels, or per panel a table CSV and a contour CSV."""
    if args.format == "json":
        cli._write_json(args.out, {**cli._header("figure", params),
                                   "panels": {k: cli._json_table(*p) for k, p in panels.items()}})
        return
    config_line = cli._config_json("figure", params)
    stem = args.out.removesuffix(".csv")
    for key, (names, columns, meta, lines) in panels.items():
        cli._write_csv(f"{stem}.{key}.csv", config_line, cli._meta_lines(meta), names, *columns)
        polyline = np.repeat(np.arange(len(lines)), [len(line) for line in lines])
        points = np.concatenate(lines) if lines else np.empty((0, 2))
        cli._write_csv(f"{stem}.{key}.contour.csv", config_line, [],
                       ["polyline", *names[:2]], polyline, points[:, 0], points[:, 1])


# Each builder takes its parameters as keyword arguments, and the figure's
# header holds exactly those.  Builders return (column names, columns, meta),
# the heatmaps one such table per panel.
_FIGURES = {
    "beta_curve": _figure_beta_curve,
    "estimate_pdf": _figure_estimate_pdf,
    "alpha_curve": _figure_alpha_curve,
    "utility_vs_demand": _figure_utility_vs_demand,
    "profit_vs_estimate": _figure_profit_vs_estimate,
    "profit_heatmaps": _figure_profit_heatmaps,
}
FIGURE_NAMES = tuple(_FIGURES)


def cmd_figure(args, params) -> int:
    name = params["name"]
    if name is None:
        raise ConfigError(f"figure needs a name; expected one of {FIGURE_NAMES}")
    if name not in _FIGURES:
        raise ConfigError(f"unknown figure {name!r}; expected one of {FIGURE_NAMES}")
    builder = _FIGURES[name]
    used = {k: p.default if params[k] is None else params[k]
            for k, p in inspect.signature(builder).parameters.items()}
    if used["points"] < 2:
        raise ConfigError(f"points must be at least 2, got {used['points']}")
    header = {"name": name, **used}
    if name == "profit_heatmaps":
        _emit_panels(args, header, builder(**used))
    else:
        cli._emit(args, "figure", header, *builder(**used))
    return 0


def cmd_table(args, params) -> int:
    if params["what"] != "strategies":
        raise ConfigError(f"unknown table {params['what']!r}; expected 'strategies'")
    i_fifty, m = params["i_fifty"], params["m"]
    env = cli._mean_env(i_fifty, m)
    counteroffers = [demand_factor(a, reliability(i_beta, i_fifty)) * m
                     for _, a, i_beta, _ in STRATEGY_TABLE]
    profits = [expected_profit(AttackerStrategy(a=a, i_beta=i_beta, i_sigma=i_sigma), env,
                               ProfitMethod.CLOSED_FORM).value
               for _, a, i_beta, i_sigma in STRATEGY_TABLE]
    cli._emit(args, "table", params,
              ["strategy", "a", "i_beta", "i_sigma", "counteroffer", "expected_profit"],
              [*zip(*STRATEGY_TABLE), counteroffers, profits])
    return 0
