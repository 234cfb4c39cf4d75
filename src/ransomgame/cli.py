"""Command-line interface.

Subcommands reproduce the model's figure data series and strategy table,
and run simulations, optimizations, and parameter sweeps from flags or a
JSON config file.  Every output embeds the effective config in its header,
so any file can be regenerated bit-identically from its own header.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from . import __version__
from ._rows import write_rows
from .errors import ConfigError, DomainError, NumericalError
from .game import (AttackerStrategy, FixedValue, GameEnvironment, PopulationMean,
                   aggression_probability, defender_utility, demand_factor,
                   estimate_scale, optimal_counteroffer, optimal_play_profit,
                   reliability)
from .optimize import (DEFAULT_BOUNDS, DEFAULT_GRID_POINTS, AxisSpec, SweepGrid,
                       maximize_profit, profit_surface)
from .profit import ProfitMethod, expected_profit
from .simulate import SimulationConfig, run_batch, write_trace_csv
from .stochastics import SeedSpec, lognormal_pdf

CONFIG_VERSION = 1

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


def _float_list(text):
    parts = text if isinstance(text, (list, tuple)) else \
        [part for part in str(text).split(",") if part != ""]
    try:
        values = [float(v) for v in parts]
    except (TypeError, ValueError):
        raise ConfigError(f"expected a comma-separated list of numbers, got {text!r}") from None
    if not values:
        raise ConfigError(f"expected at least one number, got {text!r}")
    return values


def integer(value):
    """An int from an int or an integral string; never truncates a float."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


def count(value):
    """An array length; beyond what numpy can address it is out of memory.

    numpy reports such a size as a ValueError, not as a MemoryError.
    """
    n = integer(value)
    if n > sys.maxsize // 8:
        raise MemoryError(f"{n} float64 values exceed the largest possible array")
    return n


def _axis_list(value):
    """Axis specs from config entries or name:lo:hi:n[:scale] CLI strings."""
    axes = []
    for item in value:
        if isinstance(item, dict):
            unknown = set(item) - {"name", "lo", "hi", "n", "scale"}
            if unknown:
                raise ConfigError(f"unknown axis keys: {sorted(unknown)}")
            try:
                name, lo, hi, n = item["name"], item["lo"], item["hi"], item["n"]
            except KeyError as e:
                raise ConfigError(f"axis spec missing key {e}") from None
            scale = item.get("scale", "linear")
        else:
            parts = str(item).split(":")
            if len(parts) not in (4, 5):
                raise ConfigError(
                    f"axis spec must be name:lo:hi:n[:scale], got {item!r}")
            name, lo, hi, n = parts[:4]
            scale = parts[4] if len(parts) == 5 else "linear"
        try:
            lo, hi, n = float(lo), float(hi), count(n)
        except (TypeError, ValueError):
            raise ConfigError(f"malformed axis spec {item!r}") from None
        axes.append(AxisSpec(name=name, lo=lo, hi=hi, n=n, scale=scale))
    return axes


def _fix_dict(value):
    if isinstance(value, dict):
        return {str(k): float(v) for k, v in value.items()}
    fixed = {}
    for item in value:
        name, _, num = str(item).partition("=")
        if not num:
            raise ConfigError(f"fixed parameter must be name=value, got {item!r}")
        try:
            fixed[name] = float(num)
        except ValueError:
            raise ConfigError(f"malformed fixed parameter {item!r}") from None
    return fixed


# Parameter schemas: name -> (converter, default).  The effective values are
# embedded in every output header.
SCHEMAS = {
    "figure": {
        "name": (str, None),
        "x": (float, 1.0),
        "i_fifty": (float, 0.02),
        "i_beta": (float, 0.1),
        "i_sigma": (float, 0.1),
        "a": (float, 10.0),
        "m": (float, 1.0),
        "points": (count, None),
        "i_beta_max": (float, 0.5),
        "x_est_max": (float, 3.0),
        "r_max": (float, 2.0),
        "a_values": (_float_list, None),
        "i_sigma_values": (_float_list, [0.0, 0.01, 0.02, 0.05, 0.1]),
        "c_max_values": (_float_list, [0.6, 0.7, 0.8]),
        "a_lo": (float, 0.1),
        "a_hi": (float, 20.0),
        "inv_lo": (float, 0.001),
        "inv_hi": (float, 0.5),
    },
    "table": {
        "what": (str, "strategies"),
        "i_fifty": (float, 0.02),
        "m": (float, 1.0),
    },
    "simulate": {
        "a": (float, 4.68),
        "i_beta": (float, 0.091),
        "i_sigma": (float, 0.104),
        "i_fifty": (float, 0.02),
        "x": (float, 1.0),
        "n_runs": (count, 10000),
        "master_seed": (integer, 0),
        "stream_index": (integer, 0),
    },
    "optimize": {
        "i_fifty": (float, 0.02),
        "m": (float, 1.0),
        "a_lo": (float, DEFAULT_BOUNDS["a"][0]),
        "a_hi": (float, DEFAULT_BOUNDS["a"][1]),
        "i_beta_lo": (float, DEFAULT_BOUNDS["i_beta"][0]),
        "i_beta_hi": (float, DEFAULT_BOUNDS["i_beta"][1]),
        "i_sigma_lo": (float, DEFAULT_BOUNDS["i_sigma"][0]),
        "i_sigma_hi": (float, DEFAULT_BOUNDS["i_sigma"][1]),
        "grid_points": (count, DEFAULT_GRID_POINTS),
    },
    "sweep": {
        "i_fifty": (float, 0.02),
        "m": (float, 1.0),
        "axes": (_axis_list, None),
        "fixed": (_fix_dict, {}),
    },
}

def _fmt(v) -> str:
    return f"{float(v):.9g}"


def _round9(obj):
    """Recursively format floats at 9 significant digits for JSON output."""
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round9(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round9(v) for v in obj]
    return obj


def _config_json(command: str, params: dict) -> str:
    payload = {"version": CONFIG_VERSION, "command": command, "params": params}
    return json.dumps(payload, sort_keys=True, separators=(", ", ": "))


def _load_config(path: str, command: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as e:  # also undecodable or deeply nested text
        raise ConfigError(f"config file {path} is not valid JSON: {e}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    unknown = set(raw) - {"version", "command", "params"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    if raw.get("version") != CONFIG_VERSION:
        raise ConfigError(f"unsupported config version {raw.get('version')!r}; "
                          f"expected {CONFIG_VERSION}")
    if raw.get("command") != command:
        raise ConfigError(f"config is for command {raw.get('command')!r}, "
                          f"but {command!r} was invoked")
    params = raw.get("params", {})
    if not isinstance(params, dict):
        raise ConfigError("config params must be an object")
    return params


def _resolve_params(command: str, flags: dict, config_path: str | None) -> dict:
    """Defaults <- config file <- explicit CLI flags, rejecting unknown keys.

    Flag and config values go through the same schema converter; a config
    ``null``, like an absent flag, leaves the default.
    """
    schema = SCHEMAS[command]
    params = {name: default for name, (_, default) in schema.items()}
    config = _load_config(config_path, command) if config_path else {}
    unknown = set(config) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config params for {command}: {sorted(unknown)}")
    given = {name: value for source in (config, flags)
             for name, value in source.items() if value is not None}
    for name, value in given.items():
        try:
            params[name] = schema[name][0](value)
        except ConfigError:
            raise
        except (TypeError, ValueError):
            raise ConfigError(f"invalid value for {name}: {value!r}") from None
    return params


def _open_out(path: str):
    try:
        return open(path, "w", newline="\n")
    except OSError as e:
        raise ConfigError(f"cannot write output file {path}: {e}") from None


def _write_csv(path: str, config_line: str, meta: list, names: list, *columns):
    """Write a table given as one sequence per column.

    Float arrays are written with ``%.9g`` and integer and boolean arrays
    with ``%d``, which give the same bytes as ``_cell``; other columns go
    cell by cell through ``_cell``.
    """
    formats, cells = [], []
    for column in columns:
        kind = column.dtype.kind if isinstance(column, np.ndarray) else "O"
        if kind == "f":
            formats.append("%.9g")
        elif kind in "iub":
            formats.append("%d")
        else:
            formats.append("%s")
            column = [_cell(v) for v in column]
        cells.append(column)
    with _open_out(path) as f:
        f.write(f"# config: {config_line}\n")
        for line in meta:
            f.write(f"# {line}\n")
        f.write(",".join(names) + "\n")
        write_rows(f, ",".join(formats) + "\n", cells)


def _cell(v) -> str:
    if v is None:
        return "NA"
    if isinstance(v, (bool, np.bool_)):
        return str(int(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, str):
        return v
    return _fmt(v)


def _write_json(path: str, payload: dict):
    with _open_out(path) as f:
        json.dump(_round9(payload), f, sort_keys=True, indent=1)
        f.write("\n")


def _meta_lines(meta: dict | None) -> list:
    return [f"{k}: {_cell(v)}" for k, v in (meta or {}).items()]


def _json_table(names: list, columns: list, meta: dict | None = None,
                contours: list | None = None) -> dict:
    """A table given as one sequence per column, as JSON rows."""
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    table = {"columns": names, "rows": [list(row) for row in zip(*lists)]}
    if meta:
        table["meta"] = meta
    if contours is not None:
        table["contours"] = [line.tolist() for line in contours]
    return table


def _emit(args, command: str, params: dict, names: list, columns: list,
          meta: dict | None = None, contours: list | None = None):
    """Write one table to ``args.out``; only the JSON form carries contours."""
    if args.format == "json":
        _write_json(args.out, {"version": CONFIG_VERSION, "command": command,
                               "params": params,
                               **_json_table(names, columns, meta, contours)})
    else:
        _write_csv(args.out, _config_json(command, params), _meta_lines(meta),
                   names, *columns)


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------


def _grid_with_value(lo: float, hi: float, n: int, include: float) -> np.ndarray:
    """Linear grid on [lo, hi] with the node nearest ``include`` snapped to it."""
    grid = np.linspace(lo, hi, n)
    if lo <= include <= hi:
        grid[int(np.argmin(np.abs(grid - include)))] = include
    return grid


def _figure_beta_curve(params):
    n = params["points"]
    i_fifty = params["i_fifty"]
    grid = _grid_with_value(0.0, params["i_beta_max"], n, i_fifty)
    columns = [grid, [reliability(v, i_fifty) for v in grid]]
    return ["i_beta", "beta"], columns, {"i_fifty": i_fifty}


def _figure_estimate_pdf(params):
    x, i_fifty = params["x"], params["i_fifty"]
    if not x > 0.0:
        raise ConfigError(f"x must be positive, got {x!r}")
    sigmas = [(isg, estimate_scale(isg, i_fifty)) for isg in params["i_sigma_values"]]
    grid = _grid_with_value(params["x_est_max"] / params["points"],
                            params["x_est_max"], params["points"], x)
    mu = float(np.log(x))
    names = ["x_est"] + [f"pdf_i_sigma_{isg:g}" for isg, _ in sigmas]
    columns = [grid] + [[lognormal_pdf(v, mu, s) for v in grid] for _, s in sigmas]
    return names, columns, {"x": x, "i_fifty": i_fifty}


def _figure_alpha_curve(params):
    a_values = params["a_values"]
    grid = np.linspace(0.0, 1.0, params["points"])
    names = ["c_over_r"] + [f"alpha_a_{a:g}" for a in a_values]
    columns = [grid] + [[aggression_probability(v, 1.0, a) for v in grid] for a in a_values]
    return names, columns, {}


def _figure_utility_vs_demand(params):
    x, a = params["x"], params["a"]
    beta = reliability(params["i_beta"], params["i_fifty"])
    kink = demand_factor(a, beta) * x
    grid = _grid_with_value(params["r_max"] / params["points"], params["r_max"],
                            params["points"], kink)
    c_values = params["c_max_values"]
    names = ["demand", "utility_optimal"] + [f"utility_cmax_{c:g}" for c in c_values]
    columns = [grid, [defender_utility(optimal_counteroffer(r, x, a, beta), r, x, a, beta)
                      for r in grid]]
    columns += [[defender_utility(min(r, c_cap), r, x, a, beta) for r in grid]
                for c_cap in c_values]
    return names, columns, {"kink_demand": kink, "beta": beta}


def _figure_profit_vs_estimate(params):
    x, i_fifty = params["x"], params["i_fifty"]
    env = GameEnvironment(i_fifty=i_fifty, target_value=FixedValue(x))
    a_values = params["a_values"]
    grid = _grid_with_value(params["x_est_max"] / params["points"],
                            params["x_est_max"], params["points"], x)
    strategies = [AttackerStrategy(a=a, i_beta=params["i_beta"],
                                   i_sigma=params["i_sigma"]) for a in a_values]
    names = ["x_est"] + [f"profit_a_{a:g}" for a in a_values]
    columns = [grid] + [[optimal_play_profit(v, x, s, env) for v in grid] for s in strategies]
    return names, columns, {"x": x, "i_beta": params["i_beta"], "i_sigma": params["i_sigma"]}


def _mean_env(params) -> GameEnvironment:
    return GameEnvironment(i_fifty=params["i_fifty"], target_value=PopulationMean(params["m"]))


def _surface_columns(surface) -> list:
    """One column per swept axis plus the profit, one row per node in C order."""
    grids = np.meshgrid(*surface.axis_values, indexing="ij")
    return [g.ravel() for g in grids] + [surface.values.ravel()]


_HEATMAP_PANELS = (("i_beta", "i_sigma", "a"),
                   ("a", "i_sigma", "i_beta"),
                   ("a", "i_beta", "i_sigma"))


def _figure_profit_heatmaps(params):
    """Three 2-D profit surfaces; the hidden parameter sits at its optimum."""
    env = _mean_env(params)
    optimum = maximize_profit(env)
    opt = {"a": optimum.strategy.a, "i_beta": optimum.strategy.i_beta,
           "i_sigma": optimum.strategy.i_sigma}
    n = params["points"]
    ranges = {"a": (params["a_lo"], params["a_hi"]),
              "i_beta": (params["inv_lo"], params["inv_hi"]),
              "i_sigma": (params["inv_lo"], params["inv_hi"])}

    panels = {}
    for p1, p2, hidden in _HEATMAP_PANELS:
        grid = SweepGrid(axes=[AxisSpec(p1, *ranges[p1], n, "log"),
                               AxisSpec(p2, *ranges[p2], n, "log")],
                         fixed={hidden: opt[hidden]})
        surface = profit_surface(env, grid)
        argmax = surface.argmax_strategy
        meta = {f"fixed_{hidden}": opt[hidden],
                f"argmax_{p1}": getattr(argmax, p1),
                f"argmax_{p2}": getattr(argmax, p2),
                "argmax_profit": surface.argmax_profit}
        panels[f"{p1}__{p2}"] = ([p1, p2, "profit"], _surface_columns(surface), meta,
                                 surface.contours)
    return panels


def _emit_panels(args, params: dict, panels: dict):
    """One JSON file of panels, or per panel a table CSV and a contour CSV."""
    if args.format == "json":
        _write_json(args.out, {"version": CONFIG_VERSION, "command": "figure",
                               "params": params,
                               "panels": {k: _json_table(*p) for k, p in panels.items()}})
        return
    config_line = _config_json("figure", params)
    stem = args.out.removesuffix(".csv")
    for key, (names, columns, meta, lines) in panels.items():
        _write_csv(f"{stem}.{key}.csv", config_line, _meta_lines(meta), names, *columns)
        polyline = np.repeat(np.arange(len(lines)), [len(line) for line in lines])
        points = np.concatenate(lines) if lines else np.empty((0, 2))
        _write_csv(f"{stem}.{key}.contour.csv", config_line, [],
                   ["polyline", *names[:2]], polyline, points[:, 0], points[:, 1])


# name -> (builder, default points, default a_values, parameters in the header).
# Builders return (column names, columns, meta), the heatmaps one per panel.
_FIGURES = {
    "beta_curve": (_figure_beta_curve, 251, None, ("i_fifty", "i_beta_max", "points")),
    "estimate_pdf": (_figure_estimate_pdf, 600, None,
                     ("x", "i_fifty", "i_sigma_values", "x_est_max", "points")),
    "alpha_curve": (_figure_alpha_curve, 201, [0.5, 1.0, 2.0, 5.0, 10.0],
                    ("a_values", "points")),
    "utility_vs_demand": (_figure_utility_vs_demand, 400, None,
                          ("x", "i_fifty", "i_beta", "a", "c_max_values", "r_max",
                           "points")),
    "profit_vs_estimate": (_figure_profit_vs_estimate, 600, [2.0, 5.0, 10.0, 20.0],
                           ("x", "i_fifty", "i_beta", "i_sigma", "a_values", "x_est_max",
                            "points")),
    "profit_heatmaps": (_figure_profit_heatmaps, 200, None,
                        ("i_fifty", "m", "points", "a_lo", "a_hi", "inv_lo", "inv_hi")),
}
FIGURE_NAMES = tuple(_FIGURES)


def cmd_figure(args, params) -> int:
    name = params["name"]
    if name not in _FIGURES:
        raise ConfigError(f"unknown figure {name!r}; expected one of {FIGURE_NAMES}")
    builder, points, a_values, used = _FIGURES[name]
    if params["points"] is None:
        params["points"] = points
    if params["points"] < 2:
        raise ConfigError(f"points must be at least 2, got {params['points']}")
    if params["a_values"] is None:
        params["a_values"] = a_values
    # Embed only the parameters the figure actually uses.
    header = {k: params[k] for k in ("name", *used)}
    if name == "profit_heatmaps":
        _emit_panels(args, header, builder(params))
    else:
        _emit(args, "figure", header, *builder(params))
    return 0


# ---------------------------------------------------------------------------
# table / simulate / optimize / sweep commands
# ---------------------------------------------------------------------------


def cmd_table(args, params) -> int:
    if params["what"] != "strategies":
        raise ConfigError(f"unknown table {params['what']!r}; expected 'strategies'")
    env, i_fifty, m = _mean_env(params), params["i_fifty"], params["m"]
    counteroffers = [demand_factor(a, reliability(i_beta, i_fifty)) * m
                     for _, a, i_beta, _ in STRATEGY_TABLE]
    profits = [expected_profit(AttackerStrategy(a=a, i_beta=i_beta, i_sigma=i_sigma), env,
                               ProfitMethod.CLOSED_FORM).value
               for _, a, i_beta, i_sigma in STRATEGY_TABLE]
    _emit(args, "table", params,
          ["strategy", "a", "i_beta", "i_sigma", "counteroffer", "expected_profit"],
          [*zip(*STRATEGY_TABLE), counteroffers, profits])
    return 0


def cmd_simulate(args, params) -> int:
    config = SimulationConfig(
        strategy=AttackerStrategy(a=params["a"], i_beta=params["i_beta"],
                                  i_sigma=params["i_sigma"]),
        environment=GameEnvironment(i_fifty=params["i_fifty"],
                                    target_value=FixedValue(params["x"])),
        n_runs=params["n_runs"],
        seed=SeedSpec(master_seed=params["master_seed"],
                      stream_index=params["stream_index"]))
    # Check the workers and open the trace before the batch runs, so a bad
    # worker count leaves no trace file and an unwritable path fails early.
    if args.workers < 1:
        raise ConfigError(f"workers must be >= 1, got {args.workers}")
    trace_file = None if args.trace_out is None else _open_out(args.trace_out)
    try:
        with trace_file or nullcontext():
            report = run_batch(config, workers=args.workers, keep_trace=trace_file is not None)
            names = ["n_runs", "mean_attacker_profit", "std_error_attacker_profit",
                     "mean_defender_utility"] + \
                    [f"count_{k.value}" for k in report.outcome_counts]
            row = [report.n_runs, report.mean_attacker_profit,
                   report.std_error_attacker_profit, report.mean_defender_utility] + \
                  list(report.outcome_counts.values())
            _emit(args, "simulate", params, names, [[v] for v in row])
            if trace_file is not None:
                write_trace_csv(report.trace, trace_file,
                                header_lines=(f"config: {_config_json('simulate', params)}",))
    except BaseException:
        # A failed command leaves no trace behind, not even an empty one.
        if trace_file is not None and Path(args.trace_out).is_file():
            Path(args.trace_out).unlink()
        raise
    return 0


def cmd_optimize(args, params) -> int:
    bounds = {axis: (params[f"{axis}_lo"], params[f"{axis}_hi"])
              for axis in ("a", "i_beta", "i_sigma")}
    optimum = maximize_profit(_mean_env(params), bounds=bounds,
                              grid_points=params["grid_points"])
    best = optimum.strategy
    _emit(args, "optimize", params,
          ["a", "i_beta", "i_sigma", "profit", "evaluations", "converged"],
          [[best.a], [best.i_beta], [best.i_sigma], [optimum.profit],
           [optimum.evaluations], [optimum.converged]])
    return 0


def cmd_sweep(args, params) -> int:
    if not params["axes"]:
        raise ConfigError("sweep needs at least one --axis name:lo:hi:n[:scale]")
    grid = SweepGrid(axes=params["axes"], fixed=params["fixed"])
    surface = profit_surface(_mean_env(params), grid)
    header = {
        "i_fifty": params["i_fifty"], "m": params["m"],
        "axes": [{"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n,
                  "scale": ax.scale} for ax in grid.axes],
        "fixed": dict(sorted(grid.fixed.items())),
    }
    argmax = surface.argmax_strategy
    meta = {"argmax_a": argmax.a, "argmax_i_beta": argmax.i_beta,
            "argmax_i_sigma": argmax.i_sigma, "argmax_profit": surface.argmax_profit}
    _emit(args, "sweep", header, [ax.name for ax in grid.axes] + ["profit"],
          _surface_columns(surface), meta, surface.contours)
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(parser):
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, default=None,
                        help="master seed (used by seeded commands)")


def _param_flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ransomgame",
        description="Targeted-ransomware negotiation game: figures, tables, "
                    "simulation, optimization, and sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="emit a figure's data series")
    p_fig.add_argument("p_name", nargs="?", metavar="name",
                       help=f"one of {', '.join(FIGURE_NAMES)}")
    p_table = sub.add_parser("table", help="emit the reference strategy table")
    p_table.add_argument("p_what", nargs="?", metavar="what", help="'strategies'")
    p_sim = sub.add_parser("simulate", help="run the Monte Carlo engine")
    p_opt = sub.add_parser("optimize", help="find the profit-maximizing strategy")
    p_sweep = sub.add_parser("sweep", help="evaluate expected profit over a grid")
    for p in (p_fig, p_table, p_sim, p_opt, p_sweep):
        _add_common(p)

    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--trace-out", default=None, help="also write per-run trace CSV")
    p_sweep.add_argument("--axis", dest="p_axes", metavar="AXIS", action="append",
                         help="name:lo:hi:n[:scale], repeatable")
    p_sweep.add_argument("--fix", dest="p_fixed", metavar="FIX", action="append",
                         help="name=value for hidden parameters, repeatable")
    # No type=: _resolve_params converts flag values as it does config values.
    for p, names in ((p_fig, [n for n in SCHEMAS["figure"] if n != "name"]),
                     (p_sim, SCHEMAS["simulate"]), (p_opt, SCHEMAS["optimize"]),
                     (p_sweep, ("i_fifty", "m"))):
        for name in names:
            p.add_argument(_param_flag(name), dest=f"p_{name}")
    return parser


_COMMANDS = {"figure": cmd_figure, "table": cmd_table, "simulate": cmd_simulate,
             "optimize": cmd_optimize, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    flags = {key[2:]: value for key, value in vars(args).items() if key.startswith("p_")}
    if args.seed is not None and "master_seed" in flags:
        flags["master_seed"] = args.seed
    try:
        params = _resolve_params(args.command, flags, args.config)
        return _COMMANDS[args.command](args, params)
    except (ConfigError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except MemoryError as e:
        print(f"error: not enough memory: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
