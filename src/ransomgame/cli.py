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

FIGURE_NAMES = ("beta_curve", "estimate_pdf", "alpha_curve", "utility_vs_demand",
                "profit_vs_estimate", "profit_heatmaps")

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
            lo, hi, n = float(lo), float(hi), integer(n)
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
        "points": (integer, None),
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
        "n_runs": (integer, 10000),
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
        "grid_points": (integer, DEFAULT_GRID_POINTS),
    },
    "sweep": {
        "i_fifty": (float, 0.02),
        "m": (float, 1.0),
        "axes": (_axis_list, None),
        "fixed": (_fix_dict, {}),
    },
}

# Per-figure defaults for the point count.
_FIGURE_POINTS = {"beta_curve": 251, "estimate_pdf": 600, "alpha_curve": 201,
                  "utility_vs_demand": 400, "profit_vs_estimate": 600,
                  "profit_heatmaps": 200}
_FIGURE_A_VALUES = {"alpha_curve": [0.5, 1.0, 2.0, 5.0, 10.0],
                    "profit_vs_estimate": [2.0, 5.0, 10.0, 20.0]}


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
    except json.JSONDecodeError as e:
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


def _resolve_params(command: str, cli_params: dict, config_path: str | None) -> dict:
    """Defaults <- config file <- explicit CLI flags, rejecting unknown keys."""
    schema = SCHEMAS[command]
    params = {name: default for name, (_, default) in schema.items()}
    given = _load_config(config_path, command) if config_path else {}
    unknown = set(given) - set(schema)
    if unknown:
        raise ConfigError(f"unknown config params for {command}: {sorted(unknown)}")
    given.update((name, value) for name, value in cli_params.items() if value is not None)
    for name, value in given.items():
        try:
            params[name] = None if value is None else schema[name][0](value)
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


def _table_payload(command: str, params: dict, columns: list, rows,
                   meta: dict | None = None) -> dict:
    payload = {"version": CONFIG_VERSION, "command": command, "params": params,
               "columns": columns, "rows": [list(r) for r in rows]}
    if meta:
        payload["meta"] = meta
    return payload


def _emit_table(out: str, fmt: str, command: str, params: dict, columns: list,
                rows, meta: dict | None = None):
    if fmt == "json":
        _write_json(out, _table_payload(command, params, columns, rows, meta))
    else:
        meta_lines = [f"{k}: {_cell(v)}" for k, v in (meta or {}).items()]
        _write_csv(out, _config_json(command, params), meta_lines, columns, *zip(*rows))


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
    rows = [(v, reliability(v, i_fifty)) for v in grid]
    return ["i_beta", "beta"], rows, {"i_fifty": i_fifty}


def _figure_estimate_pdf(params):
    x, i_fifty = params["x"], params["i_fifty"]
    if not x > 0.0:
        raise ConfigError(f"x must be positive, got {x!r}")
    sigmas = [(isg, estimate_scale(isg, i_fifty)) for isg in params["i_sigma_values"]]
    grid = _grid_with_value(params["x_est_max"] / params["points"],
                            params["x_est_max"], params["points"], x)
    mu = float(np.log(x))
    columns = ["x_est"] + [f"pdf_i_sigma_{isg:g}" for isg, _ in sigmas]
    rows = [[v] + [lognormal_pdf(v, mu, s) for _, s in sigmas] for v in grid]
    return columns, rows, {"x": x, "i_fifty": i_fifty}


def _figure_alpha_curve(params):
    a_values = params["a_values"]
    grid = np.linspace(0.0, 1.0, params["points"])
    columns = ["c_over_r"] + [f"alpha_a_{a:g}" for a in a_values]
    rows = [[v] + [aggression_probability(v, 1.0, a) for a in a_values] for v in grid]
    return columns, rows, {}


def _figure_utility_vs_demand(params):
    x, a = params["x"], params["a"]
    beta = reliability(params["i_beta"], params["i_fifty"])
    kink = demand_factor(a, beta) * x
    grid = _grid_with_value(params["r_max"] / params["points"], params["r_max"],
                            params["points"], kink)
    c_values = params["c_max_values"]
    columns = ["demand", "utility_optimal"] + [f"utility_cmax_{c:g}" for c in c_values]
    rows = []
    for r in grid:
        row = [r, defender_utility(optimal_counteroffer(r, x, a, beta), r, x, a, beta)]
        for c_cap in c_values:
            c = min(r, c_cap)
            row.append(defender_utility(c, r, x, a, beta))
        rows.append(row)
    return columns, rows, {"kink_demand": kink, "beta": beta}


def _figure_profit_vs_estimate(params):
    x, i_fifty = params["x"], params["i_fifty"]
    env = GameEnvironment(i_fifty=i_fifty, target_value=FixedValue(x))
    a_values = params["a_values"]
    grid = _grid_with_value(params["x_est_max"] / params["points"],
                            params["x_est_max"], params["points"], x)
    strategies = [AttackerStrategy(a=a, i_beta=params["i_beta"],
                                   i_sigma=params["i_sigma"]) for a in a_values]
    columns = ["x_est"] + [f"profit_a_{a:g}" for a in a_values]
    rows = [[v] + [optimal_play_profit(v, x, s, env) for s in strategies] for v in grid]
    return columns, rows, {"x": x, "i_beta": params["i_beta"], "i_sigma": params["i_sigma"]}


def _surface_columns(surface) -> list:
    """One column per swept axis plus the profit, one row per node in C order."""
    grids = np.meshgrid(*surface.axis_values, indexing="ij")
    return [g.ravel() for g in grids] + [surface.values.ravel()]


_HEATMAP_PANELS = (("i_beta", "i_sigma", "a"),
                   ("a", "i_sigma", "i_beta"),
                   ("a", "i_beta", "i_sigma"))


def _figure_profit_heatmaps(params, args, config_line, command_params):
    """Three 2-D profit surfaces; the hidden parameter sits at its optimum."""
    env = GameEnvironment(i_fifty=params["i_fifty"],
                          target_value=PopulationMean(params["m"]))
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
        panels[f"{p1}__{p2}"] = {"names": [p1, p2, "profit"],
                                 "columns": _surface_columns(surface),
                                 "meta": meta, "contours": surface.contours}

    if args.format == "json":
        payload = {"version": CONFIG_VERSION, "command": "figure",
                   "params": command_params,
                   "panels": {name: {"columns": p["names"],
                                     "rows": np.column_stack(p["columns"]).tolist(),
                                     "meta": p["meta"],
                                     "contours": [line.tolist() for line in p["contours"]]}
                              for name, p in panels.items()}}
        _write_json(args.out, payload)
        return
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for name, panel in panels.items():
        meta_lines = [f"{k}: {_cell(v)}" for k, v in panel["meta"].items()]
        _write_csv(f"{stem}.{name}.csv", config_line, meta_lines,
                   panel["names"], *panel["columns"])
        lines = panel["contours"]
        polyline = np.repeat(np.arange(len(lines)), [len(line) for line in lines])
        points = np.concatenate(lines) if lines else np.empty((0, 2))
        _write_csv(f"{stem}.{name}.contour.csv", config_line, [],
                   ["polyline", *panel["names"][:2]], polyline, points[:, 0], points[:, 1])


def cmd_figure(args) -> int:
    cli_params = {name: getattr(args, f"p_{name}", None) for name in SCHEMAS["figure"]}
    cli_params["name"] = args.name
    params = _resolve_params("figure", cli_params, args.config)
    name = params["name"]
    if name not in FIGURE_NAMES:
        raise ConfigError(f"unknown figure {name!r}; expected one of {FIGURE_NAMES}")
    if params["points"] is None:
        params["points"] = _FIGURE_POINTS[name]
    if params["points"] < 2:
        raise ConfigError(f"points must be at least 2, got {params['points']}")
    if params["a_values"] is None:
        params["a_values"] = _FIGURE_A_VALUES.get(name, [10.0])

    # Embed only the parameters the figure actually uses.
    used = {
        "beta_curve": ("name", "i_fifty", "i_beta_max", "points"),
        "estimate_pdf": ("name", "x", "i_fifty", "i_sigma_values", "x_est_max", "points"),
        "alpha_curve": ("name", "a_values", "points"),
        "utility_vs_demand": ("name", "x", "i_fifty", "i_beta", "a",
                              "c_max_values", "r_max", "points"),
        "profit_vs_estimate": ("name", "x", "i_fifty", "i_beta", "i_sigma",
                               "a_values", "x_est_max", "points"),
        "profit_heatmaps": ("name", "i_fifty", "m", "points", "a_lo", "a_hi",
                            "inv_lo", "inv_hi"),
    }[name]
    command_params = {k: params[k] for k in used}
    config_line = _config_json("figure", command_params)

    if name == "profit_heatmaps":
        _figure_profit_heatmaps(params, args, config_line, command_params)
        return 0

    builder = {"beta_curve": _figure_beta_curve,
               "estimate_pdf": _figure_estimate_pdf,
               "alpha_curve": _figure_alpha_curve,
               "utility_vs_demand": _figure_utility_vs_demand,
               "profit_vs_estimate": _figure_profit_vs_estimate}[name]
    columns, rows, meta = builder(params)
    _emit_table(args.out, args.format, "figure", command_params, columns, rows, meta)
    return 0


# ---------------------------------------------------------------------------
# table / simulate / optimize / sweep commands
# ---------------------------------------------------------------------------


def cmd_table(args) -> int:
    params = _resolve_params("table", {"what": args.what}, args.config)
    if params["what"] != "strategies":
        raise ConfigError(f"unknown table {params['what']!r}; expected 'strategies'")
    env = GameEnvironment(i_fifty=params["i_fifty"],
                          target_value=PopulationMean(params["m"]))
    columns = ["strategy", "a", "i_beta", "i_sigma", "counteroffer", "expected_profit"]
    rows = []
    for label, a, i_beta, i_sigma in STRATEGY_TABLE:
        strat = AttackerStrategy(a=a, i_beta=i_beta, i_sigma=i_sigma)
        beta = reliability(i_beta, params["i_fifty"])
        c_hat = demand_factor(a, beta) * params["m"]
        p = expected_profit(strat, env, ProfitMethod.CLOSED_FORM).value
        rows.append((label, a, i_beta, i_sigma, c_hat, p))
    _emit_table(args.out, args.format, "table", params, columns, rows)
    return 0


def cmd_simulate(args) -> int:
    cli_params = {name: getattr(args, f"p_{name}", None) for name in SCHEMAS["simulate"]}
    if args.seed is not None:
        cli_params["master_seed"] = args.seed
    params = _resolve_params("simulate", cli_params, args.config)
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
    trace_out = nullcontext() if args.trace_out is None else _open_out(args.trace_out)
    with trace_out as trace_file:
        report = run_batch(config, workers=args.workers, keep_trace=trace_file is not None)

        columns = ["n_runs", "mean_attacker_profit", "std_error_attacker_profit",
                   "mean_defender_utility"] + \
                  [f"count_{k.value}" for k in report.outcome_counts]
        row = [report.n_runs, report.mean_attacker_profit,
               report.std_error_attacker_profit, report.mean_defender_utility] + \
              list(report.outcome_counts.values())
        _emit_table(args.out, args.format, "simulate", params, columns, [row])

        if trace_file is not None:
            write_trace_csv(report.trace, trace_file,
                            header_lines=(f"config: {_config_json('simulate', params)}",))
    return 0


def cmd_optimize(args) -> int:
    cli_params = {name: getattr(args, f"p_{name}", None) for name in SCHEMAS["optimize"]}
    params = _resolve_params("optimize", cli_params, args.config)
    env = GameEnvironment(i_fifty=params["i_fifty"],
                          target_value=PopulationMean(params["m"]))
    bounds = {"a": (params["a_lo"], params["a_hi"]),
              "i_beta": (params["i_beta_lo"], params["i_beta_hi"]),
              "i_sigma": (params["i_sigma_lo"], params["i_sigma_hi"])}
    optimum = maximize_profit(env, bounds=bounds, grid_points=params["grid_points"])
    columns = ["a", "i_beta", "i_sigma", "profit", "evaluations", "converged"]
    row = [optimum.strategy.a, optimum.strategy.i_beta, optimum.strategy.i_sigma,
           optimum.profit, optimum.evaluations, optimum.converged]
    _emit_table(args.out, args.format, "optimize", params, columns, [row])
    return 0


def cmd_sweep(args) -> int:
    cli_params = {name: getattr(args, f"p_{name}", None) for name in SCHEMAS["sweep"]}
    if args.axis:
        cli_params["axes"] = args.axis
    if args.fix:
        cli_params["fixed"] = args.fix
    params = _resolve_params("sweep", cli_params, args.config)
    if not params["axes"]:
        raise ConfigError("sweep needs at least one --axis name:lo:hi:n[:scale]")
    grid = SweepGrid(axes=params["axes"], fixed=params["fixed"])
    env = GameEnvironment(i_fifty=params["i_fifty"],
                          target_value=PopulationMean(params["m"]))
    surface = profit_surface(env, grid)

    command_params = {
        "i_fifty": params["i_fifty"], "m": params["m"],
        "axes": [{"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n,
                  "scale": ax.scale} for ax in grid.axes],
        "fixed": dict(sorted(grid.fixed.items())),
    }
    names = [ax.name for ax in grid.axes] + ["profit"]
    columns = _surface_columns(surface)
    meta = {"argmax_a": surface.argmax_strategy.a,
            "argmax_i_beta": surface.argmax_strategy.i_beta,
            "argmax_i_sigma": surface.argmax_strategy.i_sigma,
            "argmax_profit": surface.argmax_profit}
    if args.format == "json":
        payload = _table_payload("sweep", command_params, names,
                                 np.column_stack(columns).tolist(), meta)
        payload["contours"] = [line.tolist() for line in surface.contours]
        _write_json(args.out, payload)
    else:
        meta_lines = [f"{k}: {_cell(v)}" for k, v in meta.items()]
        _write_csv(args.out, _config_json("sweep", command_params), meta_lines,
                   names, *columns)
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
    p_fig.add_argument("name", nargs="?", default=None,
                       help=f"one of {', '.join(FIGURE_NAMES)}")
    _add_common(p_fig)
    for name, (conv, _) in SCHEMAS["figure"].items():
        if name == "name":
            continue
        kind = str if conv in (_float_list,) else conv
        p_fig.add_argument(_param_flag(name), dest=f"p_{name}", type=kind, default=None)

    p_table = sub.add_parser("table", help="emit the reference strategy table")
    p_table.add_argument("what", nargs="?", default=None, help="'strategies'")
    _add_common(p_table)

    p_sim = sub.add_parser("simulate", help="run the Monte Carlo engine")
    _add_common(p_sim)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--trace-out", default=None, help="also write per-run trace CSV")
    for name, (conv, _) in SCHEMAS["simulate"].items():
        p_sim.add_argument(_param_flag(name), dest=f"p_{name}", type=conv, default=None)

    p_opt = sub.add_parser("optimize", help="find the profit-maximizing strategy")
    _add_common(p_opt)
    for name, (conv, _) in SCHEMAS["optimize"].items():
        p_opt.add_argument(_param_flag(name), dest=f"p_{name}", type=conv, default=None)

    p_sweep = sub.add_parser("sweep", help="evaluate expected profit over a grid")
    _add_common(p_sweep)
    p_sweep.add_argument("--axis", action="append", default=None,
                         help="name:lo:hi:n[:scale], repeatable")
    p_sweep.add_argument("--fix", action="append", default=None,
                         help="name=value for hidden parameters, repeatable")
    for name in ("i_fifty", "m"):
        p_sweep.add_argument(_param_flag(name), dest=f"p_{name}", type=float, default=None)

    return parser


_COMMANDS = {"figure": cmd_figure, "table": cmd_table, "simulate": cmd_simulate,
             "optimize": cmd_optimize, "sweep": cmd_sweep}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except NumericalError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 3


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
