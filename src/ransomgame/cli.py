"""Command-line interface.

Subcommands reproduce the model's figure data series and strategy table,
and run simulations, optimizations, and parameter sweeps from flags or a
JSON config file.  Every output embeds the effective config in its header,
so any file can be regenerated bit-identically from its own header.

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import inspect
import json
import shutil
import sys
from contextlib import nullcontext
from dataclasses import asdict
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
# embedded in every output header; a figure's None default is its builder's.
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


def _header(command: str, params: dict) -> dict:
    return {"version": CONFIG_VERSION, "command": command, "params": params}


def _config_json(command: str, params: dict) -> str:
    return json.dumps(_header(command, params), sort_keys=True, separators=(", ", ": "))


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
    # type(), not ==: True == 1 and 1.0 == 1 in Python.
    if type(raw.get("version")) is not int or raw["version"] != CONFIG_VERSION:
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
    cells = [c if isinstance(c, np.ndarray) and c.dtype.kind in "fiub"
             else [_cell(v) for v in c] for c in columns]
    with _open_out(path) as f:
        f.write(f"# config: {config_line}\n")
        for line in meta:
            f.write(f"# {line}\n")
        f.write(",".join(names) + "\n")
        write_rows(f, cells)


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
        _write_json(args.out, {**_header(command, params),
                               **_json_table(names, columns, meta, contours)})
    else:
        _write_csv(args.out, _config_json(command, params), _meta_lines(meta),
                   names, *columns)


def _one_row(args, command: str, params: dict, row: dict):
    """Write a table of one row, given as column name -> value."""
    _emit(args, command, params, list(row), [[v] for v in row.values()])


# ---------------------------------------------------------------------------
# figure command
# ---------------------------------------------------------------------------


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


def _mean_env(i_fifty: float, m: float) -> GameEnvironment:
    return GameEnvironment(i_fifty=i_fifty, target_value=PopulationMean(m))


def _surface_columns(surface) -> list:
    """One column per swept axis plus the profit, one row per node in C order."""
    grids = np.meshgrid(*surface.axis_values, indexing="ij")
    return [g.ravel() for g in grids] + [surface.values.ravel()]


_HEATMAP_PANELS = (("i_beta", "i_sigma", "a"),
                   ("a", "i_sigma", "i_beta"),
                   ("a", "i_beta", "i_sigma"))


def _figure_profit_heatmaps(i_fifty, m, a_lo, a_hi, inv_lo, inv_hi, points=200):
    """Three 2-D profit surfaces; the hidden parameter sits at its optimum."""
    env = _mean_env(i_fifty, m)
    opt = asdict(maximize_profit(env).strategy)
    ranges = {"a": (a_lo, a_hi), "i_beta": (inv_lo, inv_hi), "i_sigma": (inv_lo, inv_hi)}

    panels = {}
    for p1, p2, hidden in _HEATMAP_PANELS:
        grid = SweepGrid(axes=[AxisSpec(p1, *ranges[p1], points, "log"),
                               AxisSpec(p2, *ranges[p2], points, "log")],
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
        _write_json(args.out, {**_header("figure", params),
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
        _emit(args, "figure", header, *builder(**used))
    return 0


# ---------------------------------------------------------------------------
# table / simulate / optimize / sweep commands
# ---------------------------------------------------------------------------


def cmd_table(args, params) -> int:
    if params["what"] != "strategies":
        raise ConfigError(f"unknown table {params['what']!r}; expected 'strategies'")
    i_fifty, m = params["i_fifty"], params["m"]
    env = _mean_env(i_fifty, m)
    counteroffers = [demand_factor(a, reliability(i_beta, i_fifty)) * m
                     for _, a, i_beta, _ in STRATEGY_TABLE]
    profits = [expected_profit(AttackerStrategy(a=a, i_beta=i_beta, i_sigma=i_sigma), env,
                               ProfitMethod.CLOSED_FORM).value
               for _, a, i_beta, i_sigma in STRATEGY_TABLE]
    _emit(args, "table", params,
          ["strategy", "a", "i_beta", "i_sigma", "counteroffer", "expected_profit"],
          [*zip(*STRATEGY_TABLE), counteroffers, profits])
    return 0


# A trace row is ten fields, nine commas and a newline: 20 bytes at least.
_MIN_TRACE_ROW_BYTES = 20


def _check_trace_fits(path: str, n_runs: int):
    """Fail before simulating if even the shortest rows cannot fit on disk.

    The batch streams its trace, so the disk, not memory, bounds its size.
    Paths that are not regular files (``/dev/null``, a pipe) are not checked.
    """
    if not Path(path).is_file():
        return
    need, free = n_runs * _MIN_TRACE_ROW_BYTES, shutil.disk_usage(path).free
    if need > free:
        raise MemoryError(f"a trace of {n_runs} runs takes at least {need} bytes, "
                          f"and its file system has {free} free")


def _check_distinct_outputs(out: str, trace_out: str):
    """Refuse one regular file for both the summary and the trace.

    The summary, opened after the batch, would truncate the trace.  Existing
    paths are compared as files, so a link to the other path is refused too;
    a path that is not a regular file (``/dev/null``) may be both.
    """
    path = Path(trace_out)
    if path.exists() and Path(out).exists():
        same = path.is_file() and path.samefile(out)
    else:
        same = path.resolve() == Path(out).resolve()
    if same:
        raise ConfigError(f"--out and --trace-out name the same file {trace_out}")


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
    if args.trace_out is not None:
        _check_distinct_outputs(args.out, args.trace_out)
    trace_file = None if args.trace_out is None else _open_out(args.trace_out)
    try:
        with trace_file or nullcontext():
            on_chunk = None
            if trace_file is not None:
                _check_trace_fits(args.trace_out, config.n_runs)
                header = (f"config: {_config_json('simulate', params)}",)

                def on_chunk(chunk, first_run):
                    write_trace_csv(chunk, trace_file, header_lines=header,
                                    first_run=first_run)
            summary = asdict(run_batch(config, workers=args.workers, on_chunk=on_chunk))
            counts = summary.pop("outcome_counts")
            _one_row(args, "simulate", params,
                     {**summary, **{f"count_{k.value}": v for k, v in counts.items()}})
    except BaseException:
        # A failed command leaves no trace behind, not even an empty one.
        if trace_file is not None and Path(args.trace_out).is_file():
            Path(args.trace_out).unlink()
        raise
    return 0


def cmd_optimize(args, params) -> int:
    bounds = {axis: (params[f"{axis}_lo"], params[f"{axis}_hi"])
              for axis in ("a", "i_beta", "i_sigma")}
    optimum = maximize_profit(_mean_env(params["i_fifty"], params["m"]), bounds=bounds,
                              grid_points=params["grid_points"])
    _one_row(args, "optimize", params,
             {**asdict(optimum.strategy), "profit": optimum.profit,
              "evaluations": optimum.evaluations, "converged": optimum.converged})
    return 0


def cmd_sweep(args, params) -> int:
    if not params["axes"]:
        raise ConfigError("sweep needs at least one --axis name:lo:hi:n[:scale]")
    grid = SweepGrid(axes=params["axes"], fixed=params["fixed"])
    surface = profit_surface(_mean_env(params["i_fifty"], params["m"]), grid)
    header = {**params, "axes": [asdict(ax) for ax in grid.axes]}
    meta = {f"argmax_{k}": v for k, v in asdict(surface.argmax_strategy).items()}
    meta["argmax_profit"] = surface.argmax_profit
    _emit(args, "sweep", header, [ax.name for ax in grid.axes] + ["profit"],
          _surface_columns(surface), meta,
          surface.contours if args.format == "json" else None)
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
