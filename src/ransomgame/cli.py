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
import shutil
import sys
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__, _bind_lazily
from ._rows import Gathered, write_rows
from .errors import ConfigError, DomainError, NumericalError
from .game import AttackerStrategy, FixedValue, GameEnvironment, PopulationMean
from .optimize import (DEFAULT_BOUNDS, DEFAULT_GRID_POINTS, AxisSpec, SweepGrid,
                       maximize_profit, profit_surface)

CONFIG_VERSION = 1

# Bound on first use: only ``simulate`` runs the Monte Carlo engine and its
# random streams, and only ``figure``, ``table`` or a parser that lists the
# figure names needs ``_figures``.
__getattr__ = _lazy = _bind_lazily(globals(), {
    **dict.fromkeys(("SeedSpec", "SimulationConfig", "run_batch", "write_trace_csv"), "simulate"),
    **dict.fromkeys(("cmd_figure", "cmd_table", "FIGURE_NAMES"), "_figures")})


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
    """An int from an int or an integral string; never truncates a float.

    ``_resolve_params`` refuses booleans before any converter sees them.
    """
    if not isinstance(value, (int, str)):
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
    if isinstance(value, str):
        raise TypeError("axes are a list of specs, not one string")
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
    if isinstance(value, str):
        raise TypeError("fixed parameters are an object or a list, not one string")
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
        "grid_points": (integer, DEFAULT_GRID_POINTS),
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


def _holds_bool(value) -> bool:
    """Whether a config value is or holds a JSON ``true`` or ``false``."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, bool):
            return True
        if isinstance(value, (list, dict)):
            stack.extend(value.values() if isinstance(value, dict) else value)
    return False


def _resolve_params(command: str, flags: dict, config_path: str | None) -> dict:
    """Defaults <- config file <- explicit CLI flags, rejecting unknown keys.

    Flag and config values go through the same schema converter; a config
    ``null``, like an absent flag, leaves the default.  No parameter takes a
    boolean, so a ``true`` or ``false`` anywhere in a value is refused
    rather than read as 1 or 0.
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
            if _holds_bool(value):
                raise TypeError(f"{name} takes no boolean")
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
    with ``%d``, which give the same bytes as ``_cell``, and so are the
    values of a ``Gathered`` column; other columns go cell by cell through
    ``_cell``.
    """
    cells = [c if isinstance(c, Gathered) or isinstance(c, np.ndarray) and c.dtype.kind in "fiub"
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
        json.dump(payload, f, sort_keys=True, indent=1)
        f.write("\n")


def _meta_lines(meta: dict | None) -> list:
    return [f"{k}: {_cell(v)}" for k, v in (meta or {}).items()]


def _json_table(names: list, columns: list, meta: dict | None = None,
                contours: list | None = None) -> dict:
    """A table given as one sequence per column, as JSON rows of 9-digit floats."""
    columns = [c.values.take(c.index) if isinstance(c, Gathered) else c for c in columns]
    lists = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    table = {"columns": names, "rows": [list(row) for row in zip(*lists)]}
    if meta:
        table["meta"] = meta
    if contours is not None:
        table["contours"] = [line.tolist() for line in contours]
    return _round9(table)


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
# commands; cmd_figure and cmd_table are bound from _figures when they run
# ---------------------------------------------------------------------------


def _mean_env(i_fifty: float, m: float) -> GameEnvironment:
    return GameEnvironment(i_fifty=i_fifty, target_value=PopulationMean(m))


def _surface_columns(surface) -> list:
    """One column per swept axis plus the profit, one row per node in C order.

    The axes of a sweep over more than one axis repeat their values, so each
    is a ``Gathered`` column: the axis values, and for each node the index of
    its value in the smallest unsigned dtype that holds it.
    """
    shape = surface.values.shape
    if len(shape) == 1:
        return [*surface.axis_values, surface.values]
    columns = []
    for k, values in enumerate(surface.axis_values):
        index = np.arange(len(values), dtype=np.min_scalar_type(len(values) - 1))
        along_k = [len(values) if j == k else 1 for j in range(len(shape))]
        columns.append(Gathered(values, np.broadcast_to(index.reshape(along_k), shape).ravel()))
    return columns + [surface.values.ravel()]


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
    config = _lazy("SimulationConfig")(
        strategy=AttackerStrategy(a=params["a"], i_beta=params["i_beta"],
                                  i_sigma=params["i_sigma"]),
        environment=GameEnvironment(i_fifty=params["i_fifty"],
                                    target_value=FixedValue(params["x"])),
        n_runs=params["n_runs"],
        seed=_lazy("SeedSpec")(master_seed=params["master_seed"],
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
                write_trace_csv = _lazy("write_trace_csv")

                def on_chunk(chunk, first_run):
                    write_trace_csv(chunk, trace_file, header_lines=header,
                                    first_run=first_run)
            summary = asdict(_lazy("run_batch")(config, workers=args.workers, on_chunk=on_chunk))
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
                        help="master seed: only simulate uses it, where it overrides "
                             "--master-seed")


def _param_flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of ``command`` alone, or of all five commands.

    For one of the five commands only its subparser is registered, with a
    metavar that keeps the usage line listing all five.  Otherwise (None,
    an unknown word or none) all five are registered without one, so
    argparse's errors still name the argument ``command``; a ``command`` of
    None adds every command's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="ransomgame",
        description="Targeted-ransomware negotiation game: figures, tables, "
                    "simulation, optimization, and sweeps.")
    parser.add_argument("--version", action="version", version=__version__)
    alone = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(_COMMANDS) + "}" if alone else None)
    for name, help_text in _COMMANDS.items():
        if name == command or not alone:
            p = sub.add_parser(name, help=help_text)
            if command in (None, name):
                _add_arguments(p, name)
    return parser


def _add_arguments(p, command: str):
    if command == "figure":
        p.add_argument("p_name", nargs="?", metavar="name",
                       help=f"one of {', '.join(_lazy('FIGURE_NAMES'))}")
    elif command == "table":
        p.add_argument("p_what", nargs="?", metavar="what", help="'strategies'")
    _add_common(p)
    if command == "simulate":
        p.add_argument("--workers", type=int, default=1)
        p.add_argument("--trace-out", default=None, help="also write per-run trace CSV")
    elif command == "sweep":
        p.add_argument("--axis", dest="p_axes", metavar="AXIS", action="append",
                       help="name:lo:hi:n[:scale], repeatable")
        p.add_argument("--fix", dest="p_fixed", metavar="FIX", action="append",
                       help="name=value for hidden parameters, repeatable")
    # Every other schema name gets a flag.  No type=: _resolve_params
    # converts flag values as it does config values.
    for name in SCHEMAS[command]:
        if name not in ("name", "what", "axes", "fixed"):
            p.add_argument(_param_flag(name), dest=f"p_{name}")


# Each command's help line; ``cmd_<command>`` runs it.
_COMMANDS = {
    "figure": "emit a figure's data series",
    "table": "emit the reference strategy table",
    "simulate": "run the Monte Carlo engine",
    "optimize": "find the profit-maximizing strategy",
    "sweep": "evaluate expected profit over a grid",
}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the command being run needs its arguments.  argparse takes the
    # first word that is not an option as the command; with none (--help,
    # --version) or an unknown one, no command's arguments are built.  A
    # command word after other words gets every command's arguments: argparse
    # may read "-", "--" or "-1" as the command, and "-h" lists all five.
    word = next((word for word in argv if not word.startswith("-")), "")
    parser = build_parser(None if word in _COMMANDS and argv[0] != word else word)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    flags = {key[2:]: value for key, value in vars(args).items() if key.startswith("p_")}
    if args.seed is not None and "master_seed" in flags:
        flags["master_seed"] = args.seed
    try:
        params = _resolve_params(args.command, flags, args.config)
        return getattr(sys.modules[__name__], f"cmd_{args.command}")(args, params)
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
