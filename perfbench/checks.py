"""Correctness checks on the files a workload's command wrote.

Each check returns a list of failure messages; an empty list means the
output is correct.  They run after timing, in the benchmark's own process,
against the ransomgame package under test.
"""

from __future__ import annotations

import json
import math
import time

from ransomgame import (AttackerStrategy, FixedValue, GameEnvironment, PopulationMean,
                        SeedSpec, expected_profit)
from ransomgame.profit import ProfitMethod
from ransomgame.simulate import SimulationConfig, run_batch

# Criterion-2 tolerances for the recovered optimum: (target, tolerance).
OPTIMUM = {"a": (4.68, 0.25), "i_beta": (0.091, 0.010), "i_sigma": (0.104, 0.010),
           "profit": (0.304, 0.005)}
# Closed form and quadrature must agree this closely (criterion 3).
QUADRATURE_TOL = 1e-6
# A Monte Carlo mean further than this many standard errors from the closed
# form is a failure; at 5 SE a correct program fails about once in 1.7 million.
MAX_Z = 5.0
# Rows of a sweep recomputed by quadrature.
SWEEP_SAMPLES = 100


class QuadratureTimer:
    """Times the quadrature evaluations the checks make."""

    def __init__(self):
        self.seconds = []

    def profit(self, strategy: AttackerStrategy, env: GameEnvironment) -> float:
        start = time.perf_counter()
        value = expected_profit(strategy, env, ProfitMethod.QUADRATURE).value
        self.seconds.append(time.perf_counter() - start)
        return value


def read_csv(path) -> tuple:
    """(config params, header metadata, column names, data rows as strings)."""
    params, meta, columns, rows = None, {}, None, []
    with open(path) as f:
        for line in f:
            line = line.rstrip("\n")
            if line.startswith("# config: "):
                params = json.loads(line[len("# config: "):])["params"]
            elif line.startswith("# "):
                key, _, value = line[2:].partition(": ")
                meta[key] = value
            elif columns is None:
                columns = line.split(",")
            else:
                rows.append(line.split(","))
    if params is None or columns is None:
        raise ValueError(f"{path}: no config line or no header row")
    return params, meta, columns, rows


def _mean_env(params) -> GameEnvironment:
    return GameEnvironment(i_fifty=params["i_fifty"],
                           target_value=PopulationMean(params["m"]))


def check_optimize(outputs: dict, timer: QuadratureTimer, expected: dict) -> list:
    params, _, columns, rows = read_csv(outputs["out"])
    if len(rows) != 1:
        return [f"optimize wrote {len(rows)} rows, expected 1"]
    row = dict(zip(columns, rows[0]))
    errors = []
    for name, (target, tol) in OPTIMUM.items():
        if not abs(float(row[name]) - target) <= tol:
            errors.append(f"optimize {name}={row[name]} not within {target}±{tol}")
    if row["converged"] != "1":
        errors.append(f"optimize converged={row['converged']}, expected 1")
    strategy = AttackerStrategy(float(row["a"]), float(row["i_beta"]), float(row["i_sigma"]))
    quad = timer.profit(strategy, _mean_env(params))
    if not abs(quad - float(row["profit"])) <= QUADRATURE_TOL:
        errors.append(f"optimize profit {row['profit']} vs quadrature {quad!r}")
    return errors


def check_sweep(outputs: dict, timer: QuadratureTimer, expected: dict) -> list:
    params, meta, columns, rows = read_csv(outputs["out"])
    errors = []
    if len(rows) != expected["rows"]:
        errors.append(f"sweep wrote {len(rows)} rows, expected {expected['rows']}")
    if not rows:
        return errors
    profits = [float(r[-1]) for r in rows]
    peak = max(profits)
    if float(meta.get("argmax_profit", "nan")) != peak:
        errors.append(f"sweep argmax_profit {meta.get('argmax_profit')} != column max {peak!r}")
    env = _mean_env(params)
    stride = max(1, len(rows) // SWEEP_SAMPLES)
    sampled = set(range(0, len(rows), stride)) | {profits.index(peak)}
    worst = 0.0
    for i in sorted(sampled):
        point = dict(params["fixed"])
        point.update((name, float(v)) for name, v in zip(columns[:-1], rows[i]))
        quad = timer.profit(AttackerStrategy(point["a"], point["i_beta"], point["i_sigma"]),
                            env)
        worst = max(worst, abs(quad - profits[i]))
    if not worst <= QUADRATURE_TOL:
        errors.append(f"sweep rows differ from quadrature by up to {worst:.3e}")
    return errors


def _ninth_digit(value: float) -> float:
    """One unit in the ninth significant digit of ``value``."""
    return 10.0 ** (math.floor(math.log10(abs(value))) - 8) if value else 1e-9


def _trace_mean(path) -> tuple:
    """(row count, mean attacker payoff) recomputed from a trace CSV."""
    payoffs = []
    with open(path) as f:
        columns = None
        for line in f:
            if line.startswith("#"):
                continue
            if columns is None:
                columns = line.rstrip("\n").split(",")
                col = columns.index("attacker_payoff")
                continue
            payoffs.append(float(line.split(",")[col]))
    return len(payoffs), math.fsum(payoffs) / len(payoffs) if payoffs else math.nan


def _simulation_config(params) -> SimulationConfig:
    return SimulationConfig(
        strategy=AttackerStrategy(params["a"], params["i_beta"], params["i_sigma"]),
        environment=GameEnvironment(i_fifty=params["i_fifty"],
                                    target_value=FixedValue(params["x"])),
        n_runs=params["n_runs"],
        seed=SeedSpec(params["master_seed"], params["stream_index"]))


def check_simulate(outputs: dict, timer: QuadratureTimer, expected: dict) -> list:
    params, _, columns, rows = read_csv(outputs["out"])
    if len(rows) != 1:
        return [f"simulate wrote {len(rows)} summary rows, expected 1"]
    row = dict(zip(columns, rows[0]))
    errors = []
    n_runs = int(row["n_runs"])
    if n_runs != expected["runs"]:
        errors.append(f"simulate n_runs={n_runs}, expected {expected['runs']}")
    counts = sum(int(v) for k, v in row.items() if k.startswith("count_"))
    if counts != n_runs:
        errors.append(f"outcome counts sum to {counts}, expected {n_runs}")

    config = _simulation_config(params)
    mean, std_err = float(row["mean_attacker_profit"]), float(row["std_error_attacker_profit"])
    closed = expected_profit(config.strategy, config.environment).value
    if not abs(mean - closed) <= MAX_Z * std_err:
        errors.append(f"mean {mean!r} is {abs(mean - closed) / std_err:.1f} SE "
                      f"from the closed form {closed!r}")
    quad = timer.profit(config.strategy, config.environment)
    if not abs(quad - closed) <= QUADRATURE_TOL:
        errors.append(f"closed form {closed!r} vs quadrature {quad!r}")

    if "trace" in outputs:
        n_trace, trace_mean = _trace_mean(outputs["trace"])
        if n_trace != n_runs:
            errors.append(f"trace has {n_trace} rows, expected {n_runs}")
        if not abs(trace_mean - mean) <= _ninth_digit(mean):
            errors.append(f"trace mean {trace_mean!r} does not match summary mean {mean!r}")
    if expected.get("rerun"):
        # The summary must not depend on the worker count: compare it with a
        # single-worker batch run here, formatted the way the CLI formats it.
        report = run_batch(config, workers=1)
        fresh = [str(report.n_runs), f"{report.mean_attacker_profit:.9g}",
                 f"{report.std_error_attacker_profit:.9g}",
                 f"{report.mean_defender_utility:.9g}"] + \
            [str(c) for c in report.outcome_counts.values()]
        if fresh != rows[0]:
            errors.append(f"summary {rows[0]} differs from a workers=1 run {fresh}")
    return errors
