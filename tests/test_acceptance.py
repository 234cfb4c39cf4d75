"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import math
import time

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, FixedValue, GameEnvironment,
                        PopulationMean, SeedSpec, SimulationConfig,
                        defender_utility, demand_factor, expected_profit,
                        gross_multiplier_closed_form, gross_multiplier_quadrature,
                        maximize_profit, optimal_counteroffer, reliability,
                        run_batch)
from ransomgame.cli import main

I50 = 0.02
MEAN_ENV = GameEnvironment(i_fifty=I50, target_value=PopulationMean(1.0))

# label, (a, i_beta, i_sigma), counteroffer, expected profit
REFERENCE_TABLE = (
    ("optimal", (4.68, 0.091, 0.104), 0.675, 0.304),
    ("low_aggression", (2.34, 0.091, 0.104), 0.574, 0.276),
    ("high_aggression", (9.36, 0.091, 0.104), 0.741, 0.284),
    ("low_reliability", (4.68, 0.041, 0.104), 0.554, 0.265),
    ("high_reliability", (4.68, 0.182, 0.104), 0.742, 0.264),
    ("low_accuracy", (4.68, 0.091, 0.052), 0.675, 0.283),
    ("high_accuracy", (4.68, 0.091, 0.208), 0.675, 0.267),
)


def _verdict(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} {name}: {status}{suffix}", flush=True)
    assert ok, f"criterion {num} {name} failed{suffix}"


@pytest.fixture(scope="module")
def reference_optimum():
    return maximize_profit(MEAN_ENV)


def test_criterion_1_strategy_table_reproduction():
    start = time.perf_counter()
    ok = True
    for _, (a, ib, isg), c_ref, p_ref in REFERENCE_TABLE:
        beta = reliability(ib, I50)
        c = demand_factor(a, beta) * 1.0
        p = expected_profit(AttackerStrategy(a, ib, isg), MEAN_ENV).value
        ok &= abs(c - c_ref) <= 1e-3
        ok &= abs(p - p_ref) <= 5e-3
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    _verdict(1, "strategy table reproduction", ok, f"{elapsed:.2f}s")


def test_criterion_2_optimum_recovery(reference_optimum):
    start = time.perf_counter()
    opt = maximize_profit(MEAN_ENV)
    elapsed = time.perf_counter() - start
    s = opt.strategy
    ok = (abs(s.a - 4.68) <= 0.25 and abs(s.i_beta - 0.091) <= 0.010
          and abs(s.i_sigma - 0.104) <= 0.010 and abs(opt.profit - 0.304) <= 5e-3
          and elapsed < 30.0)
    _verdict(2, "optimum recovery", ok,
             f"a={s.a:.4f} i_beta={s.i_beta:.4f} i_sigma={s.i_sigma:.4f} "
             f"profit={opt.profit:.4f} {elapsed:.1f}s")


def test_criterion_3_oracle_agreement():
    rng = np.random.default_rng(314159)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        a = float(10.0 ** rng.uniform(-1.0, math.log10(30.0)))
        sigma = float(rng.uniform(0.01, 1.0))
        diff = abs(gross_multiplier_closed_form(a, sigma)
                   - gross_multiplier_quadrature(a, sigma))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 60.0
    _verdict(3, "closed form vs quadrature", ok,
             f"max diff {worst:.2e} over 1000 tuples, {elapsed:.1f}s")


def test_criterion_4_monte_carlo_consistency():
    rng = np.random.default_rng(271828)
    start = time.perf_counter()
    ok = True
    for k in range(20):
        strat = AttackerStrategy(float(10.0 ** rng.uniform(math.log10(0.5), 1.0)),
                                 float(rng.uniform(0.02, 0.3)),
                                 float(rng.uniform(0.02, 0.3)))
        config = SimulationConfig(
            strategy=strat,
            environment=GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0)),
            n_runs=1_000_000, seed=SeedSpec(1000 + k))
        report = run_batch(config, workers=4)
        closed = expected_profit(strat, MEAN_ENV).value
        ok &= abs(report.mean_attacker_profit - closed) <= \
            3.0 * report.std_error_attacker_profit

    paper_config = SimulationConfig(
        strategy=AttackerStrategy(4.68, 0.091, 0.104),
        environment=GameEnvironment(i_fifty=I50, target_value=FixedValue(1.0)),
        n_runs=10_000, seed=SeedSpec(0))
    report = run_batch(paper_config)
    ok &= abs(report.mean_attacker_profit - 0.304) <= \
        3.0 * report.std_error_attacker_profit
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    _verdict(4, "Monte Carlo consistency", ok, f"{elapsed:.1f}s")


def test_criterion_5_defender_optimality():
    rng = np.random.default_rng(161803)
    start = time.perf_counter()
    ok = True
    for _ in range(1000):
        x = float(rng.uniform(0.1, 10.0))
        a = float(10.0 ** rng.uniform(-1.0, math.log10(30.0)))
        beta = float(rng.uniform(0.05, 1.0))
        threshold = demand_factor(a, beta) * x
        r = threshold * float(rng.uniform(1.0 + 1e-9, 6.0))
        c_hat = optimal_counteroffer(r, x, a, beta)
        best = defender_utility(c_hat, r, x, a, beta)
        cs = rng.uniform(0.0, r, size=1000)
        ratio = np.power(cs / r, a)
        utilities = -ratio * (cs - beta * x) - x
        ok &= bool(np.all(utilities <= best + 1e-12))
    elapsed = time.perf_counter() - start
    ok &= elapsed < 30.0
    _verdict(5, "defender optimality", ok, f"{elapsed:.1f}s")


def test_criterion_6_figure_data_checks(tmp_path, reference_optimum):
    ok = True

    # Reliability curve passes through (i_50, 0.5).
    f1 = tmp_path / "f1.csv"
    ok &= main(["figure", "beta_curve", "--out", str(f1)]) == 0
    rows = [line.split(",") for line in f1.read_text().splitlines()
            if line and not line.startswith("#")][1:]
    ok &= any(float(r[0]) == I50 and float(r[1]) == 0.5 for r in rows)

    # Utility curve: breakpoint between full payment and the capped reply.
    f4 = tmp_path / "f4.csv"
    ok &= main(["figure", "utility_vs_demand", "--out", str(f4)]) == 0
    meta = {}
    for line in f4.read_text().splitlines():
        if line.startswith("# ") and ": " in line and not line.startswith("# config"):
            key, _, value = line[2:].partition(": ")
            meta[key] = float(value)
    kink_expected = demand_factor(10.0, reliability(0.1, I50)) * 1.0
    ok &= abs(meta["kink_demand"] - kink_expected) <= 1e-6
    ok &= round(meta["kink_demand"], 4) == 0.7576

    # Profit vs estimate: each aggression curve peaks at the true value with
    # height a*beta/(1+a) - 0.2.
    f5 = tmp_path / "f5.csv"
    ok &= main(["figure", "profit_vs_estimate", "--out", str(f5)]) == 0
    lines = [line for line in f5.read_text().splitlines() if not line.startswith("#")]
    columns = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    beta = reliability(0.1, I50)
    for j, col in enumerate(columns[1:], start=1):
        a = float(col.removeprefix("profit_a_"))
        peak = int(np.argmax(data[:, j]))
        ok &= data[peak, 0] == 1.0
        ok &= abs(data[peak, j] - (demand_factor(a, beta) - 0.2)) <= 1e-8

    # Heatmaps: zero contour exists and the argmax node sits within one grid
    # cell of the reference optimum in each panel.
    stem = tmp_path / "hm"
    ok &= main(["figure", "profit_heatmaps", "--out", str(stem)]) == 0
    opt = {"a": reference_optimum.strategy.a,
           "i_beta": reference_optimum.strategy.i_beta,
           "i_sigma": reference_optimum.strategy.i_sigma}
    for panel in ("i_beta__i_sigma", "a__i_sigma", "a__i_beta"):
        p1, p2 = panel.split("__")
        meta, grid_rows = {}, []
        for line in (tmp_path / f"hm.{panel}.csv").read_text().splitlines():
            if line.startswith("# ") and not line.startswith("# config"):
                key, _, value = line[2:].partition(": ")
                meta[key] = float(value)
            elif not line.startswith("#") and not line[0].isalpha():
                grid_rows.append([float(v) for v in line.split(",")])
        profits = np.array([r[2] for r in grid_rows])
        ok &= bool(np.any(profits > 0.0) and np.any(profits < 0.0))
        contour_lines = (tmp_path / f"hm.{panel}.contour.csv").read_text().splitlines()
        ok &= len(contour_lines) > 2
        for name in (p1, p2):
            axis = np.unique([r[0 if name == p1 else 1] for r in grid_rows])
            node = meta[f"argmax_{name}"]
            idx = int(np.argmin(np.abs(axis - node)))
            cell = axis[min(idx + 1, len(axis) - 1)] - axis[max(idx - 1, 0)]
            ok &= abs(node - opt[name]) <= cell
    _verdict(6, "figure data checks", ok)


def test_criterion_7_determinism(tmp_path):
    start = time.perf_counter()
    ok = True

    # simulate: bit-identical across reruns and worker counts 1, 4, 16.
    blobs = []
    for tag, workers in (("w1", 1), ("w1b", 1), ("w4", 4), ("w16", 16)):
        out = tmp_path / f"sim_{tag}.csv"
        trace = tmp_path / f"trace_{tag}.csv"
        ok &= main(["simulate", "--n-runs", "10000", "--seed", "20220920",
                    "--workers", str(workers), "--out", str(out),
                    "--trace-out", str(trace)]) == 0
        blobs.append(out.read_bytes() + trace.read_bytes())
    ok &= all(b == blobs[0] for b in blobs[1:])

    # Every other command re-run to identical bytes.
    rerun_commands = (
        ["figure", "alpha_curve"],
        ["figure", "utility_vs_demand"],
        ["table", "strategies"],
        ["optimize", "--grid-points", "16"],
        ["sweep", "--axis", "i_beta:0.01:0.4:12:log",
         "--axis", "i_sigma:0.01:0.4:12:log", "--fix", "a=4.68"],
    )
    for k, cmd in enumerate(rerun_commands):
        a = tmp_path / f"cmd{k}_a.csv"
        b = tmp_path / f"cmd{k}_b.csv"
        ok &= main(cmd + ["--seed", "5", "--out", str(a)]) == 0
        ok &= main(cmd + ["--seed", "5", "--out", str(b)]) == 0
        ok &= a.read_bytes() == b.read_bytes()
    elapsed = time.perf_counter() - start
    _verdict(7, "determinism", ok, f"{elapsed:.1f}s")
