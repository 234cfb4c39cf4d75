import inspect
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, defender_utility, demand_factor, estimate_scale,
                        expected_profit, optimal_counteroffer, reliability)
from ransomgame._figures import _FIGURES, FIGURE_NAMES, STRATEGY_TABLE, _grid_with_value
from ransomgame.cli import SCHEMAS, _write_csv, build_parser, main
from ransomgame.optimize import DEFAULT_BOUNDS, AxisSpec, SweepGrid, maximize_profit, profit_surface
from ransomgame import cli, optimize, profit, simulate
from ransomgame._rows import BLOCK_ROWS, cell
from ransomgame.profit import ProfitMethod
from ransomgame.simulate import SimulationConfig, run_batch
from ransomgame.stochastics import SeedSpec

# 10**18 float64s (about 7 EiB) exceed every 64-bit address space, so the
# allocation fails at once without touching memory.
HUGE = str(10 ** 18)
# Sizes numpy cannot address at all: it raises ValueError, not MemoryError.
TOO_BIG = str(10 ** 19)


def read_csv(path):
    """(config dict, meta dict, columns, rows-as-strings) from an output file."""
    config, meta, columns, rows = None, {}, None, []
    for line in path.read_text().splitlines():
        if line.startswith("# config: "):
            config = json.loads(line[len("# config: "):])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            meta[key] = value
        elif columns is None:
            columns = line.split(",")
        else:
            rows.append(line.split(","))
    return config, meta, columns, rows


class TestFigureCommands:
    @pytest.mark.parametrize("name", [n for n in FIGURE_NAMES if n != "profit_heatmaps"])
    def test_every_figure_writes_parseable_csv(self, tmp_path, name):
        out = tmp_path / f"{name}.csv"
        assert main(["figure", name, "--out", str(out)]) == 0
        config, _, columns, rows = read_csv(out)
        assert config["command"] == "figure"
        assert config["params"]["name"] == name
        assert len(columns) >= 2
        assert rows
        for row in rows[:5]:
            [float(v) for v in row]

    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_header_holds_exactly_the_builder_parameters(self, tmp_path, name):
        # A header reproduces its file only if it holds every parameter the
        # builder reads; one it does not read would only make it longer.
        parameters = inspect.signature(_FIGURES[name]).parameters
        out = tmp_path / "f.json"
        assert main(["figure", name, "--points", "5", "--format", "json",
                     "--out", str(out)]) == 0
        assert set(json.loads(out.read_text())["params"]) == {"name", *parameters}
        for parameter in parameters.values():
            if parameter.default is parameter.empty:
                assert SCHEMAS["figure"][parameter.name][1] is not None, parameter.name

    def test_beta_curve_passes_through_half_reliability(self, tmp_path):
        out = tmp_path / "f1.csv"
        main(["figure", "beta_curve", "--out", str(out)])
        _, _, columns, rows = read_csv(out)
        assert columns == ["i_beta", "beta"]
        hits = [r for r in rows if float(r[0]) == 0.02]
        assert len(hits) == 1 and float(hits[0][1]) == 0.5

    def test_figure_defaults_match_caption_parameters(self):
        # The captions pin i_50 = 0.02 everywhere, a = 10 and i_beta = 0.1
        # for the utility figure, x = 1 and equal 0.1 investments for the
        # profit-vs-estimate figure.
        defaults = {name: conv_default[1] for name, conv_default in SCHEMAS["figure"].items()}
        assert defaults["i_fifty"] == 0.02
        assert defaults["a"] == 10.0
        assert defaults["i_beta"] == 0.1
        assert defaults["i_sigma"] == 0.1
        assert defaults["x"] == 1.0
        assert SCHEMAS["simulate"]["i_fifty"][1] == 0.02
        assert SCHEMAS["simulate"]["n_runs"][1] == 10000
        assert SCHEMAS["optimize"]["i_fifty"][1] == 0.02
        assert SCHEMAS["optimize"]["m"][1] == 1.0

    def test_utility_figure_kink_metadata(self, tmp_path):
        out = tmp_path / "f4.csv"
        main(["figure", "utility_vs_demand", "--out", str(out)])
        _, meta, columns, rows = read_csv(out)
        beta = reliability(0.1, 0.02)
        assert float(meta["kink_demand"]) == pytest.approx(
            demand_factor(10.0, beta) * 1.0, abs=1e-9)
        # The optimal reply dominates every fixed counteroffer cap.
        idx = columns.index("utility_optimal")
        for row in rows:
            best = float(row[idx])
            for j in range(2, len(columns)):
                assert float(row[j]) <= best + 1e-9

    def test_profit_vs_estimate_peaks(self, tmp_path):
        out = tmp_path / "f5.csv"
        main(["figure", "profit_vs_estimate", "--out", str(out)])
        _, _, columns, rows = read_csv(out)
        x_est = np.array([float(r[0]) for r in rows])
        beta = reliability(0.1, 0.02)
        for j, col in enumerate(columns[1:], start=1):
            a = float(col.removeprefix("profit_a_"))
            vals = np.array([float(r[j]) for r in rows])
            peak = int(np.argmax(vals))
            assert x_est[peak] == 1.0
            assert vals[peak] == pytest.approx(demand_factor(a, beta) - 0.2, abs=1e-8)

    @pytest.mark.parametrize("flag,value", [("--i-fifty", "1e-320"),
                                            ("--i-sigma-values", "1e308")])
    def test_estimate_pdf_infinite_density_is_numerical_error(self, tmp_path, capsys,
                                                              flag, value):
        # A subnormal sigma makes the density at the median overflow.
        out = tmp_path / "p.csv"
        assert main(["figure", "estimate_pdf", flag, value, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ") and err.count("\n") == 1
        assert not out.exists()

    def test_estimate_pdf_near_float64_limit_keeps_subnormal_densities(self, tmp_path):
        # x_est * sigma * sqrt(2 pi) overflows here, so one product as the
        # divisor would turn every density into 0.
        out = tmp_path / "p.csv"
        assert main(["figure", "estimate_pdf", "--x", "1e308", "--x-est-max", "1e308",
                     "--out", str(out)]) == 0
        _, _, columns, rows = read_csv(out)
        cells = np.array(rows, dtype=float)
        x_est = cells[:, 0]
        for j, col in enumerate(columns[1:], start=1):
            sigma = estimate_scale(float(col.removeprefix("pdf_i_sigma_")), 0.02)
            z = (np.log(x_est) - math.log(1e308)) / sigma
            log_pdf = -0.5 * z * z - np.log(x_est) - math.log(sigma * math.sqrt(2.0 * math.pi))
            assert np.all(cells[log_pdf > -744.0, j] > 0.0), col
            normal = log_pdf > -700.0
            assert np.allclose(cells[normal, j], np.exp(log_pdf[normal]), rtol=1e-6), col

    @pytest.mark.parametrize("argv,err", [
        (["figure", "spiral"], f"unknown figure 'spiral'; expected one of {FIGURE_NAMES}"),
        (["figure"], f"figure needs a name; expected one of {FIGURE_NAMES}"),
    ], ids=["spiral", "no-name"])
    def test_unknown_figure_is_config_error(self, tmp_path, capsys, argv, err):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {err}\n"

    @pytest.mark.parametrize("points", ["0", "1"])
    @pytest.mark.parametrize("name", FIGURE_NAMES)
    def test_too_few_points_is_config_error(self, tmp_path, capsys, name, points):
        assert main(["figure", name, "--points", points,
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: points must be at least 2, got {points}\n"

    @pytest.mark.parametrize("name,flag", [("alpha_curve", "--a-values"),
                                           ("profit_vs_estimate", "--a-values"),
                                           ("estimate_pdf", "--i-sigma-values"),
                                           ("utility_vs_demand", "--c-max-values")])
    def test_empty_value_list_is_config_error(self, tmp_path, name, flag):
        assert main(["figure", name, flag, "", "--out", str(tmp_path / "x.csv")]) == 2


class TestTableCommand:
    def test_reference_values(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "strategies", "--out", str(out)]) == 0
        _, _, columns, rows = read_csv(out)
        assert columns == ["strategy", "a", "i_beta", "i_sigma",
                           "counteroffer", "expected_profit"]
        assert len(rows) == 7
        table = {r[0]: (float(r[4]), float(r[5])) for r in rows}
        expected = {"optimal": (0.675, 0.304),
                    "low_aggression": (0.574, 0.276),
                    "high_aggression": (0.741, 0.284),
                    "low_reliability": (0.554, 0.265),
                    "high_reliability": (0.742, 0.264),
                    "low_accuracy": (0.675, 0.283),
                    "high_accuracy": (0.675, 0.267)}
        for label, (c, p) in expected.items():
            assert table[label][0] == pytest.approx(c, abs=1e-3)
            assert table[label][1] == pytest.approx(p, abs=5e-3)

    def test_unknown_table_rejected(self, tmp_path):
        assert main(["table", "payoffs", "--out", str(tmp_path / "x.csv")]) == 2

    def test_flags_write_the_bytes_of_a_config_file(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": "table",
                                      "params": {"i_fifty": 0.03, "m": 2}}))
        by_flags, by_config = tmp_path / "flags.csv", tmp_path / "config.csv"
        assert main(["table", "strategies", "--i-fifty", "0.03", "--m", "2",
                     "--out", str(by_flags)]) == 0
        assert main(["table", "strategies", "--config", str(config),
                     "--out", str(by_config)]) == 0
        assert by_flags.read_bytes() == by_config.read_bytes()
        assert read_csv(by_flags)[0]["params"] == {"what": "strategies", "i_fifty": 0.03,
                                                   "m": 2.0}


class TestSimulateCommand:
    def test_report_and_determinism(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--n-runs", "5000", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        config, _, columns, rows = read_csv(a)
        assert config["params"]["master_seed"] == 7
        assert int(rows[0][columns.index("n_runs")]) == 5000
        counts = [int(rows[0][j]) for j, c in enumerate(columns) if c.startswith("count_")]
        assert sum(counts) == 5000

    def test_worker_invariance_of_output_bytes(self, tmp_path, monkeypatch):
        # 1,000-run chunks, so the 20,000 runs span 20 chunks and 16 workers
        # stream the trace from a full pool.
        monkeypatch.setattr(simulate, "_CHUNK", 1000)
        outs = []
        for w in (1, 4, 16):
            out, trace = tmp_path / f"w{w}.csv", tmp_path / f"t{w}.csv"
            assert main(["simulate", "--n-runs", "20000", "--seed", "3", "--workers", str(w),
                         "--out", str(out), "--trace-out", str(trace)]) == 0
            outs.append((out.read_bytes(), trace.read_bytes()))
        assert outs[0] == outs[1] == outs[2]
        assert outs[0][1].count(b"\n") == 20002

    def test_trace_export(self, tmp_path):
        out = tmp_path / "r.csv"
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--n-runs", "100", "--seed", "1",
                     "--out", str(out), "--trace-out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[1] == ("run_index,x,x_tilde,R,C,alpha,aggressive,"
                            "decrypted,attacker_payoff,defender_payoff")
        assert len(lines) == 102

    def test_unwritable_trace_fails_before_simulating(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        assert main(["simulate", "--n-runs", "100", "--out", str(out),
                     "--trace-out", str(tmp_path / "missing" / "t.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output file ")
        assert err.count("\n") == 1
        assert not out.exists()

    def test_bad_worker_count_leaves_no_trace(self, tmp_path, capsys):
        out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
        assert main(["simulate", "--n-runs", "10", "--workers", "0", "--out", str(out),
                     "--trace-out", str(trace)]) == 2
        assert capsys.readouterr().err == "error: workers must be >= 1, got 0\n"
        assert not trace.exists() and not out.exists()

    def test_worker_count_above_the_cap_is_refused_before_any_thread(self, tmp_path, capsys,
                                                                     monkeypatch):
        # One slice of runs would need no pool, so a count capped only at
        # the batch's slices would run; the cap refuses it before the trace
        # file, any chunk slot or any thread exists.
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        out, trace = tmp_path / "r.csv", tmp_path / "t.csv"
        assert main(["simulate", "--n-runs", "1000", "--workers", "1000000", "--out", str(out),
                     "--trace-out", str(trace)]) == 2
        assert capsys.readouterr().err == \
            f"error: workers must be <= {simulate.MAX_WORKERS}, got 1000000\n"
        assert not trace.exists() and not out.exists()
        assert started == []

    def test_out_and_trace_out_naming_one_file_is_config_error(self, tmp_path, capsys):
        # The summary, opened after the batch, would truncate the trace.
        path, link, hard = tmp_path / "p.csv", tmp_path / "link.csv", tmp_path / "hard.csv"
        argv = ["simulate", "--n-runs", "10", "--out", str(path), "--trace-out"]
        assert main(argv + [str(path)]) == 2
        assert not path.exists()
        path.write_text("kept")
        link.symlink_to(path)
        hard.hardlink_to(path)
        for trace in (path, link, hard):
            assert main(argv + [str(trace)]) == 2
        assert capsys.readouterr().err.count("name the same file") == 4
        assert path.read_text() == "kept"
        # A device is not a regular file, so both outputs may go to it.
        assert main(["simulate", "--n-runs", "10", "--out", os.devnull,
                     "--trace-out", os.devnull]) == 0

    def test_unwritable_output_leaves_no_trace(self, tmp_path, capsys):
        trace = tmp_path / "t.csv"
        assert main(["simulate", "--n-runs", "10", "--trace-out", str(trace),
                     "--out", str(tmp_path / "missing" / "o.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output file ")
        assert not trace.exists()

    def test_size_too_large_for_memory_leaves_no_trace(self, tmp_path, capsys):
        # The trace is streamed to disk: 10**18 rows of at least 20 bytes fit
        # on no file system, so the command fails before simulating.
        out, trace = tmp_path / "o.csv", tmp_path / "t.csv"
        assert main(["simulate", "--n-runs", HUGE, "--trace-out", str(trace),
                     "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: ") and err.count("\n") == 1
        assert not trace.exists() and not out.exists()

    def test_zero_sigma_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert main(["simulate", "--i-fifty", "1e-300", "--i-sigma", "1e300",
                     "--n-runs", "10", "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sigma must lie in (0, 1], got 0.0\n"
        assert not out.exists()

    def test_huge_payoffs_give_finite_summary(self, tmp_path, capsys):
        # Squared deviations near 1e300 overflow unless scaled.
        out = tmp_path / "o.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--x", "1e300", "--a", "10", "--n-runs", "100",
                         "--out", str(out)]) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        _, _, columns, rows = read_csv(out)
        values = [float(v) for v in rows[0][1:4]]
        assert np.all(np.isfinite(values))

    def test_non_finite_payoff_is_numerical_failure(self, tmp_path, capsys):
        # The defender's payoff -x - C overflows to -inf on every paid run
        # whose decryption fails.  At x = the float maximum, every estimate
        # below x is paid in full and reliability 5e-5 (i_beta 1e-6) fails
        # nearly every decryption: about half of any stream's 100 runs.
        out, trace = tmp_path / "o.csv", tmp_path / "t.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--x", "1.7976931348623157e308", "--a", "1e10",
                         "--i-beta", "1e-6", "--n-runs", "100",
                         "--out", str(out), "--trace-out", str(trace)]) == 3
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ("numerical failure: a simulated payoff is not "
                                           "finite; the inputs overflow float64\n")
        assert not out.exists() and not trace.exists()

    def test_config_roundtrip(self, tmp_path):
        first = tmp_path / "first.csv"
        main(["simulate", "--n-runs", "2000", "--seed", "99", "--out", str(first)])
        header = first.read_text().splitlines()[0]
        config_file = tmp_path / "rerun.json"
        config_file.write_text(header.removeprefix("# config: "))
        second = tmp_path / "second.csv"
        assert main(["simulate", "--config", str(config_file),
                     "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()


class TestOptimizeCommand:
    def test_small_grid_runs(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--grid-points", "16", "--out", str(out)]) == 0
        _, _, columns, rows = read_csv(out)
        row = dict(zip(columns, rows[0]))
        assert float(row["profit"]) == pytest.approx(0.3055596, abs=1e-4)
        assert row["converged"] == "1"

    def test_default_row_bytes(self, tmp_path):
        out = tmp_path / "opt.csv"
        assert main(["optimize", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[-2:] == [
            "a,i_beta,i_sigma,profit,evaluations,converged",
            "4.67444338,0.0904823312,0.103793015,0.305559598,334,1"]

    @pytest.mark.parametrize("args", [
        ["--a-hi", "1e300", "--grid-points", "8"],
        ["--i-beta-hi", "1e308", "--i-sigma-hi", "1e308"],
    ])
    def test_boxes_spanning_many_decades_reach_the_optimum(self, tmp_path, args):
        out = tmp_path / "opt.csv"
        assert main(["optimize", *args, "--out", str(out)]) == 0
        _, _, columns, rows = read_csv(out)
        row = dict(zip(columns, rows[0]))
        assert float(row["profit"]) == pytest.approx(0.3055595976, abs=1e-9)
        assert (row["profit"], row["converged"]) == ("0.305559598", "1")

    @pytest.mark.parametrize("args,message", [
        (["--a-lo", "1", "--a-hi", "1"], "axis a: need lo < hi, got [1.0, 1.0]"),
        (["--i-beta-hi", "inf"], "axis i_beta: need lo < hi, got [0.001, inf]"),
        (["--i-sigma-lo", "0"], "axis i_sigma: log spacing needs lo > 0, got 0.0"),
        (["--grid-points", "1"], "axis a: need at least 2 points, got 1"),
    ])
    def test_bad_box_is_an_axis_error(self, tmp_path, capsys, args, message):
        assert main(["optimize", *args, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("n", ["1000000", HUGE, TOO_BIG])
    def test_grid_points_past_the_cap_is_config_error(self, tmp_path, capsys, n):
        # Guard nodes take no memory but an inner solve each, so the count is capped.
        out = tmp_path / "x.csv"
        assert main(["optimize", "--grid-points", n, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: grid_points must be at most 4096, got {n}\n"
        assert not out.exists()

    def test_zero_sigma_is_config_error(self, tmp_path, capsys):
        # i_fifty / (i_fifty + i_sigma) underflows at the top of the i_sigma side.
        out = tmp_path / "x.csv"
        assert main(["optimize", "--i-fifty", "1e-300", "--i-sigma-hi", "1e308",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: sigma must lie in (0, 1], got 0.0\n"
        assert not out.exists()

    def test_rerun_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["optimize", "--grid-points", "12", "--out", str(a)])
        main(["optimize", "--grid-points", "12", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestSweepCommand:
    def test_values_match_direct_calls(self, tmp_path, mean_env):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--axis", "i_beta:0.05:0.2:2:linear",
                     "--axis", "i_sigma:0.05:0.2:2:linear",
                     "--fix", "a=4.68", "--out", str(out)]) == 0
        _, _, columns, rows = read_csv(out)
        assert columns == ["i_beta", "i_sigma", "profit"]
        assert len(rows) == 4
        for row in rows:
            strat = AttackerStrategy(4.68, float(row[0]), float(row[1]))
            direct = expected_profit(strat, mean_env).value
            assert float(row[2]) == float(f"{direct:.9g}")

    def test_missing_axes_rejected(self, tmp_path):
        assert main(["sweep", "--out", str(tmp_path / "x.csv")]) == 2

    def test_axis_error_keeps_its_reason(self, tmp_path, capsys):
        assert main(["sweep", "--axis", "a:1:2:1", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: axis a: need at least 2 points, got 1\n"

    def test_fractional_axis_count_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        axis = {"name": "a", "lo": 1, "hi": 2, "n": 3.5}
        config.write_text(json.dumps({"version": 1, "command": "sweep",
                                      "params": {"axes": [axis]}}))
        assert main(["sweep", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: malformed axis spec ")

    @pytest.mark.parametrize("args,message", [
        (["--axis", "i_beta:0.01:0.5:4", "--fix", "a=nan", "--fix", "i_sigma=0.1"],
         "a must be finite, got nan"),
        (["--axis", "i_beta:-0.1:0.5:4", "--fix", "a=4.68", "--fix", "i_sigma=0.1"],
         "i_beta must be >= 0, got -0.1"),
        (["--i-fifty", "1e308", "--axis", "a:1:2:3", "--fix", "i_beta=0.1",
          "--fix", "i_sigma=1e308"], "sigma must lie in (0, 1], got 0.0"),
    ])
    def test_out_of_domain_strategy_is_config_error(self, tmp_path, capsys, args, message):
        assert main(["sweep", *args, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("args", [
        ["sweep", "--axis", "a:1:2:3", "--fix", "i_beta=1e308", "--fix", "i_sigma=1e308"],
        # Every i_beta + i_sigma in the box overflows.
        ["optimize", "--i-beta-lo", "1e308", "--i-beta-hi", "1.5e308", "--i-sigma-lo", "1e308",
         "--i-sigma-hi", "1.5e308", "--grid-points", "8"],
    ])
    def test_non_finite_profit_is_numerical_failure(self, tmp_path, capsys, args):
        # Outside pytest a warning would print to stderr, above the error line.
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*args, "--out", str(tmp_path / "x.csv")]) == 3
        assert [str(w.message) for w in caught] == []
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: closed-form profit ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("args", [
        ["sweep", "--axis", "a:1:1e300:3", "--fix", "i_beta=0.09", "--fix", "i_sigma=0.1"],
        ["optimize", "--a-hi", "1e300", "--grid-points", "8"],
        ["sweep", "--i-fifty", "1e-20", "--axis", "a:1e155:1e156:2", "--fix", "i_beta=0.1",
         "--fix", "i_sigma=1e297"],
        # The box's top corner overflows, but the best i_beta never reaches it.
        ["optimize", "--i-beta-hi", "1e308", "--i-sigma-hi", "1e308", "--grid-points", "8"],
    ])
    def test_huge_aggression_gives_finite_profit(self, tmp_path, capsys, args):
        out = tmp_path / "x.csv"
        assert main([*args, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, columns, rows = read_csv(out)
        profits = [float(row[columns.index("profit")]) for row in rows]
        assert rows and all(np.isfinite(profits))

    def test_small_y_at_huge_aggression_matches_the_closed_form(self, tmp_path, capsys):
        # a * a overflows at the last two nodes, where y = a * sigma is 0.5 and 1.
        out = tmp_path / "x.csv"
        assert main(["sweep", "--i-fifty", "1e-300", "--axis", "a:1:1e300:3",
                     "--fix", "i_beta=0.1", "--fix", "i_sigma=1", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        _, _, columns, rows = read_csv(out)
        profits = [float(row[columns.index("profit")]) for row in rows]
        assert profits == pytest.approx([-0.6, -0.250381165, -0.338421708], rel=1e-9)

    @pytest.mark.parametrize("args", [
        ["--axis", "a:1:2:100000", "--axis", "i_sigma:0.01:0.5:100000", "--fix", "i_beta=0.1"],
        ["--axis", "a:1:2:10000000", "--axis", "i_beta:0.01:0.5:10000000",
         "--axis", "i_sigma:0.01:0.5:10000000"],
    ])
    def test_oversized_sweep_exits_before_any_g(self, tmp_path, capsys, monkeypatch, args):
        # 80 GB past this host's memory, and 8e21 bytes past what numpy can
        # address: both fail when the grid is allocated, before G's erfcx runs.
        def no_g(x):
            raise AssertionError("G was computed before the grid was allocated")

        monkeypatch.setattr(profit, "_erfcx", no_g)
        assert main(["sweep", *args, "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: not enough memory: ")
        assert not (tmp_path / "x.csv").exists()

    def test_csv_sweep_traces_no_contours(self, tmp_path, monkeypatch):
        # Only the JSON form carries the contours of a sweep.
        def no_contours(*args):
            raise AssertionError("contours traced")

        monkeypatch.setattr(optimize, "zero_contours", no_contours)
        argv = ["sweep", "--axis", "i_beta:0.001:0.5:40:log",
                "--axis", "i_sigma:0.001:0.5:40:log", "--fix", "a=4.68"]
        assert main(argv + ["--out", str(tmp_path / "s.csv")]) == 0
        with pytest.raises(AssertionError, match="contours traced"):
            main(argv + ["--format", "json", "--out", str(tmp_path / "s.json")])

    def test_contour_reaches_huge_aggression(self, tmp_path, capsys):
        # The zero line runs along one i_sigma through every a node up to 1e300.
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--axis", "a:1:1e300:5", "--axis", "i_sigma:0.01:0.5:5",
                     "--fix", "i_beta=0.1", "--format", "json", "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        [line] = json.loads(out.read_text())["contours"]
        assert [a for a, _ in line] == [1e300, 7.5e299, 5e299, 2.5e299, 1.0]

    def test_contour_on_axis_finer_than_1e_12(self, tmp_path):
        # The profit changes sign in every i_sigma row, so the line has a
        # point in each of the 40 rows.
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--axis", "a:0.05:20:40", "--axis", "i_sigma:1e-14:2e-14:40",
                     "--fix", "i_beta=0.05", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        [line] = payload["contours"]
        rows = sorted({row[1] for row in payload["rows"]})
        assert sorted(i_sigma for _, i_sigma in line) == rows

    def test_json_output_with_contours(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--axis", "i_beta:0.001:0.5:40:log",
                     "--axis", "i_sigma:0.001:0.5:40:log",
                     "--fix", "a=4.68", "--format", "json",
                     "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "sweep"
        assert len(payload["rows"]) == 1600
        assert payload["contours"]

    def test_csv_sweep_peak_memory_stays_under_three_profit_arrays(self, tmp_path):
        # The axes are written from their 400 values and a small index each,
        # not from float copies as large as the profit array.
        argv = ["sweep", "--axis", "i_beta:0.001:0.5:400:log",
                "--axis", "i_sigma:0.001:0.5:400:log", "--fix", "a=4.68",
                "--out", str(tmp_path / "s.csv")]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 400 * 400 * 8


def _reference_surface_columns(surface) -> list:
    """The sweep's columns as float copies of the grid, one per axis."""
    grids = np.meshgrid(*surface.axis_values, indexing="ij")
    return [g.ravel() for g in grids] + [surface.values.ravel()]


class TestSurfaceColumns:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", "a:0.05:20:300", "--fix", "i_beta=0.05", "--fix", "i_sigma=0.1"],
        # 3,600 rows: the gathered axes cross a block boundary.
        ["sweep", "--axis", "i_beta:0.001:0.5:60:log", "--axis", "i_sigma:0.001:0.5:60:log",
         "--fix", "a=4.68"],
        ["sweep", "--axis", "i_sigma:0.001:0.5:60:log", "--axis", "i_beta:0.001:0.5:60:log",
         "--fix", "a=4.68"],
        ["sweep", "--axis", "i_sigma:0.001:0.5:20:log", "--axis", "a:0.1:20:30:log",
         "--axis", "i_beta:0.001:0.5:25"],
        ["figure", "profit_heatmaps", "--points", "12"],
    ])
    def test_bytes_match_meshgrid_columns(self, tmp_path, monkeypatch, argv, fmt):
        def write(name):
            (tmp_path / name).mkdir()
            assert main([*argv, "--format", fmt, "--out", str(tmp_path / name / "out")]) == 0
            return {f.name: f.read_bytes() for f in (tmp_path / name).iterdir()}

        got = write("got")
        monkeypatch.setattr(cli, "_surface_columns", _reference_surface_columns)
        assert got == write("want")


def _reference_write_csv(path, config_line, meta, names, rows):
    """The CLI table written one row at a time, one cell call per value."""
    with open(path, "w", newline="\n") as f:
        f.write(f"# config: {config_line}\n")
        for line in meta:
            f.write(f"# {line}\n")
        f.write(",".join(names) + "\n")
        for row in rows:
            f.write(",".join(cell(v) for v in row) + "\n")


def _mixed_columns(n):
    rng = np.random.default_rng(n)
    specials = [0.0, -0.0, 5e-324, 1e16, -1e16, 1e-05, 123456789.5, 0.1, -2.5,
                float("nan"), float("inf"), float("-inf")]
    return {
        "special": np.resize(np.array(specials), n),
        "normal": rng.normal(scale=1e3, size=n),
        # Decimal exponents -4 ... 8 within every 13 rows, so within every block.
        "span": rng.uniform(-10.0, 10.0, n) * 10.0 ** np.resize(np.arange(-4, 9), n),
        "int": np.arange(n, dtype=np.int64) * 7919 - 2 ** 40,
        "small_uint": (np.arange(n) % 5).astype(np.uint8),
        "bool": rng.random(n) < 0.5,
        "label": np.resize(np.array(["optimal", "low_accuracy", "x"]), n),
        "object": [(None, "high_reliability", 7, 2.5, True, -0.0, np.float64(1e16),
                    np.int64(-3), np.bool_(False), 5e-324)[k % 10] for k in range(n)],
    }


class TestCsvWriter:
    @pytest.mark.parametrize("n", [1, 1024, 1025, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1,
                                   40_000])
    def test_bytes_match_cell_by_cell_reference(self, tmp_path, n):
        columns = _mixed_columns(n)
        names, values = list(columns), list(columns.values())
        meta = ["argmax_profit: 0.25", "label: NA"]
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        _write_csv(str(got), "{}", meta, names, *values)
        _reference_write_csv(want, "{}", meta, names, zip(*values))
        assert got.read_bytes() == want.read_bytes()

    def test_sweep_matches_row_by_row_reference(self, tmp_path, mean_env):
        axes = ["a:0.5:20:7:log", "i_beta:0.001:0.5:5", "i_sigma:0.001:0.5:6:log"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", *(arg for ax in axes for arg in ("--axis", ax)),
                     "--out", str(out)]) == 0
        grid = SweepGrid(axes=[AxisSpec(n, float(lo), float(hi), int(k), *scale)
                               for n, lo, hi, k, *scale in (ax.split(":") for ax in axes)])
        surface = profit_surface(mean_env, grid)
        rows = _surface_rows(surface)
        header = out.read_text().splitlines(keepends=True)
        want = tmp_path / "want.csv"
        _reference_write_csv(want, header[0][len("# config: "):-1],
                             [line[2:-1] for line in header[1:5]],
                             ["a", "i_beta", "i_sigma", "profit"], rows)
        assert out.read_bytes() == want.read_bytes()


def _reference_table(names, rows, meta=None, contours=None):
    """A JSON table built row by row."""
    table = {"columns": names, "rows": [list(row) for row in rows]}
    if meta:
        table["meta"] = meta
    if contours is not None:
        table["contours"] = [line.tolist() for line in contours]
    return table


def _reference_dump(payload):
    """A JSON file's text: the header as given, the tables' floats at 9 significant digits."""
    def round9(obj):
        if isinstance(obj, float):
            return float(f"{obj:.9g}")
        if isinstance(obj, dict):
            return {k: round9(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [round9(v) for v in obj]
        return obj

    header = ("version", "command", "params")
    return json.dumps({k: v if k in header else round9(v) for k, v in payload.items()},
                      sort_keys=True, indent=1) + "\n"


def _reference_json(command, params, names, rows, meta=None, contours=None):
    return _reference_dump({"version": 1, "command": command, "params": params,
                            **_reference_table(names, rows, meta, contours)})


def _surface_rows(surface):
    """One (axis values..., profit) tuple per node in C order."""
    return [tuple(v[k] for v, k in zip(surface.axis_values, idx)) + (surface.values[idx],)
            for idx in np.ndindex(*surface.values.shape)]


def _defaults(command, **overrides):
    return {name: default for name, (_, default) in SCHEMAS[command].items()} | overrides


class TestJsonBytes:
    @staticmethod
    def _json(tmp_path, *argv):
        out = tmp_path / "out.json"
        assert main([*argv, "--format", "json", "--out", str(out)]) == 0
        return out.read_text()

    @pytest.mark.parametrize("axes,fixed", [
        (["i_beta:0.001:0.5:40:log", "i_sigma:0.001:0.5:40:log"], {"a": 4.68}),
        (["a:0.5:20:7:log", "i_beta:0.001:0.5:5", "i_sigma:0.001:0.5:6:log"], {}),
    ])
    def test_sweep(self, tmp_path, mean_env, axes, fixed):
        got = self._json(tmp_path, "sweep", *(arg for ax in axes for arg in ("--axis", ax)),
                         *(f"--fix={k}={v}" for k, v in fixed.items()))
        specs = [AxisSpec(n, float(lo), float(hi), int(k), *scale)
                 for n, lo, hi, k, *scale in (ax.split(":") for ax in axes)]
        surface = profit_surface(mean_env, SweepGrid(axes=specs, fixed=fixed))
        rows = _surface_rows(surface)
        best = surface.argmax_strategy
        meta = {"argmax_a": best.a, "argmax_i_beta": best.i_beta,
                "argmax_i_sigma": best.i_sigma, "argmax_profit": surface.argmax_profit}
        params = {"i_fifty": 0.02, "m": 1.0, "fixed": fixed,
                  "axes": [{"name": ax.name, "lo": ax.lo, "hi": ax.hi, "n": ax.n,
                            "scale": ax.scale} for ax in specs]}
        assert fixed == {} or surface.contours
        assert got == _reference_json("sweep", params, [ax.name for ax in specs] + ["profit"],
                                      rows, meta, surface.contours)

    @pytest.mark.parametrize("argv", [
        ["simulate", "--n-runs", "2000", "--seed", "1", "--x", "1.00000000049"],
        ["sweep", "--axis", "i_beta:0.001:0.5:20:log", "--axis", "i_sigma:0.001:0.5:20:log",
         "--fix", "a=4.6812345678"],
    ])
    def test_config_roundtrip(self, tmp_path, argv):
        # The header keeps each param in full, so re-running from it gives the same bytes.
        first = self._json(tmp_path, *argv)
        config_file = tmp_path / "rerun.json"
        config_file.write_text(json.dumps(
            {k: v for k, v in json.loads(first).items() if k in ("version", "command", "params")}))
        assert self._json(tmp_path, argv[0], "--config", str(config_file)) == first

    def test_table(self, tmp_path, mean_env):
        rows = [(label, a, i_beta, i_sigma, demand_factor(a, reliability(i_beta, 0.02)),
                 expected_profit(AttackerStrategy(a, i_beta, i_sigma), mean_env,
                                 ProfitMethod.CLOSED_FORM).value)
                for label, a, i_beta, i_sigma in STRATEGY_TABLE]
        names = ["strategy", "a", "i_beta", "i_sigma", "counteroffer", "expected_profit"]
        assert self._json(tmp_path, "table", "strategies") == _reference_json(
            "table", _defaults("table"), names, rows)

    def test_optimize(self, tmp_path, mean_env):
        best = maximize_profit(mean_env, bounds=DEFAULT_BOUNDS, grid_points=8)
        row = (best.strategy.a, best.strategy.i_beta, best.strategy.i_sigma, best.profit,
               best.evaluations, best.converged)
        names = ["a", "i_beta", "i_sigma", "profit", "evaluations", "converged"]
        assert self._json(tmp_path, "optimize", "--grid-points", "8") == _reference_json(
            "optimize", _defaults("optimize", grid_points=8), names, [row])

    def test_simulate_single_run(self, tmp_path, fixed_env):
        report = run_batch(SimulationConfig(strategy=AttackerStrategy(4.68, 0.091, 0.104),
                                            environment=fixed_env, n_runs=1,
                                            seed=SeedSpec(master_seed=0, stream_index=0)))
        assert report.std_error_attacker_profit is None
        names = ["n_runs", "mean_attacker_profit", "std_error_attacker_profit",
                 "mean_defender_utility"] + [f"count_{k.value}" for k in report.outcome_counts]
        row = [report.n_runs, report.mean_attacker_profit, None,
               report.mean_defender_utility, *report.outcome_counts.values()]
        assert self._json(tmp_path, "simulate", "--n-runs", "1") == _reference_json(
            "simulate", _defaults("simulate", n_runs=1), names, [row])

    def test_utility_figure(self, tmp_path):
        beta = reliability(0.1, 0.02)
        kink = demand_factor(10.0, beta)
        caps = [0.6, 0.7, 0.8]
        rows = [[r, defender_utility(optimal_counteroffer(r, 1.0, 10.0, beta), r, 1.0, 10.0, beta)]
                + [defender_utility(min(r, c), r, 1.0, 10.0, beta) for c in caps]
                for r in _grid_with_value(2.0 / 400, 2.0, 400, kink)]
        names = ["demand", "utility_optimal"] + [f"utility_cmax_{c:g}" for c in caps]
        params = {"name": "utility_vs_demand", "x": 1.0, "i_fifty": 0.02, "i_beta": 0.1,
                  "a": 10.0, "c_max_values": caps, "r_max": 2.0, "points": 400}
        assert self._json(tmp_path, "figure", "utility_vs_demand") == _reference_json(
            "figure", params, names, rows, {"kink_demand": kink, "beta": beta})

    def test_heatmaps(self, tmp_path, mean_env):
        got = self._json(tmp_path, "figure", "profit_heatmaps", "--points", "12")
        opt = maximize_profit(mean_env).strategy
        ranges = {"a": (0.1, 20.0), "i_beta": (0.001, 0.5), "i_sigma": (0.001, 0.5)}
        panels = {}
        for p1, p2, hidden in (("i_beta", "i_sigma", "a"), ("a", "i_sigma", "i_beta"),
                               ("a", "i_beta", "i_sigma")):
            fixed = getattr(opt, hidden)
            grid = SweepGrid(axes=[AxisSpec(p1, *ranges[p1], 12, "log"),
                                   AxisSpec(p2, *ranges[p2], 12, "log")],
                             fixed={hidden: fixed})
            surface = profit_surface(mean_env, grid)
            best = surface.argmax_strategy
            meta = {f"fixed_{hidden}": fixed, f"argmax_{p1}": getattr(best, p1),
                    f"argmax_{p2}": getattr(best, p2), "argmax_profit": surface.argmax_profit}
            assert surface.contours
            panels[f"{p1}__{p2}"] = _reference_table([p1, p2, "profit"], _surface_rows(surface),
                                                     meta, surface.contours)
        params = {"name": "profit_heatmaps", "i_fifty": 0.02, "m": 1.0, "a_lo": 0.1,
                  "a_hi": 20.0, "inv_lo": 0.001, "inv_hi": 0.5, "points": 12}
        assert got == _reference_dump({"version": 1, "command": "figure", "params": params,
                                       "panels": panels})


class TestHeatmapFigure:
    def test_panels_and_contours(self, tmp_path):
        stem = tmp_path / "hm"
        assert main(["figure", "profit_heatmaps", "--points", "60",
                     "--out", str(stem)]) == 0
        for panel in ("i_beta__i_sigma", "a__i_sigma", "a__i_beta"):
            _, meta, columns, rows = read_csv(tmp_path / f"hm.{panel}.csv")
            assert len(rows) == 3600
            profits = np.array([float(r[2]) for r in rows])
            assert np.any(profits > 0.0) and np.any(profits < 0.0)
            assert "argmax_profit" in meta
            _, _, ccols, crows = read_csv(tmp_path / f"hm.{panel}.contour.csv")
            assert ccols[0] == "polyline"
            assert crows


class TestConfigHandling:
    def test_unknown_param_rejected(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": "simulate",
                                      "params": {"n_rnus": 10}}))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_wrong_version_rejected(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 99, "command": "simulate",
                                      "params": {}}))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer_1(self, tmp_path, capsys, version):
        # True == 1 and 1.0 == 1 in Python; neither is config version 1.
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": version, "command": "optimize",
                                      "params": {}}))
        assert main(["optimize", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err.startswith("error: unsupported config version ")
        assert not (tmp_path / "x.csv").exists()

    def test_command_mismatch_rejected(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": "optimize",
                                      "params": {}}))
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_malformed_json_rejected(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text("{not json")
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_unwritable_path_is_error(self):
        assert main(["table", "strategies",
                     "--out", "/nonexistent-dir/deep/x.csv"]) == 2

    @pytest.mark.parametrize("command,params", [
        ("simulate", {"n_runs": "abc"}),
        ("sweep", {"axes": 5}),
        ("sweep", {"axes": ["i_beta:0.01:0.5:4"], "fixed": {"i_beta": "x", "a": 4.68}}),
        ("figure", {"name": "beta_curve", "points": "many"}),
        ("simulate", {"n_runs": 2.7}),
        ("simulate", {"n_runs": True}),
        ("simulate", {"master_seed": 1.5}),
        ("simulate", {"stream_index": False}),
        ("optimize", {"grid_points": True}),
        ("optimize", {"grid_points": 8.0}),
        ("figure", {"name": "beta_curve", "points": 2.5}),
        ("sweep", {"axes": "a:1:2:3", "fixed": {"i_beta": 0.1, "i_sigma": 0.1}}),
        ("sweep", {"fixed": "i_beta=0.1"}),
        # JSON true and false are not the numbers 1 and 0.
        ("optimize", {"m": True}),
        ("sweep", {"axes": [{"name": "a", "lo": True, "hi": 2, "n": 3}],
                   "fixed": {"i_beta": 0.1, "i_sigma": 0.1}}),
        ("sweep", {"axes": ["a:1:2:3"], "fixed": {"i_beta": False, "i_sigma": 0.1}}),
        ("figure", {"name": "alpha_curve", "a_values": [1.0, True]}),
    ])
    def test_unconvertible_param_is_config_error(self, tmp_path, capsys, command, params):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": command, "params": params}))
        assert main([command, "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value for ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command,params", [
        ("simulate", {"a": None}),
        ("figure", {"name": "estimate_pdf", "i_sigma_values": None}),
        ("optimize", {"grid_points": None}),
        ("sweep", {"axes": ["a:1:2:3"], "fixed": None}),
    ])
    def test_null_param_means_default(self, tmp_path, capsys, command, params):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": command, "params": params}))
        code = main([command, "--config", str(config), "--out", str(tmp_path / "x.csv")])
        err = capsys.readouterr().err
        if command == "sweep":
            assert (code, err) == (2, "error: parameters neither swept nor fixed: "
                                      "['i_beta', 'i_sigma']\n")
        else:
            assert (code, err) == (0, "")

    def test_null_param_writes_the_default_bytes(self, tmp_path):
        outs = []
        for params in ({"a": None}, {}):
            config = tmp_path / "c.json"
            config.write_text(json.dumps({"version": 1, "command": "simulate",
                                          "params": params}))
            out = tmp_path / f"{len(params)}.csv"
            assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_undecodable_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_bytes(b"\xff\xfe")
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_bad_flag_value_is_config_error(self, tmp_path, capsys):
        assert main(["simulate", "--n-runs", "abc", "--out", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "error: invalid value for n_runs: 'abc'\n"

    @pytest.mark.parametrize("argv", [
        ["sweep", "--axis", f"a:1:2:{HUGE}", "--fix", "i_beta=0.1", "--fix", "i_sigma=0.1"],
        ["figure", "beta_curve", "--points", HUGE],
        ["simulate", "--n-runs", str(2 * 10 ** 18)],
        ["simulate", "--n-runs", TOO_BIG],
        ["figure", "alpha_curve", "--points", TOO_BIG],
        ["figure", "beta_curve", "--points", TOO_BIG],
        ["sweep", "--axis", f"a:1:2:{TOO_BIG}", "--fix", "i_beta=0.1", "--fix", "i_sigma=0.1"],
    ])
    def test_size_too_large_for_memory_is_config_error(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: not enough memory: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,config,message", [
        (["figure", "alpha_curve", "--a-values", "x"], None,
         "expected a comma-separated list of numbers, got 'x'"),
        (["sweep"], {"version": 1, "command": "sweep",
                     "params": {"axes": [{"name": "a", "lo": 1, "hi": 2, "n": 3, "step": 1}]}},
         "unknown axis keys: ['step']"),
        (["sweep"], {"version": 1, "command": "sweep",
                     "params": {"axes": [{"name": "a", "lo": 1, "hi": 2}]}},
         "axis spec missing key 'n'"),
        (["sweep", "--axis", "a:1:2"], None, "axis spec must be name:lo:hi:n[:scale], got 'a:1:2'"),
        (["sweep", "--axis", "a:1:2:3", "--fix", "i_beta"], None,
         "fixed parameter must be name=value, got 'i_beta'"),
        (["sweep", "--axis", "a:1:2:3", "--fix", "i_beta=x"], None,
         "malformed fixed parameter 'i_beta=x'"),
        (["table"], [1], "config file {config} must hold a JSON object"),
        (["table"], {"version": 1, "command": "table", "extra": 1}, "unknown config keys: ['extra']"),
        (["table"], {"version": 1, "command": "table", "params": [1]},
         "config params must be an object"),
        (["figure", "estimate_pdf", "--x", "0"], None, "x must be positive, got 0.0"),
        (["sweep", "--axis", "a:1:2:3:cubic", "--fix", "i_beta=0.1", "--fix", "i_sigma=0.1"], None,
         "axis a: scale must be linear or log, got 'cubic'"),
        (["sweep", "--axis", "a:1:2:3", "--axis", "a:1:2:3", "--fix", "i_beta=0.1",
          "--fix", "i_sigma=0.1"], None, "duplicate sweep axes: ['a', 'a']"),
        (["sweep", "--axis", "a:1:2:3", "--fix", "i_beta=0.1", "--fix", "q=0.1"], None,
         "unknown fixed parameter 'q'"),
        # A figure refuses a parameter it does not take unless it is the default.
        (["figure", "beta_curve", "--a", "5", "--i-sigma", "0.3"], None,
         "figure beta_curve takes no i_sigma, a; it takes i_fifty, i_beta_max, points"),
        (["figure"], {"version": 1, "command": "figure",
                      "params": {"name": "alpha_curve", "x": 2, "m": 1}},
         "figure alpha_curve takes no x; it takes a_values, points"),
    ])
    def test_rejected_input_exits_2_with_one_line(self, tmp_path, capsys, argv, config,
                                                  message):
        config_path, out = tmp_path / "c.json", tmp_path / "x.csv"
        if config is not None:
            config_path.write_text(json.dumps(config))
            argv = [*argv, "--config", str(config_path)]
        assert main([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {message.format(config=config_path)}\n"
        assert not out.exists()

    def test_deeply_nested_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text("[" * 200_000)
        assert main(["simulate", "--config", str(config),
                     "--out", str(tmp_path / "x.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: config file {config} is not valid JSON: ")
        assert err.count("\n") == 1

    def test_integral_string_is_an_integer(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": "simulate",
                                      "params": {"n_runs": "12"}}))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        parsed, _, columns, rows = read_csv(out)
        assert parsed["params"]["n_runs"] == 12
        assert rows[0][columns.index("n_runs")] == "12"

    def test_cli_flag_overrides_config(self, tmp_path):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"version": 1, "command": "simulate",
                                      "params": {"n_runs": 50, "master_seed": 4}}))
        out = tmp_path / "o.csv"
        assert main(["simulate", "--config", str(config), "--n-runs", "75",
                     "--out", str(out)]) == 0
        parsed, _, columns, rows = read_csv(out)
        assert parsed["params"]["n_runs"] == 75
        assert parsed["params"]["master_seed"] == 4

    def test_usage_error_exit_code(self, tmp_path):
        assert main(["simulate"]) == 2  # --out missing
        assert main(["warp", "--out", str(tmp_path / "x.csv")]) == 2


# The usage line of a command-less error lists every command.
_USAGE = "usage: ransomgame [-h] [--version] {figure,table,simulate,optimize,sweep} ...\n"


class TestParser:
    """``main`` adds only its command's arguments to the parser."""

    @staticmethod
    def _whole_parser_error(argv, capsys) -> str:
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        return capsys.readouterr().err

    @pytest.mark.parametrize("argv, last_line", [
        (["bogus"], "ransomgame: error: argument command: invalid choice: 'bogus' "),
        (["optimize", "--out", "x", "extra"],
         "ransomgame: error: unrecognized arguments: extra"),
        (["simulate", "--out", "x", "--workers", "x"],
         "ransomgame simulate: error: argument --workers: invalid int value: 'x'"),
        # argparse reads "-1" as the command, not the later command word.
        (["-1", "optimize", "--out", "x"],
         "ransomgame: error: argument command: invalid choice: '-1' "),
    ])
    def test_errors_match_the_parser_of_every_command(self, tmp_path, capsys, monkeypatch,
                                                      argv, last_line):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == self._whole_parser_error(argv, capsys)
        assert err.splitlines()[-1].startswith(last_line)
        if argv[0] != "simulate":
            assert err.startswith(_USAGE)
        assert list(tmp_path.iterdir()) == []

    def test_help_before_a_command_lists_all_five(self, capsys):
        assert main(["--help"]) == 0
        whole = capsys.readouterr().out
        assert main(["-h", "optimize"]) == 0
        assert capsys.readouterr().out == whole
        assert all(f"    {name} " in whole for name in SCHEMAS)

    @pytest.mark.parametrize("command", SCHEMAS)
    def test_help_lists_every_schema_flag(self, capsys, command):
        assert main([command, "--help"]) == 0
        text = capsys.readouterr().out
        assert text.startswith(f"usage: ransomgame {command} ")
        own = {"name": "name", "what": "what", "axes": "--axis", "fixed": "--fix"}
        for name in SCHEMAS[command]:
            assert own.get(name, "--" + name.replace("_", "-")) in text.split()

    def test_arguments_default_to_sys_argv(self, tmp_path, monkeypatch):
        out = tmp_path / "table.csv"
        monkeypatch.setattr(sys, "argv", ["ransomgame", "table", "strategies",
                                          "--out", str(out)])
        assert main() == 0
        assert read_csv(out)[0]["command"] == "table"


class TestModuleEntryPoint:
    @staticmethod
    def _run(*args):
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = dict(os.environ, PYTHONPATH=src)
        return subprocess.run([sys.executable, "-m", "ransomgame.cli", *args],
                              env=env, capture_output=True, text=True, timeout=60)

    def test_help(self):
        proc = self._run("--help")
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: ransomgame")

    def test_bad_subcommand(self):
        assert self._run("warp").returncode == 2

    def test_estimate_pdf_bad_x_prints_only_the_error(self, tmp_path):
        proc = self._run("figure", "estimate_pdf", "--x", "0",
                         "--out", str(tmp_path / "x.csv"))
        assert proc.returncode == 2
        assert proc.stderr == "error: x must be positive, got 0.0\n"
