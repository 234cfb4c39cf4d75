import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ransomgame import (AttackerStrategy, GameEnvironment, PopulationMean,
                        demand_factor, expected_profit, reliability)
from ransomgame.cli import FIGURE_NAMES, SCHEMAS, main


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

    def test_unknown_figure_is_config_error(self, tmp_path):
        assert main(["figure", "spiral", "--out", str(tmp_path / "x.csv")]) == 2

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

    def test_worker_invariance_of_output_bytes(self, tmp_path):
        outs = []
        for w in (1, 4, 16):
            out = tmp_path / f"w{w}.csv"
            assert main(["simulate", "--n-runs", "20000", "--seed", "3",
                         "--workers", str(w), "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_trace_export(self, tmp_path):
        out = tmp_path / "r.csv"
        trace = tmp_path / "trace.csv"
        assert main(["simulate", "--n-runs", "100", "--seed", "1",
                     "--out", str(out), "--trace-out", str(trace)]) == 0
        lines = trace.read_text().splitlines()
        assert lines[1] == ("run_index,x,x_tilde,R,C,alpha,aggressive,"
                            "decrypted,attacker_payoff,defender_payoff")
        assert len(lines) == 102

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
