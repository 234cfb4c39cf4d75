"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest perfbench/test_perfbench.py

The smoke runs use ``--size smoke``: every workload with its shape kept and
its size cut to milliseconds of work.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_matches_the_runner():
    assert list(BENCH) == ["command", "paths", "run_seconds", "workloads", "end_to_end",
                           "per_layer"]
    assert [w["name"] for w in BENCH["workloads"]] == list(run.workloads())
    assert {m["name"]: m["unit"] for m in BENCH["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCH["per_layer"]} == run.PER_LAYER_UNITS
    assert all(len(w["why"]) <= 200 for w in BENCH["workloads"])
    bounds = {m["name"]: m["bound"] for m in BENCH["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    # A full pass of 4 + 22 runs per workload, each with its checks, must
    # fit in 3420 s.
    assert (4 + 22 * len(BENCH["workloads"])) * (BENCH["run_seconds"] + 8) < 3420


def test_every_metric_has_a_recorded_expectation():
    expectations = json.loads((HERE / "expectations.json").read_text())
    assert set(expectations["workloads"]) == set(run.workloads())
    assert set(expectations["per_layer"]) == set(run.PER_LAYER_UNITS)
    assert set(run.END_TO_END_UNITS) <= set(expectations["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.workloads()))
def test_smoke_run_emits_every_metric_and_passes_checks(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1",
                  "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    section = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in section}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())

    record = json.loads((ROOT / ".perfbench" / "results" /
                         f"{workload}-seed3-trace{trace}-smoke.json").read_text())
    meta = record["metadata"]
    assert meta["units"] == run.workloads("smoke")[workload].units
    assert meta["python"] and meta["numpy"] and meta["nproc"] >= 1
    assert record["digests"]["out"] and record["outputs_identical_across_commands"]
    for cmd in record["commands"]:
        if cmd["layers"] is not None:
            layers = cmd["layers"]
            assert layers["trace.absent_targets"] == 0
            accounted = sum(layers[name] for name in tracing.SELF_TIME_METRICS)
            assert accounted == pytest.approx(layers["cli.main_s"], rel=1e-9)


def _report(wall_s, probe_us, n_samples, probe_wall_s=0.0):
    probe = {"probe_wall_s": probe_wall_s, "probe_samples": [probe_us * 1e-6] * n_samples,
             "probe_edge_samples": [run.PROBE_REF_S] * 10}
    return {"wall_s": wall_s, "probe": probe, "import_s": wall_s / 10,
            "setup_probe": probe}


def test_scaling_cancels_the_host_speed():
    fast = _report(2.0, 1e6 * run.PROBE_REF_S, 100, probe_wall_s=0.05)
    slow = _report(3.6, 1.8e6 * run.PROBE_REF_S, 100, probe_wall_s=0.09)
    assert run.norm_wall_s(fast) == pytest.approx(1.95)
    assert run.norm_wall_s(slow) == pytest.approx(1.95)
    assert run.norm_setup_s(fast) == pytest.approx(0.15)


def test_scaling_drops_outlying_probe_samples():
    report = _report(1.0, 1e6 * run.PROBE_REF_S, 20)
    report["probe"]["probe_samples"][:2] = [run.PROBE_REF_S * 20, run.PROBE_REF_S / 20]
    assert run.norm_wall_s(report) == pytest.approx(1.0)


def test_a_command_with_few_probe_samples_uses_the_edge_samples():
    report = _report(1.0, 2e6 * run.PROBE_REF_S, run.MIN_PROBE_SAMPLES - 1)
    # 4 samples at twice the reference time and 10 edge samples at it; the
    # trimmed mean leaves out one of each: (9 * 1 + 3 * 2) / 12.
    assert run.norm_wall_s(report) == pytest.approx(12 / 15)


def test_corrupted_output_counts_as_a_failure(tmp_path):
    workload = run.workloads("smoke")["optimize"]
    commands = run.run_commands(ROOT, tmp_path, workload, seed=1, seconds=0.0, trace=False)
    out = commands[0].outputs["out"]
    header, row = out.read_text().rsplit("\n", 2)[:2]
    fields = row.split(",")
    fields[3] = "0.25"  # profit far outside the criterion-2 tolerance
    out.write_text(header + "\n" + ",".join(fields) + "\n")
    run.check_commands(workload, commands, trace=False)
    failed = sum(not c.ok for c in commands)
    assert failed >= 1 and any("profit" in e for e in commands[0].errors)


def test_nonzero_exit_counts_as_a_failure(tmp_path):
    bad = run.Workload("bad", ("optimize", "--grid-points", "1"), units=1, unit="node",
                       check="optimize")
    commands = run.run_commands(ROOT, tmp_path, bad, seed=1, seconds=0.0, trace=False)
    run.check_commands(bad, commands, trace=False)
    assert all(not c.ok and c.result["rc"] == 2 for c in commands)


def test_missing_targets_are_reported_absent():
    recorder = tracing.Recorder()
    absent = recorder.install([
        ("ransomgame.no_such_module", "f", "x.f", "span", None),
        ("ransomgame.optimize", "no_such_function", "optimize.nope", "span", None),
        (lambda: None, "simulate_runs", "kernel.simulate_runs", "span", None),
    ])
    assert absent == 3
    metrics = tracing.layer_metrics(recorder.to_dict())
    assert metrics["trace.absent_targets"] == 3
    assert metrics["kernel.runs"] == 0 and metrics["kernel.simulate_runs_s"] == 0.0


def test_concurrent_innermost_spans_share_wall_time():
    spans = [{"name": "cli.main", "start": 0.0, "end": 10.0, "parent": None},
             {"name": "simulate.run_batch", "start": 1.0, "end": 9.0, "parent": 0},
             {"name": "kernel.simulate_runs", "start": 2.0, "end": 6.0, "parent": 1},
             {"name": "kernel.simulate_runs", "start": 4.0, "end": 8.0, "parent": 1}]
    assert tracing.exclusive_times(spans) == pytest.approx([2.0, 2.0, 3.0, 3.0])


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "optimize", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
