"""End-to-end and per-layer benchmark of the ransomgame CLI.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each command runs as ``ransomgame.cli.main(argv)`` in a fresh interpreter
(``perfbench/child.py``) with ``src`` on ``PYTHONPATH``, one command at a
time (a closed loop with one client), for ``--seconds``: a command starts
only if it is expected to end in time, and at least three run.  The outputs
are then checked.  With ``--trace 0`` the last stdout line reports
the end-to-end metrics, whose times are scaled to a reference host speed
that a probe in the child measures while the import and the command run
(see ``child.py``); with ``--trace 1`` untraced and traced commands
alternate and it reports the per-layer metrics.  A JSON record of the run,
including run metadata and the SHA-256 of every output file, is written to
``.perfbench/results/``.

``--size smoke`` shrinks every workload to a few milliseconds of work; the
benchmark's own tests use it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "baseline" / "seed_commit.json"

# Fewest commands a run measures, however short --seconds is.
MIN_COMMANDS = 3
# A command taking longer than this is killed and counts as failed.
COMMAND_TIMEOUT_S = 120.0

# The host-speed probe's CPU time per sample at the reference speed, to
# which command times are scaled (child.py).  It is a fixed constant, near
# the probe's median on a 2-vCPU Xeon KVM guest, so that scaled times read
# as seconds on that host.
PROBE_REF_S = 5.0e-4
# Fewest probe samples inside a command for its own samples to set its speed.
MIN_PROBE_SAMPLES = 5

END_TO_END_UNITS = {"norm_wall_s": "s", "norm_units_per_s": "1/s", "setup_s": "s",
                    "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "stochastics.uniform_blocks_s": "s", "stochastics.uniform_blocks_calls": "count",
    "stochastics.blocks": "count",
    "kernel.simulate_runs_s": "s", "kernel.runs": "count", "kernel.bytes_computed": "B",
    "simulate.run_batch_s": "s", "simulate.self_s": "s",
    "simulate.write_trace_csv_s": "s", "simulate.trace_rows": "count",
    "simulate.trace_bytes": "B",
    "profit.closed_form_calls": "count", "profit.closed_form_s": "s",
    "profit.closed_form_us": "us", "profit.quadrature_us": "us",
    "quadrature.intervals": "count", "quadrature.evals": "count",
    "optimize.maximize_profit_s": "s", "optimize.grid_s": "s",
    "optimize.nelder_mead_s": "s", "optimize.nm_iterations": "count",
    "optimize.nm_evals": "count", "optimize.profit_surface_s": "s", "optimize.self_s": "s",
    "contour.zero_contours_s": "s", "contour.polylines": "count", "contour.points": "count",
    "cli.main_s": "s", "cli.write_s": "s", "cli.rows_written": "count",
    "cli.bytes_written": "B", "cli.self_s": "s",
    "proc.cpu_s": "s", "proc.wall_s": "s", "proc.import_s": "s",
    "proc.speed_probe_us": "us",
    "trace.overhead_s": "s", "trace.absent_targets": "count",
}


@dataclass(frozen=True)
class Workload:
    """One CLI command line, its size in work units and how to check it."""

    name: str
    args: tuple
    units: int
    unit: str
    check: str
    expected: dict = field(default_factory=dict)
    seeded: bool = False
    trace_out: bool = False

    def argv(self, program_seed: int, outdir: Path) -> tuple:
        """(CLI argv, output files by role) for one command writing to outdir."""
        outputs = {"out": outdir / "out.csv"}
        argv = list(self.args)
        if self.seeded:
            argv += ["--seed", str(program_seed)]
        argv += ["--out", str(outputs["out"])]
        if self.trace_out:
            outputs["trace"] = outdir / "trace.csv"
            argv += ["--trace-out", str(outputs["trace"])]
        return argv, outputs


def workloads(size: str = "full") -> dict:
    """The four workloads; ``smoke`` keeps their shape at a tiny size."""
    full = size == "full"
    grid = 64 if full else 4
    side = 200 if full else 5
    mc_runs = 1_000_000 if full else 1000
    trace_runs = 200_000 if full else 1000
    sweep_axes = ("--axis", f"i_beta:0.001:0.5:{side}:log",
                  "--axis", f"i_sigma:0.001:0.5:{side}:log", "--fix", "a=4.68")
    return {w.name: w for w in (
        Workload("optimize", ("optimize",) + (() if full else ("--grid-points", str(grid))),
                 units=grid ** 3, unit="grid nodes", check="optimize"),
        Workload("sweep_surface", ("sweep",) + sweep_axes, units=side * side,
                 unit="grid nodes", check="sweep", expected={"rows": side * side}),
        Workload("simulate_mc", ("simulate", "--n-runs", str(mc_runs), "--workers", "1"),
                 units=mc_runs, unit="runs", check="simulate",
                 expected={"runs": mc_runs}, seeded=True),
        Workload("simulate_trace", ("simulate", "--n-runs", str(trace_runs),
                                    "--workers", "2"),
                 units=trace_runs, unit="runs", check="simulate",
                 expected={"runs": trace_runs, "rerun": True}, seeded=True,
                 trace_out=True),
    )}


def program_seed(workload: str, seed: int) -> int:
    """The --seed the program sees, derived from the benchmark seed."""
    return random.Random(f"{workload}/{seed}").randrange(1, 2 ** 32)


def sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def reference_key(argv: list, outputs: dict) -> str:
    """The command line with output paths reduced to their file names."""
    paths = {str(p): p.name for p in outputs.values()}
    return " ".join(paths.get(a, a) for a in argv)


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, or the wrong one)."""


# ---------------------------------------------------------------------------
# Running commands
# ---------------------------------------------------------------------------


@dataclass
class Command:
    index: int
    traced: bool
    argv: list
    outputs: dict
    result: dict | None = None          # the child's report; None if it crashed
    stderr: str = ""
    digests: dict = field(default_factory=dict)
    spans: dict | None = None           # what a traced command's Recorder recorded
    layers: dict | None = None          # per-layer metrics computed from the spans
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.result is not None and self.result["rc"] == 0 and not self.errors


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(root: Path, request: dict) -> tuple:
    """Run child.py once; (its JSON report or None, stderr)."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), json.dumps(request)],
                              cwd=root, env=_child_env(root), capture_output=True,
                              text=True, timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"command timed out after {COMMAND_TIMEOUT_S} s"
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, proc.stderr
    report = json.loads(lines[-1])
    src = (root / "src").resolve()
    if src not in Path(report["module_file"]).resolve().parents:
        raise BenchmarkError(f"ransomgame.cli was imported from {report['module_file']}, "
                             f"not from {src}")
    return report, proc.stderr


def vm_steal_s() -> float | None:
    """CPU time the hypervisor took from this machine so far, all CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_commands(root: Path, work: Path, workload: Workload, seed: int, seconds: float,
                 trace: bool) -> list:
    """Run the workload's command for ``seconds``, at least MIN_COMMANDS times.

    With tracing, untraced and traced commands alternate.  Outputs identical
    to an earlier command's are deleted once hashed; the first of each
    distinct set is kept for the checks.
    """
    import tracing

    # Warm-up: compile bytecode and fill the file cache before timing.
    report, stderr = run_child(root, {"argv": ["--version"], "trace": False})
    if report is None:
        raise BenchmarkError(f"ransomgame.cli does not start:\n{stderr}")

    commands, seen, costs = [], set(), []
    start = time.perf_counter()
    # Start another command only if it is expected to end within the run.
    while len(commands) < MIN_COMMANDS or \
            time.perf_counter() - start + statistics.median(costs) <= seconds:
        began = time.perf_counter()
        index = len(commands)
        cmd_dir = work / f"cmd{index}"
        cmd_dir.mkdir(parents=True)
        argv, outputs = workload.argv(program_seed(workload.name, seed), cmd_dir)
        cmd = Command(index=index, traced=trace and index % 2 == 1, argv=argv,
                      outputs=outputs)
        spans_out = cmd_dir / "spans.json"
        steal = vm_steal_s()
        cmd.result, cmd.stderr = run_child(root, {"argv": argv, "trace": cmd.traced,
                                                  "spans_out": str(spans_out)})
        if cmd.result is not None and steal is not None:
            # Diagnostic: on a shared host, wall time beyond CPU time is
            # mostly time the hypervisor gave to other guests.
            cmd.result["vm_steal_s"] = vm_steal_s() - steal
        if cmd.traced and cmd.result is not None:
            cmd.spans = json.loads(spans_out.read_text())
            cmd.layers = tracing.layer_metrics(cmd.spans)
        cmd.digests = {role: sha256(p) for role, p in outputs.items() if p.exists()}
        key = tuple(sorted(cmd.digests.items()))
        if key in seen:
            shutil.rmtree(cmd_dir)
        seen.add(key)
        commands.append(cmd)
        costs.append(time.perf_counter() - began)
    return commands


def check_commands(workload: Workload, commands: list, trace: bool) -> dict:
    """Check each distinct output set once; mark every command that wrote it.

    Returns quadrature statistics from the checks (per-layer metrics).
    """
    import checks
    import tracing

    recorder = tracing.Recorder()
    if trace:
        recorder.install(tracing.QUADRATURE_TARGETS)
    timer = checks.QuadratureTimer()
    check = getattr(checks, f"check_{workload.check}")
    verdicts = {}
    for cmd in commands:
        if cmd.result is None or cmd.result["rc"] != 0:
            cmd.errors.append(f"command failed (exit {cmd.result and cmd.result['rc']}): "
                              f"{cmd.stderr.strip()[-500:]}")
            continue
        if set(cmd.digests) != set(cmd.outputs):
            cmd.errors.append(f"missing outputs: {sorted(set(cmd.outputs) - set(cmd.digests))}")
            continue
        key = tuple(sorted(cmd.digests.items()))
        if key not in verdicts:
            try:
                verdicts[key] = check(cmd.outputs, timer, workload.expected)
            except (OSError, ValueError, KeyError, IndexError) as e:
                verdicts[key] = [f"unreadable output: {e!r}"]
        cmd.errors.extend(verdicts[key])

    spans = recorder.to_dict()["spans"]
    n_eval = len(timer.seconds)
    return {
        "profit.quadrature_us": 1e6 * statistics.median(timer.seconds) if n_eval else 0.0,
        "quadrature.intervals": sum(s["counts"].get("intervals", 0) for s in spans) / n_eval
        if n_eval else 0.0,
        "quadrature.evals": sum(s["counts"].get("evals", 0) for s in spans) / n_eval
        if n_eval else 0.0,
    }


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def probe_s(probe: dict) -> float:
    """CPU time of one probe sample while the timed section ran: the mean
    with the highest and lowest tenth of the samples left out."""
    samples = probe["probe_samples"]
    if len(samples) < MIN_PROBE_SAMPLES:
        samples = samples + probe["probe_edge_samples"]
    samples = sorted(samples)
    trim = len(samples) // 10
    return statistics.fmean(samples[trim:len(samples) - trim])


def command_s(report: dict) -> float:
    """Wall time of an untraced command, less the time its probe took."""
    return report["wall_s"] - report["probe"]["probe_wall_s"]


def norm_wall_s(report: dict) -> float:
    """The command's wall time scaled to the reference host speed."""
    return command_s(report) * PROBE_REF_S / probe_s(report["probe"])


def norm_setup_s(report: dict) -> float:
    """The import's wall time scaled to the reference host speed."""
    probe = report["setup_probe"]
    return (report["import_s"] - probe["probe_wall_s"]) * PROBE_REF_S / probe_s(probe)


def end_to_end(workload: Workload, commands: list) -> dict:
    done = [c.result for c in commands if c.result is not None]
    if not done:
        raise BenchmarkError("no command produced a report")
    wall = statistics.median(norm_wall_s(r) for r in done)
    return {"norm_wall_s": wall,
            "norm_units_per_s": workload.units / wall,
            "setup_s": statistics.median(norm_setup_s(r) for r in done),
            "peak_rss_mb": statistics.median(r["maxrss_kb"] for r in done) / 1024.0}


def per_layer(commands: list, quadrature: dict) -> dict:
    traced = [c.layers for c in commands if c.layers is not None]
    untraced = [c.result for c in commands if not c.traced and c.result is not None]
    if not traced or not untraced:
        raise BenchmarkError("a traced run needs a traced and an untraced command")
    metrics = {name: statistics.median(layers[name] for layers in traced)
               for name in traced[0]}
    metrics.update(quadrature)
    metrics["proc.cpu_s"] = statistics.median(r["cpu_s"] for r in untraced)
    metrics["proc.wall_s"] = statistics.median(command_s(r) for r in untraced)
    metrics["proc.import_s"] = statistics.median(r["import_s"] - r["setup_probe"]["probe_wall_s"]
                                                 for r in untraced)
    metrics["proc.speed_probe_us"] = 1e6 * statistics.median(probe_s(r["probe"])
                                                             for r in untraced)
    metrics["trace.overhead_s"] = metrics["cli.main_s"] - metrics["proc.wall_s"]
    return metrics


def metadata(root: Path, workload: Workload, seed: int) -> dict:
    """Where and on what the run happened."""
    import numpy as np

    import ransomgame

    try:
        from numpy._core._multiarray_umath import (__cpu_baseline__, __cpu_dispatch__,
                                                   __cpu_features__)
        simd = {"baseline": list(__cpu_baseline__),
                "dispatch": [f for f in __cpu_dispatch__ if __cpu_features__.get(f)]}
    except ImportError:
        simd = None
    git_sha = None
    if (root / ".git").exists():
        try:
            git_sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                                     capture_output=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            git_sha = None
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.suffix in (".py", ".pyx") and "__pycache__" not in path.parts:
            source.update(path.relative_to(root).as_posix().encode())
            source.update(path.read_bytes())
    backend = getattr(ransomgame, "active_backend", None)
    return {"git_sha": git_sha, "source_sha256": source.hexdigest(),
            "python": platform.python_version(), "numpy": np.__version__,
            "numpy_simd": simd, "backend": backend() if backend else None,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "workload": workload.name, "seed": seed,
            "program_seed": program_seed(workload.name, seed) if workload.seeded else None,
            "units": workload.units, "unit": workload.unit}


def compare_reference(workload: Workload, argv_key: str, digests: dict) -> str:
    """How the outputs compare with the seed commit's.  Information only."""
    if not REFERENCE.exists():
        return "no reference file"
    ref = json.loads(REFERENCE.read_text())["digests"].get(workload.name, {}).get(argv_key)
    if ref is None:
        return "no reference for these inputs"
    changed = sorted(role for role in set(ref) | set(digests)
                     if ref.get(role) != digests.get(role))
    return "identical" if not changed else f"changed: {', '.join(changed)}"


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def run(root: Path, workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    """Measure, check and report one run; returns the result record."""
    src = root / "src"
    if not (src / "ransomgame" / "cli.py").is_file():
        raise BenchmarkError(f"no ransomgame source under {src}")
    sys.path.insert(0, str(src))
    import ransomgame
    if src.resolve() not in Path(ransomgame.__file__).resolve().parents:
        raise BenchmarkError(f"ransomgame was imported from {ransomgame.__file__}")

    work = root / ".perfbench" / "work" / f"{workload.name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        commands = run_commands(root, work, workload, seed, seconds, trace)
        quadrature = check_commands(workload, commands, trace)
        metrics = per_layer(commands, quadrature) if trace else end_to_end(workload, commands)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
    failed = sum(not c.ok for c in commands)
    first = commands[0]
    key = reference_key(first.argv, first.outputs)
    distinct = {tuple(sorted(c.digests.items())) for c in commands}
    return {
        "metadata": metadata(root, workload, seed),
        "trace": trace,
        "attempted": len(commands),
        "failed": failed,
        "error_rate": failed / len(commands),
        "errors": sorted({e for c in commands for e in c.errors}),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
        "commands": [{"index": c.index, "traced": c.traced, "ok": c.ok,
                      **(c.result or {}),
                      "norm_wall_s": norm_wall_s(c.result)
                      if c.result is not None and not c.traced else None,
                      "norm_setup_s": norm_setup_s(c.result) if c.result is not None else None,
                      "layers": c.layers, "spans": c.spans}
                     for c in commands],
        "command_line": key,
        "digests": first.digests,
        "outputs_identical_across_commands": len(distinct) == 1,
        "reference": compare_reference(workload, key, first.digests),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads()))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)

    root = Path.cwd()
    workload = workloads(args.size)[args.workload]
    try:
        record = run(root, workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2

    results = root / ".perfbench" / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{workload.name}-seed{args.seed}-trace{args.trace}-{args.size}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    n_done = sum(c.get("rc") is not None for c in record["commands"])
    print(f"perfbench {workload.name} seed={args.seed} {workload.units} {workload.unit}; "
          f"{record['attempted']} commands, error_rate={record['error_rate']} "
          f"({record['failed']}/{record['attempted']}); medians over {n_done} commands")
    for error in record["errors"]:
        print(f"  check failed: {error}")
    print(f"  outputs vs seed commit: {record['reference']}; record: {out.relative_to(root)}")
    print(json.dumps({"correct": record["failed"] == 0, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
