"""Run one ransomgame CLI command in a fresh interpreter and report its cost.

Usage: python3 perfbench/child.py REQUEST_JSON

REQUEST_JSON holds ``argv`` (the CLI arguments), ``trace`` (bool) and, when
tracing, ``spans_out`` (where to write the recorded spans).  The package is
imported from ``PYTHONPATH``.  The last stdout line is a JSON object with the
exit code, the import time, the command's wall and CPU time, the process's
peak RSS, the host-speed probe's samples and the file the CLI module was
loaded from.

The import and an untraced command run under a host-speed probe: every
PROBE_INTERVAL_S of wall time a SIGALRM handler runs a fixed piece of
pure-Python work (``probe``) and records its CPU time.  On a shared host a
vCPU's speed changes by up to ~1.8x within seconds, and the hypervisor
reports no steal time, so the probe's mean duration while something runs
measures how fast the host ran it.  ``run.py`` uses it to scale times to a
fixed reference speed.  The probe uses nothing from the program, so a change
to the program cannot change it.
"""

import gc
import json
import math
import resource
import signal
import sys
import time
from dataclasses import dataclass

PROBE_ITERATIONS = 250
PROBE_INTERVAL_S = 0.02
# The import takes ~0.2 s, so it is sampled more often.
SETUP_PROBE_INTERVAL_S = 0.005
# Probe samples taken right before and right after the timed section; used
# only when too few land inside it (code that holds the GIL throughout).
EDGE_SAMPLES = 5


@dataclass(frozen=True)
class _Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and self.y > 0.0):
            raise ValueError(self)

    def value(self) -> float:
        return self.x * math.erfc(-self.x / self.y)


def probe(n=PROBE_ITERATIONS) -> float:
    """Validated dataclasses, libm calls, dict updates and float formatting:
    the mix of the program's per-node, per-run and writer loops."""
    cells = {}
    parts = []
    for i in range(n):
        p = _Point((i % 100) * 0.01 - 0.5, 1.0 + (i % 7))
        v = p.value()
        cells[i % 64] = cells.get(i % 64, 0.0) + v
        if i % 8 == 0:
            parts.append(f"{v:.9g}")
    return len(",".join(parts)) + sum(cells.values())


def probe_cpu_s() -> float:
    """CPU time of one probe, with the cyclic garbage collector held off: a
    collection the program's objects are due for would land in the sample.
    The probe frees what it allocates, so the program's collections come when
    they would have come without it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        cpu = time.thread_time()
        probe()
        return time.thread_time() - cpu
    finally:
        if enabled:
            gc.enable()


class Timed:
    """Times a block; if ``probed``, samples the host speed while it runs.

    ``wall_s`` is the block's wall time, the probe's own time included;
    ``probe_wall_s`` is the part the probe took.
    """

    def __init__(self, probed: bool, interval_s: float = PROBE_INTERVAL_S):
        self.probed = probed
        self.interval_s = interval_s
        self.samples, self.edge_samples = [], []
        self.probe_wall_s = 0.0

    def sample(self, *_):
        wall = time.perf_counter()
        self.samples.append(probe_cpu_s())
        self.probe_wall_s += time.perf_counter() - wall

    def _edge(self):
        self.edge_samples.extend(probe_cpu_s() for _ in range(EDGE_SAMPLES))

    def __enter__(self):
        if self.probed:
            self._edge()
            signal.signal(signal.SIGALRM, self.sample)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.wall_s = time.perf_counter() - self.start
        if self.probed:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)
            self._edge()
        return False

    def report(self) -> dict:
        return {"probe_wall_s": self.probe_wall_s, "probe_samples": self.samples,
                "probe_edge_samples": self.edge_samples}


def main() -> int:
    request = json.loads(sys.argv[1])

    probe(20 * PROBE_ITERATIONS)  # warm the probe's code and the CPU
    with Timed(probed=True, interval_s=SETUP_PROBE_INTERVAL_S) as setup:
        import ransomgame.cli as cli

    recorder = None
    command = cli.main
    if request["trace"]:
        import tracing
        recorder = tracing.Recorder()
        recorder.install(tracing.CLI_TARGETS)
        command = recorder.span("cli.main", cli.main)

    with Timed(probed=not request["trace"]) as timed:
        before = resource.getrusage(resource.RUSAGE_SELF)
        rc = command(request["argv"])
        after = resource.getrusage(resource.RUSAGE_SELF)

    if recorder is not None:
        with open(request["spans_out"], "w") as f:
            json.dump(recorder.to_dict(), f)

    cpu_s = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    report = {"rc": rc, "import_s": setup.wall_s, "wall_s": timed.wall_s,
              "cpu_s": cpu_s - sum(timed.samples), "maxrss_kb": after.ru_maxrss,
              "module_file": cli.__file__, "setup_probe": setup.report()}
    if timed.probed:
        report["probe"] = timed.report()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
