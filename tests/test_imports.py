"""Every module uses every name it imports, the package imports lazily, and
the names a profiler wraps are the ones the program calls.

No linter is installed, so this reads each module's syntax tree instead.
A name counts as used if any expression of the module reads it; names in
``__all__``, ``__future__`` imports and import statements marked
``# noqa`` are skipped.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ransomgame import cli

_ROOT = Path(__file__).resolve().parent.parent
_MODULES = sorted([*(_ROOT / "src" / "ransomgame").glob("*.py"), *(_ROOT / "tests").glob("*.py")])


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used, exported = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if (getattr(node, "module", None) == "__future__"
                    or any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno])):
                continue
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return sorted(imported - used - exported)


@pytest.mark.parametrize("path", _MODULES, ids=lambda p: str(p.relative_to(_ROOT)))
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_names_are_found():
    source = ("from __future__ import annotations\n"
              "import os, sys\n"
              "from math import pi, tau  # noqa: F401\n"
              "from json import dumps as d, loads\n"
              "__all__ = ['loads']\n"
              "print(sys.argv)\n")
    assert _unused_imports(source) == ["d", "os"]


# Runs in a fresh interpreter: what each import step and command adds to sys.modules.
_FOOTPRINT = """
import contextlib, io, json, os, sys
loaded = lambda: sorted(sys.modules)
import ransomgame
package = [m for m in loaded() if m.startswith("ransomgame.")]
import ransomgame.cli
cli = loaded()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    assert [ransomgame.cli.main(argv) for argv in (["--version"], ["--help"], [])] == [0, 0, 2]
top_level = loaded()
out = lambda name: os.path.join(sys.argv[1], name)
sweep = ["sweep", "--axis", "i_beta:0.001:0.5:20:log", "--axis", "i_sigma:0.001:0.5:20:log",
         "--fix", "a=4.68"]
assert ransomgame.cli.main(["optimize", "--out", out("o.csv")]) == 0
assert ransomgame.cli.main(sweep + ["--out", out("s.csv")]) == 0
commands = loaded()
assert ransomgame.cli.main(sweep + ["--format", "json", "--out", out("s.json")]) == 0
json_sweep = loaded()
assert ransomgame.cli.main(["figure", "beta_curve", "--out", out("f.csv")]) == 0
figure = loaded()
namespace = {}
exec("from ransomgame import *", namespace)
print(json.dumps({"package": package, "cli": cli, "top_level": top_level, "commands": commands,
                  "json_sweep": json_sweep, "figure": figure, "all": ransomgame.__all__,
                  "star": sorted(namespace), "dir": dir(ransomgame)}))
"""

# What only some commands run: the Monte Carlo engine and its random streams
# (simulate), the figure and table builders, quadrature (no command) and
# contours (a JSON 2-D sweep and the heatmaps).
_NOT_SHARED = ("ransomgame.simulate", "ransomgame.stochastics", "ransomgame._figures",
               "ransomgame._quadrature", "ransomgame._contour")


def _run_fresh(script: str, *args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return json.loads(proc.stdout)


def test_import_loads_only_what_every_command_needs(tmp_path):
    seen = _run_fresh(_FOOTPRINT, tmp_path)
    assert seen["package"] == []
    # Only simulate needs the thread pool, and only with workers.
    for module in (*_NOT_SHARED, "concurrent.futures", "logging"):
        assert module not in seen["cli"]
    # --version, --help and an argv with no command build no command's
    # arguments, so they need no figure names; optimize and a CSV sweep run
    # none of it either.
    for module in _NOT_SHARED:
        assert module not in seen["top_level"]
        assert module not in seen["commands"]
    assert "ransomgame._contour" in seen["json_sweep"]
    assert "ransomgame._figures" not in seen["json_sweep"]
    assert "ransomgame._figures" in seen["figure"]
    assert set(seen["all"]) <= set(seen["star"])
    assert set(seen["all"]) <= set(seen["dir"])


# simulate's random words are integer arithmetic on uint64 arrays, so no
# command loads numpy.random (with it come secrets, hmac and OpenSSL's
# _hashlib).  Only modules that the commands add count: numpy before 2.0
# imports numpy.random with numpy itself.  The thread pool comes only with a
# batch of more than one slice on more than one worker: 10,000 runs are one
# 16,384-run slice, so four workers play them on the calling thread.
_SIMULATE_FOOTPRINT = """
import contextlib, io, json, os, sys
import numpy
before = set(sys.modules)
import ransomgame.cli
out = lambda name: os.path.join(sys.argv[1], name)
added = {}
for label, argv in (("one worker", ["--n-runs", "70000", "--out", out("one.csv")]),
                    ("four workers, one slice", ["--n-runs", "10000", "--workers", "4",
                                                 "--out", out("four.csv")]),
                    ("two workers, traced", ["--n-runs", "70000", "--workers", "2",
                                             "--out", out("two.csv"),
                                             "--trace-out", out("t.csv")])):
    with contextlib.redirect_stdout(io.StringIO()):
        assert ransomgame.cli.main(["simulate", *argv]) == 0
    added[label] = sorted(set(sys.modules) - before)
print(json.dumps(added))
"""


@pytest.fixture(scope="module")
def simulate_added(tmp_path_factory):
    """The modules that each simulate command of ``_SIMULATE_FOOTPRINT`` has added."""
    return _run_fresh(_SIMULATE_FOOTPRINT, tmp_path_factory.mktemp("simulate"))


def test_simulate_loads_no_numpy_random(simulate_added):
    for label, modules in simulate_added.items():
        assert "ransomgame.stochastics" in modules, label
        assert [m for m in modules if m.split(".")[:2] == ["numpy", "random"]] == [], label


def test_simulate_imports_the_thread_pool_only_to_play_slices_on_it(simulate_added):
    assert "concurrent.futures" not in simulate_added["one worker"]
    assert "concurrent.futures" not in simulate_added["four workers, one slice"]
    assert "concurrent.futures" in simulate_added["two workers, traced"]


# The names perfbench's tracer wraps (``perfbench/tracing.py``, CLI_TARGETS
# and QUADRATURE_TARGETS, less the two it no longer finds: ``expected_profit``,
# which the optimizer stopped importing for the closed form, and
# ``nelder_mead``, deleted when root solves replaced the simplex).  Some are
# bound on first use; the tracer reads each with getattr and replaces it with
# setattr after ``import ransomgame.cli``, and its wrapper must be what the
# program calls.
_TRACED = (("ransomgame.cli", "_write_csv"), ("ransomgame.cli", "_write_json"),
           ("ransomgame.cli", "run_batch"), ("ransomgame.cli", "write_trace_csv"),
           ("ransomgame.cli", "maximize_profit"), ("ransomgame.cli", "profit_surface"),
           ("ransomgame.optimize", "zero_contours"),
           ("ransomgame.profit", "adaptive_quadrature"))
# Each module binds only its own lazy names.
_UNKNOWN = (("ransomgame", "zero_contours"),
            ("ransomgame.cli", "no_such_name"), ("ransomgame.cli", "expected_profit"),
            ("ransomgame.cli", "adaptive_quadrature"),
            ("ransomgame.optimize", "no_such_name"), ("ransomgame.optimize", "expected_profit"),
            ("ransomgame.profit", "no_such_name"), ("ransomgame.profit", "zero_contours"))

_TRACER = """
import functools, importlib, json, os, sys
import ransomgame.cli
targets, unknown_names = json.loads(sys.argv[2])
calls = dict.fromkeys(".".join(t) for t in targets)
for module, attr in targets:
    mod = importlib.import_module(module)
    def wrap(fn, key=f"{module}.{attr}"):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[key] = (calls[key] or 0) + 1
            return fn(*args, **kwargs)
        return wrapper
    setattr(mod, attr, wrap(getattr(mod, attr)))
unknown = []
for module, attr in unknown_names:
    try:
        getattr(importlib.import_module(module), attr)
    except AttributeError:
        unknown.append([module, attr])
out = lambda name: os.path.join(sys.argv[1], name)
main = ransomgame.cli.main
assert main(["optimize", "--out", out("o.csv")]) == 0
assert main(["sweep", "--axis", "i_beta:0.001:0.5:20:log", "--axis", "i_sigma:0.001:0.5:20:log",
             "--fix", "a=4.68", "--format", "json", "--out", out("s.json")]) == 0
assert main(["simulate", "--n-runs", "100", "--out", out("r.csv"),
             "--trace-out", out("t.csv")]) == 0
from ransomgame import AttackerStrategy, GameEnvironment, PopulationMean
from ransomgame.profit import ProfitMethod, expected_profit
expected_profit(AttackerStrategy(4.68, 0.091, 0.104), GameEnvironment(0.02, PopulationMean(1.0)),
                ProfitMethod.QUADRATURE)
print(json.dumps({"calls": calls, "unknown": unknown}))
"""


def test_traced_names_resolve_and_their_wrappers_run(tmp_path):
    seen = _run_fresh(_TRACER, tmp_path, json.dumps([_TRACED, _UNKNOWN]))
    assert [key for key, n in seen["calls"].items() if not n] == []
    assert seen["unknown"] == [list(name) for name in _UNKNOWN]


def test_a_wrapper_on_a_lazily_bound_command_is_what_runs(tmp_path, monkeypatch):
    table, calls = cli.cmd_table, []

    def wrapper(args, params):
        calls.append(params["what"])
        return table(args, params)
    monkeypatch.setattr(cli, "cmd_table", wrapper)
    assert cli.main(["table", "strategies", "--out", str(tmp_path / "t.csv")]) == 0
    assert calls == ["strategies"]
