"""Every module uses every name it imports, and the package imports lazily.

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


# Runs in a fresh interpreter: what each import step adds to sys.modules.
_FOOTPRINT = """
import json, sys
loaded = lambda: sorted(sys.modules)
import ransomgame
package = [m for m in loaded() if m.startswith("ransomgame.")]
import ransomgame.cli
cli = loaded()
namespace = {}
exec("from ransomgame import *", namespace)
print(json.dumps({"package": package, "cli": cli, "all": ransomgame.__all__,
                  "star": sorted(namespace), "dir": dir(ransomgame)}))
"""


def test_import_loads_only_what_every_command_needs():
    env = dict(os.environ, PYTHONPATH=str(_ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    seen = json.loads(proc.stdout)
    assert seen["package"] == []
    # Only simulate needs the Monte Carlo engine and, with workers, its thread pool.
    for module in ("ransomgame.simulate", "concurrent.futures", "logging"):
        assert module not in seen["cli"]
    assert set(seen["all"]) <= set(seen["star"])
    assert set(seen["all"]) <= set(seen["dir"])
