"""erfcx, G and the output files of simulate, optimize, sweep and the five
small figures give the same bits whichever SIMD loops numpy dispatches to."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

import ransomgame

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

# numpy's AVX-512 targets; without them it runs its AVX2 (X86_V3) loops.
_NO_AVX512 = "X86_V4 AVX512_ICL AVX512_SPR"
_HAS_AVX512_LOOPS = ("X86_V4" in _umath.__cpu_dispatch__
                     and bool(_umath.__cpu_features__.get("X86_V4")))

# Inputs built by exact arithmetic (no exp, log or power, whose bits depend
# on the dispatch themselves): every branch of erfcx, subnormals to 8e305.
_CHILD = """
import hashlib
import numpy as np
from ransomgame._erfcx import _erfcx
from ransomgame.profit import _gross_multiplier
x = np.concatenate([np.arange(1 << 16) / 4096.0,
                    np.ldexp(1.0 + np.arange(2090) / 2090.0, np.arange(-1074, 1016))])
a = np.ldexp(1.0 + np.arange(500) / 500.0, np.arange(-100, 900, 2))
sigma = np.arange(1, 257) / 256.0
for v in (x, _erfcx(x), _gross_multiplier(a[:, None], sigma[None, :])):
    print(hashlib.sha256(v.tobytes()).hexdigest())
"""


def _run_python(args, **env):
    src = str(pathlib.Path(ransomgame.__file__).resolve().parent.parent)
    env = {**os.environ, **env,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def _simulate_files(out_dir, **env):
    """SHA-256 of the summary and the trace of a 300k-run, 2-worker simulate in a child."""
    out_dir.mkdir()
    files = {"summary": out_dir / "summary.csv", "trace": out_dir / "trace.csv"}
    _run_python(["-m", "ransomgame.cli", "simulate", "--n-runs", "300000", "--seed", "7",
                 "--workers", "2", "--out", str(files["summary"]),
                 "--trace-out", str(files["trace"])], **env)
    return {name: hashlib.sha256(path.read_bytes()).hexdigest() for name, path in files.items()}


def _optimize_file(out_dir, **env):
    """The CSV of the default optimize, written in a child."""
    out_dir.mkdir()
    path = out_dir / "optimum.csv"
    _run_python(["-m", "ransomgame.cli", "optimize", "--out", str(path)], **env)
    return path.read_bytes()


def _sweep_file(out_dir, **env):
    """The CSV of the 200x200 sweep at a = 4.68, written in a child."""
    out_dir.mkdir()
    path = out_dir / "surface.csv"
    _run_python(["-m", "ransomgame.cli", "sweep", "--axis", "i_beta:0.001:0.5:200:log",
                 "--axis", "i_sigma:0.001:0.5:200:log", "--fix", "a=4.68",
                 "--out", str(path)], **env)
    return path.read_bytes()


_SMALL_FIGURES = ("beta_curve", "estimate_pdf", "alpha_curve", "utility_vs_demand",
                  "profit_vs_estimate")
_FIGURES_CHILD = """
import sys
from ransomgame.cli import main
for name in sys.argv[2:]:
    assert main(["figure", name, "--out", f"{sys.argv[1]}/{name}.csv"]) == 0
"""


def _figure_files(out_dir, **env):
    """The CSVs of the five small figures, written in one child."""
    out_dir.mkdir()
    _run_python(["-c", _FIGURES_CHILD, str(out_dir), *_SMALL_FIGURES], **env)
    return {name: (out_dir / f"{name}.csv").read_bytes() for name in _SMALL_FIGURES}


# Only the child processes' environment changes; the machine does not.
_needs_avx512_loops = pytest.mark.skipif(
    not _HAS_AVX512_LOOPS, reason="numpy has no X86_V4 (AVX-512) loops on this CPU to turn "
                                  "off, so both runs would take the same loops")


@_needs_avx512_loops
def test_erfcx_and_g_bits_do_not_depend_on_avx512_loops():
    assert _run_python(["-c", _CHILD]) == _run_python(["-c", _CHILD],
                                                      NPY_DISABLE_CPU_FEATURES=_NO_AVX512)


@_needs_avx512_loops
def test_simulate_files_do_not_depend_on_avx512_loops(tmp_path):
    # Per-run floats may differ in their last bits (exp, log and power round
    # differently); the files, at 9 significant digits, may not.
    assert _simulate_files(tmp_path / "v4") == _simulate_files(
        tmp_path / "v3", NPY_DISABLE_CPU_FEATURES=_NO_AVX512)


@_needs_avx512_loops
def test_optimize_file_does_not_depend_on_avx512_loops(tmp_path):
    # The guard scan's log axes differ in their last bits between the two
    # levels; the solved optimum reads none of them, only a scan node that
    # beat it would, and the solves use erfcx's arithmetic and libm's exp and
    # log, so the file may not differ.
    assert _optimize_file(tmp_path / "v4") == _optimize_file(
        tmp_path / "v3", NPY_DISABLE_CPU_FEATURES=_NO_AVX512)


@_needs_avx512_loops
def test_sweep_file_does_not_depend_on_avx512_loops(tmp_path):
    # The log axes differ in their last bits between the two levels, and the
    # row writer estimates decimal exponents with log10; the 9-digit file
    # may not differ.
    assert _sweep_file(tmp_path / "v4") == _sweep_file(
        tmp_path / "v3", NPY_DISABLE_CPU_FEATURES=_NO_AVX512)


@_needs_avx512_loops
def test_figure_files_do_not_depend_on_avx512_loops(tmp_path):
    # The figures evaluate whole grids with numpy's exp, log and power.
    assert _figure_files(tmp_path / "v4") == _figure_files(
        tmp_path / "v3", NPY_DISABLE_CPU_FEATURES=_NO_AVX512)
